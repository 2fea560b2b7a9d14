"""Exact symmetries of the kernel and the flow under a scaling of the measure or the
weights, on a seeded random graph whose measure and weights are not uniform.

With mu -> alpha mu, -Delta's eigenvalues scale by 1/alpha and its mu-orthonormal
eigenfunctions by alpha^(-1/2), so W_s = -mu(x) mu(y) sum_i lambda_i^s phi_i(x) phi_i(y)
scales by alpha^(1-s); with w -> beta w the eigenvalues scale by beta, the
eigenfunctions stay, and W_s scales by beta^s.  The squared gradient, of the order of
W_s / mu, and so (-Delta)_p^s then scale by alpha^(-sp/2) or beta^(sp/2): the flow on
alpha mu at time t is the flow on mu at time alpha^(-sp/2) t, and the flow on beta w
at time t is the flow on w at time beta^(sp/2) t.

The other tests draw measures and weights from [0.2, 5]; these scale them by 2^10 and
2^-12, exactly in floats, so that a scale fixed in the code shows.  Step tolerance
below means atol + rtol max u0.
"""

import functools

import numpy as np
import pytest

import fracgraph as fg

S, P, Q = 0.6, 2.7, 1.4
GRAPH = fg.random_connected_graph(np.random.default_rng(16), 12)
U0 = np.random.default_rng(17).uniform(0.5, 2.0, GRAPH.n)
ALPHA, BETA = 2.0**10, 2.0**-12
# each scaled graph with its time factor c: its flow at c t is GRAPH's flow at t; the
# scaled flows run 274 and 843 times slower, with steps up to 16 and 49 long
SCALED = {"measure": (fg.Graph(mu=ALPHA * GRAPH.mu, weights=GRAPH.weights),
                      ALPHA ** (S * P / 2.0)),
          "weights": (fg.Graph(mu=GRAPH.mu, weights=BETA * GRAPH.weights),
                      BETA ** (-S * P / 2.0))}
ATOL = RTOL = 1e-9
# Largest sample difference of the two flows, in step tolerances; measured 0.48
# (measure) and 0.009 (weights)
SAMPLE_BOUND = 2.0


@functools.cache
def kernel(name=None):
    """GRAPH's kernel, or that of its scaling `name`."""
    return fg.build_kernel(GRAPH if name is None else SCALED[name][0], S)


def test_kernel_scales_with_the_measure():
    # fails if _assemble_kernel took min(mu, 100) for mu, which the rest of the suite
    # passes; W(beta w) = beta^s W(w) has no test, since no change to src/ was found
    # that breaks it and passes the rest of the suite
    expected = ALPHA ** (1.0 - S) * kernel().w
    assert np.max(np.abs(kernel("measure").w - expected)) <= 1e-14 * np.max(expected)


@pytest.mark.parametrize("name", SCALED)
def test_flow_is_the_flow_at_a_rescaled_time(name):
    # fails if _trial_step's error estimate took min(h, 1) for h (3.9 and 18 step
    # tolerances), and the measure case if _squared_gradients took min(mu, 100) for
    # mu; the rest of the suite passes both
    c = SCALED[name][1]
    base, scaled = (fg.evolve_direct(k, U0, fg.FlowConfig(s=S, p=P, q=Q, T=T, dt_out=T / 20,
                                                          atol=ATOL, rtol=RTOL))
                    for k, T in ((kernel(), 1.0), (kernel(name), c)))
    np.testing.assert_allclose(scaled.times, c * base.times, rtol=1e-15)
    tol = ATOL + RTOL * U0.max()
    assert np.max(np.abs(scaled.values - base.values)) <= SAMPLE_BOUND * tol
