"""build_kernel against the exact kernels of the cycle and the hypercube.

tests/symmetric_reference.py sums the closed forms in np.longdouble, so the
comparison sees the eigensolver's own error, at the sizes of the benchmark
graphs (n = 500, 512 and 1000).
"""

import functools

import numpy as np
import pytest

import fracgraph as fg
import symmetric_reference as ref

GRAPHS = {
    "C500": (ref.cycle_weights(500), functools.partial(ref.cycle_kernel, 500)),
    "C1000": (ref.cycle_weights(1000), functools.partial(ref.cycle_kernel, 1000)),
    "Q9": (ref.hypercube_weights(9), functools.partial(ref.hypercube_kernel, 9)),
}
# max |error| / max |W| allowed at each s.  The absolute error stays near the
# eigensolver's round-off while max |W| falls with s, so small s is the worst;
# measured on one machine, the largest over the three graphs was 1.1e-13 at
# s = 0.05 (C1000), 1.0e-14 at s = 0.5 and 7.4e-15 at s = 0.99 (both Q9).
BOUNDS = {0.05: 1e-12, 0.5: 1e-13, 0.99: 1e-13}


@functools.cache
def decomposition(name):
    weights, _ = GRAPHS[name]
    return fg.decompose(fg.Graph(np.ones(len(weights)), weights))


@pytest.mark.parametrize("s", BOUNDS)
@pytest.mark.parametrize("name", GRAPHS)
def test_kernel_matches_closed_form(name, s):
    dec = decomposition(name)
    exact = GRAPHS[name][1](s)
    w = fg.build_kernel(dec.graph, s, dec).w
    assert np.max(np.abs(w - exact)) <= BOUNDS[s] * np.max(np.abs(exact))


@pytest.mark.parametrize("exact, weights", [
    (ref.cycle_kernel(12, 1.0), ref.cycle_weights(12)),
    (ref.hypercube_kernel(4, 1.0), ref.hypercube_weights(4))], ids=["C12", "Q4"])
def test_closed_form_at_s1_is_the_edge_weights(exact, weights):
    # checks the references alone: W_1 = -L off the diagonal, the edge weights
    np.testing.assert_allclose(exact.astype(float), weights, rtol=0, atol=1e-15)
