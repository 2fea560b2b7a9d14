"""evolve_direct on the hypercube Q9 against its exact quotient flow.

From a u0 that depends on the Hamming weight alone, the flow on Q9's 512
vertices is the flow of tests/symmetric_reference.py's HypercubeQuotient on
its 10 weight classes.  scipy's DOP853 solves that at rtol = 1e-13 until its
spread falls below 1e-12, after which the constant of the same mass stands
for it.  Step tolerance below means atol + rtol max u0.

Each assertion names a one-line change to src/ under which it fails.
"""

import functools

import numpy as np
import pytest

import fracgraph as fg
import symmetric_reference as ref
from conftest import before_snap

solve_ivp = pytest.importorskip("scipy.integrate").solve_ivp

D = 9
U0 = np.random.default_rng(1).uniform(0.5, 2.0, D + 1)  # one value per weight class
# the (s, p, q) of the audit-n500 benchmark workload
AUDIT = [(0.3, 1.5, 0.5), (0.5, 2.0, 1.0), (0.7, 2.5, 1.5), (0.5, 3.0, 2.0)]
# Largest sample error before the snap, in step tolerances.  Measured: 0.13
# at q = 0.5 (0.53 in the run past the snap), 0.24 at q = 1, and 2.24 and
# 4.02 at q = 1.5 and 2, where the continuous extension carries the most in
# the first steps, as on K6 (test_two_value_flow.py).
SAMPLE_BOUND = {0.5: 1.0, 1.0: 0.5, 1.5: 4.0, 2.0: 8.0}


@functools.cache
def decomposition():
    return fg.decompose(fg.Graph(np.ones(2**D), ref.hypercube_weights(D)))


@functools.cache
def kernel(s):
    dec = decomposition()
    return fg.build_kernel(dec.graph, s, dec)


def quotient_samples(quotient, times):
    """The class states of the quotient flow from U0 at the times."""
    def collapsed(t, u):
        return np.ptp(u) - 1e-12

    collapsed.terminal = True
    sol = solve_ivp(quotient.rhs, (0.0, times[-1]), U0, method="DOP853", rtol=1e-13,
                    atol=1e-15, dense_output=True, events=collapsed)
    assert sol.success
    values = sol.sol(np.minimum(times, sol.t[-1])).T
    # the maximum principle keeps the exact flow within the spread of this constant
    values[times > sol.t[-1]] = quotient.steady_state(U0)
    return values


@functools.cache
def solve(s, p, q, T=0.05, dt_out=1e-3):
    """(full trajectory, quotient class states at its times, quotient, step tolerance)."""
    quotient = ref.HypercubeQuotient(D, s, p, q)
    config = fg.FlowConfig(s=s, p=p, q=q, T=T, dt_out=dt_out)
    traj = fg.evolve_direct(kernel(s), quotient.lift(U0), config)
    tol = config.atol + config.rtol * U0.max()
    return traj, quotient_samples(quotient, traj.times), quotient, tol


@pytest.mark.parametrize("s, p, q", AUDIT)
def test_samples(s, p, q):
    # fails under phi = np.divide(psi.T, rmu * (1 + 1e-6), ...) in decompose,
    # and at p != 2 under the exponent (p - 2.0) / 2.01 in _gradient_power
    traj, exact, quotient, tol = solve(s, p, q)
    pre = before_snap(traj)
    error = np.max(np.abs(traj.values[pre] - quotient.lift(exact[pre])))
    assert error <= SAMPLE_BOUND[q] * tol


@pytest.mark.parametrize("s, p, q, T, dt_out, after", [
    (0.3, 1.5, 0.5, 0.5, 1e-3, 0.01), (0.5, 2.0, 1.0, 15.0, 0.05, 4.0)], ids=["p1.5", "p2"])
def test_past_the_snap(s, p, q, T, dt_out, after):
    # after the snap the samples are within 0.004 step tolerances at p = 1.5,
    # whose exact flow is constant from 4e-4 after it, and 2.3 at p = 2, where
    # the snap waits for a spread of 10.  Fails under the snap constant's
    # ** (1.0 / q) * (1 + 1e-8) in steady_state, and under a spread of 100
    # (not 10) step tolerances for the snap at p >= 2 in _integrate
    traj, exact, quotient, tol = solve(s, p, q, T, dt_out)
    assert traj.stats.snap_time is not None
    error = np.abs(traj.values - quotient.lift(exact))
    assert np.max(error[before_snap(traj)]) <= SAMPLE_BOUND[q] * tol
    assert np.max(error[traj.times >= traj.stats.snap_time]) <= after * tol


@pytest.mark.parametrize("s, p, q, T, dt_out", [
    (0.3, 1.5, 0.5, 0.5, 1e-3), (0.5, 2.0, 1.0, 15.0, 0.05)], ids=["p1.5", "p2"])
def test_snap_record(s, p, q, T, dt_out):
    # the snap records the spread it discards, 669 step tolerances at p = 1.5 and
    # 5.2 at p = 2; the exact flow stays within that spread of the snap constant,
    # plus the error the samples carry up to the snap.  Fails under config.atol for
    # the tolerance the snap records, and at p = 2 under spread / 10 for the spread
    traj, exact, quotient, tol = solve(s, p, q, T, dt_out)
    stats = traj.stats
    assert 0.0 < stats.snap_tolerance <= tol
    assert 0.0 < stats.snap_spread <= (10.0 if p >= 2.0 else 1e3) * stats.snap_tolerance
    error = np.max(np.abs(traj.values - quotient.lift(exact)), axis=1)
    post = traj.times >= stats.snap_time
    assert np.all(error[post] <= stats.snap_spread + np.max(error[before_snap(traj)]))


@pytest.mark.parametrize("s, p, q", AUDIT)
def test_mass_and_energy(s, p, q):
    traj, exact, quotient, tol = solve(s, p, q)
    graph, values = kernel(s).graph, traj.values
    # first order in the sample error; fails under graph.mu * (1 + 1e-7) in mass
    drift = np.abs(fg.mass(graph, values, q) - quotient.mass(exact))
    assert np.all(drift <= q * np.sum(values ** (q - 1.0), axis=1) * SAMPLE_BOUND[q] * tol)
    # relative errors of 0.13, 0.58, 2.2 and 4.6 step tolerances were measured;
    # fails under the exponent p / 2.000001 in dirichlet_p_energy
    energy = quotient.energy(exact)
    computed = fg.dirichlet_p_energy(kernel(s), values, p)
    assert np.all(np.abs(computed - energy) <= p * SAMPLE_BOUND[q] * tol * energy)
