"""The solvers and the audit against the exact two-valued flow on K_n.

tests/two_value_reference.py gives u(t), T*, E(t) and the dissipation of the
flow at every (p, q) from two-valued data on a complete graph, whose two
blocks may have measures of their own.  Step tolerance below means atol +
rtol max u0.
"""

import functools

import numpy as np
import pytest

import fracgraph as fg
from fracgraph.flow import _integrate
from conftest import REFERENCE_S, before_snap
from linear_flow_reference import LinearFlow
from two_value_reference import TwoValueFlow

A0, B0, T = 2.0, 0.5, 3.0
# (n, k): k vertices start at A0, the other n - k at B0
GRAPHS = [(6, 2), (40, 13)]
PARAMS = [(0.5, 1.5, 1.0), (0.3, 1.5, 0.5), (0.7, 2.5, 1.5), (0.5, 2.0, 2.0)]
CASES = [(n, k, *spq) for n, k in GRAPHS for spq in PARAMS]
IDS = [f"K{n}-s{s}-p{p}-q{q}" for n, k, s, p, q in CASES]
# Picard solves take ~0.25 s each at q != 1, so they run on K6 only
PICARD_CASES = [case for case in CASES if case[0] == 6]
PICARD_IDS = [i for i, case in zip(IDS, CASES) if case[0] == 6]


def sample_bound(q):
    """Largest sample error, in step tolerances.  At q > 1 the continuous
    extension carries up to ~6 step tolerances where the flow is fastest,
    though the accepted states stay within 0.5 (see test_direct_accepted_states)."""
    return 0.5 if q <= 1.0 else 10.0


@functools.cache
def kernel(n, s):
    """The kernel of K_n with unit weights and unit measure."""
    return fg.build_kernel(fg.Graph(np.ones(n), np.ones((n, n)) - np.eye(n)), s)


@functools.cache
def problem(n, k, s, p, q, tol=1e-9):
    """(kernel, u0, config, reference, step tolerance) of a case at atol = rtol = tol."""
    config = fg.FlowConfig(s=s, p=p, q=q, T=T, atol=tol, rtol=tol)
    u0 = np.repeat([A0, B0], [k, n - k])
    exact = TwoValueFlow(n, k, s, p, q, A0, B0)
    return kernel(n, s), u0, config, exact, config.atol + config.rtol * A0


@functools.cache
def solve(case, solver="direct", tol=1e-9):
    kern, u0, config, _, _ = problem(*case, tol)
    if solver == "direct":
        return fg.evolve_direct(kern, u0, config)
    return fg.picard_solve(kern, u0, config)[0]


class TestReference:
    @pytest.mark.parametrize("n", [2, 6, 40])
    @pytest.mark.parametrize("s", REFERENCE_S)
    def test_kernel_is_constant(self, n, s):
        # exact, so it holds the assembly's accuracy, not its rounding (worst
        # measured: 3.4e-14 at K40, s = 0.99)
        w = kernel(n, s).w
        off = w[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, float(n) ** (s - 1.0), rtol=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 2.5])
    def test_quadrature_matches_closed_form(self, p):
        # checks the reference alone: at q = 1 its quadrature path has a closed form
        closed = TwoValueFlow(40, 13, 0.5, p, 1.0, A0, B0)
        quadrature = TwoValueFlow(40, 13, 0.5, p, 1.0, A0, B0, closed_form=False)
        times = np.linspace(0.0, 0.4, 41)
        np.testing.assert_allclose(quadrature.gap(times), closed.gap(times), rtol=1e-13)
        if p < 2.0:
            assert quadrature.extinction_time() == pytest.approx(closed.extinction_time(),
                                                                 rel=1e-13)

    @pytest.mark.parametrize("n, k", GRAPHS)
    def test_matches_linear_flow(self, n, k):
        s = 0.5
        exact = TwoValueFlow(n, k, s, 2.0, 1.0, A0, B0)
        times = np.linspace(0.0, T, 31)
        linear = LinearFlow(kernel(n, s), np.repeat([A0, B0], [k, n - k]))
        np.testing.assert_allclose(exact.samples(times), linear.samples(times),
                                   rtol=0, atol=1e-14)
        np.testing.assert_allclose(exact.energy(times), linear.energy(times), rtol=1e-12)


class TestSolvers:
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_direct_accepted_states(self, case):
        kern, u0, config, exact, tol = problem(*case)
        p, q = config.p, config.q
        steps = []
        _integrate(lambda t, u: fg.rhs_direct(kern, u, p, q), u0, config, kern.graph, steps)
        times = np.array([t for t, *_ in steps])
        states = np.array([u for _, _, u, _ in steps])
        assert np.max(np.abs(states - exact.samples(times))) <= 0.5 * tol

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_direct_samples(self, case):
        self.check_samples(case, "direct")

    @pytest.mark.parametrize("case", PICARD_CASES, ids=PICARD_IDS)
    def test_picard_samples(self, case):
        self.check_samples(case, "picard")

    # Picard stops at a tenth of the step tolerance, so it keeps its bound at
    # loose and tight tolerances (worst measured: 8.27 step tolerances, at
    # K6-s0.5-p2.0-q2.0 and 1e-12)
    @pytest.mark.parametrize("atol", [1e-6, 1e-12])
    @pytest.mark.parametrize("case", PICARD_CASES, ids=PICARD_IDS)
    def test_picard_samples_at_tolerance(self, case, atol):
        self.check_samples(case, "picard", atol)

    @staticmethod
    def check_samples(case, solver, atol=1e-9):
        traj = solve(case, solver, atol)
        _, _, config, exact, tol = problem(*case, atol)
        pre = before_snap(traj)
        error = np.max(np.abs(traj.values[pre] - exact.samples(traj.times[pre])))
        assert error <= sample_bound(config.q) * tol

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_picard_samples_with_two_measures(self, q):
        # K9 whose first 4 vertices have measure 0.7 and the other 5 measure 2.3.  At
        # p = 1.5 the gap closes, so the sweeps snap; the worst measured errors were
        # 0.14 (q = 0.5) and 3.65 (q = 2) step tolerances before the snap, and 0.072
        # after it.  Fails when the sweeps snap to the power mean of a unit measure
        # (picard_solve handing _integrate the graph with mu = 1), 59 after the snap
        n, k, s, mu_a, mu_b = 9, 4, 0.6, 0.7, 2.3
        graph = fg.Graph(np.repeat([mu_a, mu_b], [k, n - k]), np.ones((n, n)) - np.eye(n))
        config = fg.FlowConfig(s=s, p=1.5, q=q, T=T)
        kern, u0 = fg.build_kernel(graph, s), np.repeat([A0, B0], [k, n - k])
        exact = TwoValueFlow(n, k, s, config.p, q, A0, B0, mu_a=mu_a, mu_b=mu_b)
        # the reference's kernel between the blocks (worst measured: 3.3e-15 relative)
        np.testing.assert_allclose(kern.w[:k, k:], exact.w, rtol=1e-13)
        traj, tol = fg.picard_solve(kern, u0, config)[0], config.atol + config.rtol * A0
        error = np.max(np.abs(traj.values - exact.samples(traj.times)), axis=1)
        pre = before_snap(traj)
        assert len(pre) < len(traj.times)
        assert np.max(error[pre]) <= sample_bound(q) * tol
        assert np.all(error[len(pre):] <= tol)

    @pytest.mark.parametrize("n, k", GRAPHS)
    def test_samples_after_a_snap_at_p2(self, n, k):
        # at p >= 2 the snap waits for a spread of 10 step tolerances, and the
        # samples after it stay within 1.9 (K6) and 1.4 (K40) of them; at a
        # spread of 1000 they were 248 and 204 off
        s, p, q = 0.5, 2.0, 2.0
        config = fg.FlowConfig(s=s, p=p, q=q, T=30.0)
        traj = fg.evolve_direct(kernel(n, s), np.repeat([A0, B0], [k, n - k]), config)
        exact = TwoValueFlow(n, k, s, p, q, A0, B0)
        post = np.flatnonzero(traj.times >= traj.stats.snap_time)
        error = np.max(np.abs(traj.values[post] - exact.samples(traj.times[post])))
        assert error <= 3.0 * (config.atol + config.rtol * A0)

    @pytest.mark.parametrize("case", [c for c in CASES if c[3] < 2.0],
                             ids=[i for i, c in zip(IDS, CASES) if c[3] < 2.0])
    def test_snap_before_extinction(self, case):
        # the snap fires at the first step that starts with a spread of at most
        # 1000 step tolerances, and the accepted states are within 0.5 of one
        n, k, s, p, q = case
        _, _, _, exact, tol = problem(*case)
        snap = solve(case).stats.snap_time
        extinction = TwoValueFlow(n, k, s, p, q, A0, B0).extinction_time()
        assert exact.time_of(1001.0 * tol) <= snap <= extinction


class TestAudit:
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_mass(self, case):
        kern, _, config, exact, tol = problem(*case)
        traj, q = solve(case), config.q
        drift = np.abs(fg.mass(kern.graph, traj.values, q) - exact.mass)
        if q == 1.0:  # a Runge-Kutta pair keeps a linear invariant to round-off
            assert np.max(drift) <= 1e-14 * exact.mass
        else:  # first order in the sample error
            bound = q * np.sum(traj.values ** (q - 1.0), axis=1) * sample_bound(q) * tol
            assert np.all(drift <= bound)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_energy(self, case):
        kern, _, config, exact, tol = problem(*case)
        traj = solve(case)
        pre = before_snap(traj)
        gap = exact.gap(traj.times[pre])
        energy = exact.energy_of(gap)
        computed = fg.dirichlet_p_energy(kern, traj.values[pre], config.p)
        # the gap is within twice the sample error; dE/dd = p E / d
        bound = config.p * energy / gap * 2.0 * sample_bound(config.q) * tol + 1e-14 * energy[0]
        assert np.all(np.abs(computed - energy) <= bound)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_trapezoid_dissipation(self, case):
        kern, _, config, exact, tol = problem(*case)
        traj = solve(case)
        lhs, _, _ = fg.dissipation_check(traj, kern, config.p, config.q)
        # the integrand of the solution against the exact one, on the same grid
        # and rule; after the snap the computed integrand is 0
        pre = before_snap(traj)
        integrand = np.zeros(len(traj.times))
        integrand[pre] = exact.dissipation_integrand(traj.times[pre])
        trapezoid = float(np.trapezoid(integrand, traj.times))
        assert abs(lhs - trapezoid) <= 10.0 * tol * trapezoid
        # the rule itself: at dt_out = T/200 it overestimates the exact integral by
        # 1.5e-4 to 2.7e-2 of it across these cases, the most at K40, p = 2.5
        excess = (lhs - exact.dissipation(T)) / exact.dissipation(T)
        assert 0.0 < excess <= 0.05
