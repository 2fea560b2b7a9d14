import dataclasses
import functools
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import fracgraph as fg
from fracgraph import flow
from fracgraph.flow import _integrate
from conftest import (DEGENERATE_DOCS, OVERFLOWING_U0, SWEEP_COUNTS, grid_doc, make_random_graph,
                      wall_clock_limit)
from linear_flow_reference import LinearFlow


def reference_solve(kernel, u0, q, T, dt):
    """Fixed-step classic RK4 for a two-vertex graph at p = 2; brute-force oracle.

    The right-hand side comes from its closed form
    du/dt(x) = -W(x,y) (u(x) - u(y)) / mu(x) / (q u(x)^(q-1)), evaluated in
    scalar floats, so the oracle does not call rhs_direct.
    """
    w = float(kernel.w[0, 1])
    mu_x, mu_y = (float(m) for m in kernel.graph.mu)

    def f(x, y):
        flux = w * (x - y)
        return -flux / mu_x / (q * x ** (q - 1.0)), flux / mu_y / (q * y ** (q - 1.0))

    x, y = (float(v) for v in u0)
    for _ in range(int(round(T / dt))):
        k1 = f(x, y)
        k2 = f(x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1])
        k3 = f(x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1])
        k4 = f(x + dt * k3[0], y + dt * k3[1])
        x += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        y += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return np.array([x, y])


class TestRhsDirect:
    def test_constant_is_steady(self, k2_kernel):
        out = fg.rhs_direct(k2_kernel, np.full(2, 1.3), 2.0, 2.0)
        np.testing.assert_array_equal(out, 0.0)

    def test_q1_is_minus_operator(self):
        kern = fg.build_kernel(make_random_graph(2), 0.4)
        u = np.random.default_rng(2).uniform(0.5, 2.0, kern.n)
        np.testing.assert_array_equal(
            fg.rhs_direct(kern, u, 2.5, 1.0, 1e-12),
            -fg.frac_p_laplacian(kern, u, 2.5, 1e-12),
        )

    def test_k2_hand_evaluation(self, k2_kernel):
        # W = 2^{-1/2}; (-Delta)^s u = (+-) W * 0.5 and q=1 leaves it unscaled,
        # so the right-hand side is antisymmetric: -2^{-3/2} at x, +2^{-3/2} at y
        out = fg.rhs_direct(k2_kernel, np.array([1.0, 0.5]), 2.0, 1.0)
        np.testing.assert_allclose(out, [-(2.0**-1.5), 2.0**-1.5], rtol=1e-13)

    def test_rejects_nonpositive_state(self, k2_kernel):
        with pytest.raises(fg.NonPositiveState):
            fg.rhs_direct(k2_kernel, np.array([1.0, 0.0]), 2.0, 2.0)


class TestStep:
    """The step controller, ``_accept_step``, and its use in ``_integrate``."""

    @staticmethod
    def accept(kernel, u, h, cfg):
        """_accept_step from (0, u) at size h on the direct flow, and its stats."""
        def f(t, u):
            return fg.rhs_direct(kernel, u, cfg.p, cfg.q)

        stats = fg.StepStats()
        tol = cfg._step_tolerance(float(np.max(u)))
        return flow._accept_step(f, 0.0, u, f(0.0, u), h, tol, stats), tol, stats

    def test_constant_state_is_accepted_unchanged(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        u = np.full(2, 1.5)
        (h, u_new, span, k, h_next), _, stats = self.accept(k2_kernel, u, 0.25, cfg)
        assert h == 0.25 and span == (1.5, 1.5)
        np.testing.assert_array_equal(u_new, u)
        np.testing.assert_array_equal(k, 0.0)  # so the error estimate is zero
        assert h_next == flow._GROW * h  # a zero error grows the step by the most allowed
        assert (stats.accepted, stats.rejected) == (1, 0)

    def test_accepted_error_within_tolerance(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        (h, _, _, k, h_next), tol, stats = self.accept(k2_kernel, np.array([1.0, 0.5]), 0.1, cfg)
        assert 0.0 < h <= 0.1 and stats.accepted == 1
        assert np.max(np.abs(h * (flow._DP_E @ k))) <= tol
        assert h_next >= flow._SAFETY * h  # an error within tol shrinks no further

    @pytest.mark.parametrize("p, q", [(1.5, 0.5), (2.0, 2.0), (3.0, 1.5)])
    def test_last_stage_is_at_the_accepted_state(self, p, q):
        # FSAL: the last stage of an accepted trial is the derivative at its
        # new state, evaluated there once, and the next step's first stage
        kern = fg.build_kernel(make_random_graph(4, n=8), 0.4)
        u0 = np.random.default_rng(4).uniform(0.5, 2.0, kern.n)
        cfg = fg.FlowConfig(s=0.4, p=p, q=q, T=1.0, dt_out=0.5)
        calls, steps = [], []

        def f(t, u):
            calls.append((t, u.copy()))
            return fg.rhs_direct(kern, u, p, q)

        _integrate(f, u0, cfg, kern.graph, steps)
        (_, _, _, k), (t_new, _, u_new, k_next) = steps[:2]
        assert 0.0 < t_new < cfg.dt_out  # the first step is not clamped
        at_end = [u for t, u in calls if t == t_new]
        assert len(at_end) == 2  # stages 5 and 6 of the accepted trial
        np.testing.assert_array_equal(at_end[-1], u_new)
        np.testing.assert_array_equal(k[6], fg.rhs_direct(kern, u_new, p, q))
        np.testing.assert_array_equal(k_next[0], k[6])

    def test_underflow_raised(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=0.5, T=1.0, dt_out=0.5)  # samples at 0, 0.5, 1

        calls = []

        def always_negative(t, u):
            if calls:
                raise fg.NonPositiveState("forced")
            calls.append(t)
            return np.zeros_like(u)

        with pytest.raises(fg.StepSizeUnderflow):
            _integrate(always_negative, np.array([1.0, 2.0]), cfg, k2_kernel.graph)


class TestEvolveDirect:
    def test_constant_initial_datum_is_stationary(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=2.0)
        traj = fg.evolve_direct(k2_kernel, np.full(2, 1.2), cfg)
        np.testing.assert_allclose(traj.values, 1.2, atol=1e-12)

    def test_against_fine_step_reference_nonlinear(self, k2_kernel):
        u0 = np.array([1.0, 0.4])
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=0.1)
        traj = fg.evolve_direct(k2_kernel, u0, cfg)
        ref = reference_solve(k2_kernel, u0, 2.0, 0.1, 1e-6)
        assert np.max(np.abs(traj.final - ref)) <= 10.0 * (cfg.atol + cfg.rtol * 1.0)

    def test_tolerance_controls_global_error(self, k2_kernel):
        u0 = np.array([1.8, 0.3])
        # coarse output grid so the error controller, not the grid, sets the step
        ref = fg.evolve_direct(
            k2_kernel,
            u0,
            fg.FlowConfig(
                s=0.5, p=2.0, q=2.0, T=1.0, dt_out=0.5, atol=1e-13, rtol=1e-13
            ),
        ).values
        errs = []
        for tol in (1e-4, 1e-5, 1e-6, 1e-7, 1e-8):
            traj = fg.evolve_direct(
                k2_kernel,
                u0,
                fg.FlowConfig(
                    s=0.5, p=2.0, q=2.0, T=1.0, dt_out=0.5, atol=tol, rtol=tol
                ),
            )
            errs.append(np.max(np.abs(traj.values - ref)))
            assert errs[-1] <= 100.0 * tol
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_max_principle_random_instances(self):
        for seed in range(4):
            g = make_random_graph(seed, n=6)
            kern = fg.build_kernel(g, 0.3 + 0.15 * seed)
            u0 = np.random.default_rng(seed).uniform(0.5, 2.0, g.n)
            cfg = fg.FlowConfig(s=kern.s, p=1.5 + 0.5 * seed, q=0.5 + 0.5 * seed, T=2.0)
            traj = fg.evolve_direct(kern, u0, cfg)
            assert traj.values.min() >= u0.min() - 1e-9
            assert traj.values.max() <= u0.max() + 1e-9

    def test_mass_conserved(self, k5_kernel):
        u0 = np.random.default_rng(3).uniform(0.5, 2.0, 5)
        for q in (0.5, 1.0, 2.0):
            cfg = fg.FlowConfig(s=0.5, p=2.5, q=q, T=1.0)
            traj = fg.evolve_direct(k5_kernel, u0, cfg)
            m0 = fg.mass(k5_kernel.graph, u0, q)
            drifts = [abs(fg.mass(k5_kernel.graph, u, q) - m0) for u in traj.values]
            assert max(drifts) <= 1e-8 * m0

    def test_outcome_does_not_depend_on_the_horizon(self):
        # at p near 1 the flow reaches its constant in finite time, with steps of
        # ~1e-8 just before the snap; the step floor scales with t, not with T
        graph = fg.graph_from_json(json.dumps(grid_doc(5, 8)))
        kern = fg.build_kernel(graph, 0.98)
        u0 = np.random.default_rng(0).uniform(0.5, 2.0, kern.n)
        short, long = (fg.evolve_direct(kern, u0, fg.FlowConfig(s=0.98, p=1.02, q=0.05, T=T,
                                                                 dt_out=T / 100))
                       for T in (1.0, 1e6))
        work = [(t.stats.accepted, t.stats.rhs_evals, t.stats.snap_time) for t in (short, long)]
        assert work[0] == work[1] and work[0][2] is not None
        np.testing.assert_array_equal(long.final, short.final)

    def test_rejects_nonpositive_initial_datum(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        with pytest.raises(fg.NonPositiveState):
            fg.evolve_direct(k2_kernel, np.array([1.0, -0.5]), cfg)

    def test_refuses_a_config_of_another_s(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.7, p=2.0, q=2.0, T=1.0)
        with pytest.raises(fg.DomainError, match=r"config s = 0.7, but the kernel's s = 0.5"):
            fg.evolve_direct(k2_kernel, np.array([1.0, 0.5]), cfg)


# The linear flow's inputs: K2 (n = 2) with the datum (1.5, 0.5), and random
# graphs of n vertices with a random datum, each at two orders s.
LINEAR_CASES = [(n, s) for n in (2, 40, 200, 500) for s in (0.3, 0.7)]
LINEAR_IDS = [f"{'k2' if n == 2 else f'n{n}'}-s{s}" for n, s in LINEAR_CASES]


@functools.cache
def linear_decomposition(n):
    if n == 2:
        graph = fg.Graph(mu=np.ones(2), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
    else:
        graph = fg.random_connected_graph(np.random.default_rng([1, n]), n,
                                          extra_edge_prob=8 / n)
    return fg.decompose(graph)


@functools.cache
def linear_input(n, s):
    """Kernel and datum of one input, and the closed form of its flow."""
    dec = linear_decomposition(n)
    kern = fg.build_kernel(dec.graph, s, dec)
    u0 = np.array([1.5, 0.5]) if n == 2 else np.random.default_rng(3).uniform(0.5, 2.0, n)
    return kern, u0, LinearFlow(kern, u0)


def linear_config(s, dt_out=1e-2):
    return fg.FlowConfig(s=s, p=2.0, q=1.0, T=2.0, dt_out=dt_out)


@functools.cache
def linear_solve(n, s, dt_out=1e-2):
    kern, u0, _ = linear_input(n, s)
    return fg.evolve_direct(kern, u0, linear_config(s, dt_out))


def sample_error(traj, n, s):
    """sup over the grid of |u - exact|, in units of the step tolerance."""
    _, u0, exact = linear_input(n, s)
    tol = fg.FlowConfig.atol + fg.FlowConfig.rtol * float(np.max(u0))
    return float(np.max(np.abs(traj.values - exact.samples(traj.times)))) / tol


class TestLinearFlow:
    """At p = 2 and q = 1 the flow is linear and has a closed form in the
    eigenbasis; the solvers and the audit are held to it."""

    @pytest.mark.parametrize("s", [0.3, 0.7])
    def test_reference_is_the_k2_closed_form(self, s):
        # with mu = 1 the difference obeys d' = -2 W d, W = 2^{s-1}, and
        # E = W d^2; the mean stays 1
        _, _, exact = linear_input(2, s)
        times = linear_config(s).output_times()
        d = np.exp(-(2.0**s) * times)
        np.testing.assert_allclose(exact.samples(times),
                                   np.column_stack([1.0 + d / 2.0, 1.0 - d / 2.0]),
                                   rtol=0, atol=1e-15)
        np.testing.assert_allclose(exact.energy(times), 2.0 ** (s - 1.0) * d**2, rtol=1e-14)
        assert exact.dissipation(2.0) == pytest.approx(
            (exact.energy([0.0])[0] - exact.energy([2.0])[0]) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("n, s", LINEAR_CASES, ids=LINEAR_IDS)
    def test_direct_samples(self, n, s):
        traj = linear_solve(n, s)
        # most samples come from the continuous extension inside a step
        assert traj.stats.accepted < len(traj.times) - 1
        assert sample_error(traj, n, s) <= 0.5

    @pytest.mark.parametrize("n, s", LINEAR_CASES, ids=LINEAR_IDS)
    def test_picard_samples(self, n, s):
        kern, u0, _ = linear_input(n, s)
        traj, iters, _ = fg.picard_solve(kern, u0, linear_config(s))
        assert iters == 1
        assert sample_error(traj, n, s) <= 0.5

    @pytest.mark.parametrize("entry", [(2, 1), (3, 2), (6, 3), (0, 3)])
    def test_perturbed_continuous_extension_is_caught(self, entry, monkeypatch):
        perturbed = flow._DP_P.copy()
        perturbed[entry] *= 1.0 + 1e-6
        monkeypatch.setattr(flow, "_DP_P", perturbed)
        kern, u0, _ = linear_input(40, 0.7)
        assert sample_error(fg.evolve_direct(kern, u0, linear_config(0.7)), 40, 0.7) > 0.5

    @pytest.mark.parametrize("n, s", LINEAR_CASES, ids=LINEAR_IDS)
    def test_gradient_decay(self, n, s):
        kern, _, exact = linear_input(n, s)
        traj = linear_solve(n, s)
        energy = exact.energy(traj.times)
        computed = fg.dirichlet_p_energy(kern, traj.values, 2.0)
        assert np.max(np.abs(computed - energy)) <= 1e-8 * energy[0]

    @pytest.mark.parametrize("n, s", LINEAR_CASES, ids=LINEAR_IDS)
    def test_trapezoid_dissipation_is_second_order(self, n, s):
        # the integrand decays convexly, so the trapezoid rule overestimates
        # it, by O(dt_out^2)
        kern, _, exact = linear_input(n, s)
        integral = exact.dissipation(2.0)
        excess = []
        for dt_out in (1e-2, 5e-3, 2.5e-3):
            lhs, _, _ = fg.dissipation_check(linear_solve(n, s, dt_out), kern, 2.0, 1.0)
            excess.append((lhs - integral) / integral)
        assert min(excess) > 0.0
        for coarse, fine in zip(excess, excess[1:]):
            assert coarse / fine == pytest.approx(4.0, abs=0.1)


class TestAgainstDop853:
    """The nonlinear flow against scipy's 8th-order pair at near round-off tolerances.

    The p = 1.5 case ends before its steady-state snap: past it DOP853 needs
    about a million right-hand sides to cross the regularized degenerate phase.
    """

    @pytest.mark.parametrize("s, p, q, T, n", [(0.5, 2.0, 1.0, 2.0, 20),
                                               (0.7, 2.5, 1.5, 2.0, 20),
                                               (0.5, 3.0, 2.0, 1.0, 40),
                                               (0.3, 1.5, 0.5, 0.1, 20)])
    def test_direct_samples(self, s, p, q, T, n):
        integrate = pytest.importorskip("scipy.integrate")
        graph = fg.random_connected_graph(np.random.default_rng([1, n]), n,
                                          extra_edge_prob=8 / n)
        kern = fg.build_kernel(graph, s)
        u0 = np.random.default_rng(3).uniform(0.5, 2.0, n)
        cfg = fg.FlowConfig(s=s, p=p, q=q, T=T, dt_out=T / 100)
        traj = fg.evolve_direct(kern, u0, cfg)
        oracle = integrate.solve_ivp(lambda t, u: fg.rhs_direct(kern, u, p, q),
                                     (0.0, T), u0, method="DOP853", t_eval=traj.times,
                                     rtol=1e-13, atol=1e-15)
        assert oracle.success
        tol = cfg.atol + cfg.rtol * float(np.max(u0))
        assert np.max(np.abs(traj.values - oracle.y.T)) <= 10.0 * tol


class TestSolveFrozen:
    """The frozen-coefficient flow a du/dt + (-Delta)_p^s u = 0, through _integrate."""

    @staticmethod
    def frozen(kernel, u0, cfg, a):
        """The frozen flow with coefficient a from u0, as a Picard sweep integrates it."""
        return _integrate(lambda t, u: -fg.frac_p_laplacian(kernel, u, cfg.p) / a, u0, cfg,
                          kernel.graph)

    def test_constant_initial_datum(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        u0 = np.full(2, 1.3)
        traj = self.frozen(k2_kernel, u0, cfg, cfg.q * u0 ** (cfg.q - 1.0))
        np.testing.assert_allclose(traj.values, 1.3, atol=1e-12)

    def test_q1_coefficient_collapse(self, k2_kernel):
        # at q = 1 the coefficient q u0^(q-1) is all ones, so the frozen flow
        # is the direct flow step for step
        u0 = np.array([1.4, 0.6])
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.0, T=1.0)
        frozen = self.frozen(k2_kernel, u0, cfg, cfg.q * u0 ** (cfg.q - 1.0))
        direct = fg.evolve_direct(k2_kernel, u0, cfg)
        np.testing.assert_array_equal(frozen.values, direct.values)

    def test_constant_coefficient_is_time_rescaled_direct_flow(self, k2_kernel):
        # a = q c^{q-1} constant: the flow over [0, T] matches the q'=1
        # direct flow over [0, T/a]
        u0 = np.array([1.4, 0.6])
        q, c = 2.0, 1.5
        a_val = q * c ** (q - 1.0)
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=q, T=1.0)
        frozen = self.frozen(k2_kernel, u0, cfg, a_val)

        cfg1 = fg.FlowConfig(
            s=0.5, p=2.0, q=1.0, T=1.0 / a_val, dt_out=cfg.dt_out / a_val
        )
        direct = fg.evolve_direct(k2_kernel, u0, cfg1)
        np.testing.assert_allclose(frozen.values, direct.values, atol=1e-9)


class TestPicard:
    def test_q1_converges_in_one_iteration(self, k2_kernel):
        u0 = np.array([1.5, 0.7])
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.0, T=1.0)
        traj, iters, history = fg.picard_solve(k2_kernel, u0, cfg)
        assert iters == 1
        direct = fg.evolve_direct(k2_kernel, u0, cfg)
        np.testing.assert_array_equal(traj.values, direct.values)

    def test_refuses_a_config_of_another_s(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.3, p=2.0, q=2.0, T=1.0)
        with pytest.raises(fg.DomainError, match=r"config s = 0.3, but the kernel's s = 0.5"):
            fg.picard_solve(k2_kernel, np.array([1.0, 0.5]), cfg)

    def test_constant_initial_datum_one_iteration(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        traj, iters, _ = fg.picard_solve(k2_kernel, np.full(2, 1.1), cfg)
        assert iters == 1
        np.testing.assert_allclose(traj.values, 1.1, atol=1e-12)

    def test_matches_direct_solver(self, k5_kernel):
        u0 = np.random.default_rng(1).uniform(0.5, 2.0, 5)
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.5, T=1.0)
        picard, iters, history = fg.picard_solve(k5_kernel, u0, cfg)
        direct = fg.evolve_direct(k5_kernel, u0, cfg)
        assert np.max(np.abs(picard.values - direct.values)) <= 1e-5
        assert iters <= 100
        assert all(b < a for a, b in zip(history[2:], history[3:]))

    def test_sweeps_follow_the_step_tolerance(self, k5_kernel):
        # criterion 10's instance: the solve stops once its iteration error is
        # below the step tolerance, so a tighter tolerance takes more sweeps
        # (5, 7 and 9)
        u0 = np.random.default_rng(10).uniform(0.5, 2.0, 5)
        sweeps = [fg.picard_solve(k5_kernel, u0, fg.FlowConfig(s=0.5, p=2.5, q=1.5, T=1.0,
                                                                atol=tol, rtol=tol))[1]
                  for tol in (1e-5, 1e-9, 1e-12)]
        assert sweeps[0] < sweeps[1] < sweeps[2]

    def test_datum_inside_the_snap_band_converges(self, k2_kernel):
        # the first sweep snaps before its first step, so it keeps no step
        # to freeze a coefficient on, and every later sweep would repeat it
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        u0 = np.array([1.1, 1.1 + 1e-9])
        traj, iters, _ = fg.picard_solve(k2_kernel, u0, cfg)
        assert iters == 1 and traj.stats.snap_time == 0.0
        np.testing.assert_array_equal(traj.values[1:], fg.steady_state(k2_kernel.graph, u0, 2.0))

    def test_rhs_count_does_not_depend_on_the_output_grid(self, philox_g40, picard_sweeps):
        # the coefficient is the previous sweep's continuous extension, so
        # no sweep stops at an output time
        kern = fg.build_kernel(philox_g40, 0.7)
        u0 = np.random.Generator(np.random.Philox(3)).uniform(0.5, 2.0, kern.n)
        for dt_out in (5e-3, 1e-3):
            fg.picard_solve(kern, u0, fg.FlowConfig(s=0.7, p=2.5, q=1.5, T=1.0, dt_out=dt_out))
        coarse, fine = ([sweep["rhs_evals"] for sweep in solve] for solve in picard_sweeps)
        assert coarse == fine  # so the totals agree too

    def test_stats_count_every_sweep(self, philox_g40, picard_sweeps):
        kern = fg.build_kernel(philox_g40, 0.7)
        u0 = np.random.Generator(np.random.Philox(3)).uniform(0.5, 2.0, kern.n)
        traj, iters, _ = fg.picard_solve(kern, u0, fg.FlowConfig(s=0.7, p=2.5, q=1.5, T=1.0))
        [sweeps] = picard_sweeps
        assert len(sweeps) == iters > 1
        assert [sweep["accepted"] for sweep in sweeps] == [len(sweep["h"]) for sweep in sweeps]
        for name in SWEEP_COUNTS:
            assert getattr(traj.stats, name) == sum(sweep[name] for sweep in sweeps)
        assert traj.stats.h_min == min(min(sweep["h"]) for sweep in sweeps)
        assert traj.stats.h_max == max(max(sweep["h"]) for sweep in sweeps)
        assert traj.stats.snap_time == sweeps[-1]["snap_time"]

    def test_step_budget_bounds_the_whole_solve(self, k5_kernel, monkeypatch):
        # each of the 9 sweeps takes 17 or 18 steps, 154 in all, and the direct
        # solve 18: a budget of 50 ends the Picard solve only because its
        # sweeps count against it together
        u0 = np.random.default_rng(1).uniform(0.5, 2.0, 5)
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.5, T=1.0)
        monkeypatch.setattr(flow, "MAX_STEPS", 50)
        fg.evolve_direct(k5_kernel, u0, cfg)
        with pytest.raises(fg.StepBudgetExceeded, match="50 steps"):
            fg.picard_solve(k5_kernel, u0, cfg)

    def test_sweep_distance_holds_one_grid(self, k2_kernel, monkeypatch):
        # each sweep's distance to the last is taken from one difference of their
        # output grids, not from that difference and its absolute value
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0, dt_out=1e-5)
        times = cfg.output_times()
        grids = [np.full((len(times), 2), 1.0), np.full((len(times), 2), 1.25)]
        sweeps = iter(grids)

        def sweep(f, u0, config, graph, steps, stats):
            steps.append((0.0, 1.0, u0, np.zeros((7, 2))))
            return fg.Trajectory(times=times, values=next(sweeps), stats=stats)

        monkeypatch.setattr(flow, "_integrate", sweep)
        monkeypatch.setattr(flow, "MAX_SWEEPS", 2)
        tracemalloc.start()
        try:
            with pytest.raises(fg.PicardNotConverged) as exc_info:
                fg.picard_solve(k2_kernel, np.array([1.5, 0.5]), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * grids[0].nbytes
        assert exc_info.value.history == [0.5, 0.25]

    def test_not_converged_raises_with_history(self, k2_kernel, monkeypatch):
        monkeypatch.setattr(flow, "MAX_SWEEPS", 2)
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        with pytest.raises(fg.PicardNotConverged) as exc_info:
            fg.picard_solve(k2_kernel, np.array([1.5, 0.5]), cfg)
        assert len(exc_info.value.history) == 2


class TestSteadyState:
    def test_constant(self, k2):
        assert fg.steady_state(k2, np.full(2, 3.1), 2.0) == pytest.approx(3.1)

    def test_arithmetic_mean_q1(self, k2):
        assert fg.steady_state(k2, np.array([1.0, 3.0]), 1.0) == pytest.approx(2.0)

    def test_quadratic_mean_q2(self, k2):
        assert fg.steady_state(k2, np.array([1.0, 3.0]), 2.0) == pytest.approx(
            np.sqrt(5.0), rel=1e-12
        )

    @pytest.mark.parametrize("q", [0.0, -1.0, float("inf"), float("nan")])
    def test_q_out_of_range(self, k2, q):
        with pytest.raises(fg.ExponentOutOfRange, match="need finite q > 0"):
            fg.steady_state(k2, np.ones(2), q)

    def test_between_extremes(self):
        g = make_random_graph(6)
        u0 = np.random.default_rng(6).uniform(0.5, 2.0, g.n)
        for q in (0.5, 1.0, 2.0):
            c = fg.steady_state(g, u0, q)
            assert u0.min() <= c <= u0.max()

    def test_long_time_convergence(self, k2_kernel):
        u0 = np.array([1.5, 0.5])
        c = fg.steady_state(k2_kernel.graph, u0, 2.0)
        errs = []
        for T in (1.0, 10.0, 100.0):
            cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=T)
            traj = fg.evolve_direct(k2_kernel, u0, cfg)
            errs.append(np.max(np.abs(traj.final - c)))
        assert errs[0] > errs[1] > errs[2] or errs[2] <= 1e-12
        assert errs[2] <= 1e-6


class TestFlowConfig:
    def test_default_output_grid(self):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=4.0)
        times = cfg.output_times()
        assert len(times) == 201
        assert times[1] - times[0] == pytest.approx(0.02)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"s": 1.2, "p": 2.0, "q": 1.0, "T": 1.0},
            {"s": 0.5, "p": 0.9, "q": 1.0, "T": 1.0},
            {"s": 0.5, "p": 2.0, "q": -1.0, "T": 1.0},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 0.0},
            {"s": float("nan"), "p": 2.0, "q": 1.0, "T": 1.0},
            {"s": 0.5, "p": float("nan"), "q": 1.0, "T": 1.0},
            {"s": 0.5, "p": float("inf"), "q": 1.0, "T": 1.0},
            {"s": 0.5, "p": 2.0, "q": float("nan"), "T": 1.0},
            {"s": 0.5, "p": 2.0, "q": float("inf"), "T": 1.0},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": float("nan")},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": float("inf")},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "dt_out": float("nan")},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "atol": float("nan")},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "rtol": float("inf")},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "atol": 0.0},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "rtol": -1e-9},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "dt_out": 0.0},
            {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "dt_out": -0.1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises((fg.ExponentOutOfRange, fg.DomainError)):
            fg.FlowConfig(**kwargs)

    @pytest.mark.parametrize("field", ["s", "p", "q", "T", "dt_out", "atol"])
    def test_non_numeric_parameter_is_domain_error(self, field):
        kwargs = {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, field: "0.5"}
        with pytest.raises(fg.DomainError, match="not a number"):
            fg.FlowConfig(**kwargs)

    @pytest.mark.parametrize("field", ["T", "q", "dt_out"])
    def test_bool_parameter_is_domain_error(self, field):
        kwargs = {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, field: True}
        with pytest.raises(fg.DomainError, match="not a number"):
            fg.FlowConfig(**kwargs)

    def test_output_grid_is_bounded(self):
        # the most intervals whose samples fit MAX_SAMPLE_VALUES on 2 vertices
        limit = flow.MAX_SAMPLE_VALUES // 2 - 1
        assert limit > 1_280_000  # test_08 samples ~1.28M output intervals
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0, dt_out=1.0 / limit)
        assert round(cfg.T / cfg.dt_out) == limit
        for dt_out in (1.0 / (limit + 1), 1e-300):  # finite grids over the cap
            with pytest.raises(fg.DomainError, match="output values"):
                fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0, dt_out=dt_out)
        with pytest.raises(fg.DomainError, match="output intervals"):  # T/dt_out = inf
            fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0, dt_out=5e-324)

    def test_stored_values_are_bounded(self, k2_kernel, monkeypatch):
        # criterion 08's finest grid, 1 280 001 samples of 8 vertices, must fit
        assert flow.MAX_SAMPLE_VALUES >= 1_280_001 * 8
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0, dt_out=0.005)  # 201 samples of 2
        u0 = np.array([1.0, 2.0])
        monkeypatch.setattr(flow, "MAX_SAMPLE_VALUES", 402)
        assert fg.evolve_direct(k2_kernel, u0, cfg).values.shape == (201, 2)
        monkeypatch.setattr(flow, "MAX_SAMPLE_VALUES", 401)
        monkeypatch.setattr(flow, "_integrate", mock.Mock(side_effect=AssertionError))
        for solve in (fg.evolve_direct, fg.picard_solve):
            # the size is checked before u0, in cli._setup's order
            for u in (u0, np.array([1.0, np.nan])):
                with pytest.raises(fg.DomainError, match="402 output values, at most 401"):
                    solve(k2_kernel, u, cfg)


class TestNonFiniteState:
    """A NaN or inf state ends in a typed error within a few seconds."""

    def test_integrate_nan_state_underflows(self, k2):
        # a NaN error estimate used to grow h, which the output grid clamped
        # back, so the loop never ended
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0)
        with wall_clock_limit(10), pytest.raises(fg.StepSizeUnderflow):
            _integrate(lambda t, u: -u, np.array([1.0, np.nan]), cfg, k2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("solver", ["direct", "picard"])
    def test_solvers_reject_nonfinite_u0(self, k2_kernel, solver, bad):
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=2.0, T=1.0)
        u0 = np.array([1.0, bad])
        with wall_clock_limit(10), pytest.raises(fg.DomainError):
            if solver == "direct":
                fg.evolve_direct(k2_kernel, u0, cfg)
            else:
                fg.picard_solve(k2_kernel, u0, cfg)


class TestOverflowingU0:
    """A u0 whose flow overflows a float is refused before any step."""

    @pytest.mark.parametrize("u0, q", OVERFLOWING_U0)
    def test_refused_before_any_step(self, k2_kernel, monkeypatch, u0, q):
        monkeypatch.setattr(flow, "_integrate", mock.Mock(side_effect=AssertionError))
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=q, T=1.0)
        for solve in (fg.evolve_direct, fg.picard_solve):
            with pytest.raises(fg.DomainError, match="overflows a float"):
                solve(k2_kernel, np.array(u0), cfg)
        with pytest.raises(fg.DomainError, match="overflows a float"):
            fg.steady_state(k2_kernel.graph, np.array(u0), q)

    def test_overflowing_total_measure_is_refused(self):
        # mu = 1e308 at both vertices: the kernel is fine, the volume 2e308 is not
        kernel = fg.build_kernel(fg.graph_from_json(json.dumps(DEGENERATE_DOCS["bigmu"])), 0.5)
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0)
        for solve in (fg.evolve_direct, fg.picard_solve):
            with pytest.raises(fg.DomainError, match="overflows a float"):
                solve(kernel, np.ones(2), cfg)
        with pytest.raises(fg.DomainError, match="overflows a float"):
            fg.steady_state(kernel.graph, np.ones(2), 1.0)

    def test_large_u0_that_fits_runs(self, k2_kernel):
        # vol u^(q+1) = 2e300 is finite
        u0 = np.array([1e150, 2e150])
        assert fg.steady_state(k2_kernel.graph, u0, 1.0) == pytest.approx(1.5e150)
        traj = fg.evolve_direct(k2_kernel, u0, fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=0.1))
        assert np.isfinite(traj.values).all()


AUDIT_PARAMS = [(0.3, 1.5, 0.5), (0.5, 2.0, 1.0), (0.7, 2.5, 1.5), (0.5, 3.0, 2.0)]


class TestDenseOutput:
    """Steps follow the error test; samples inside a step are interpolated."""

    @pytest.mark.parametrize("s, p, q", AUDIT_PARAMS)
    def test_matches_steps_clamped_to_the_grid(self, s, p, q):
        for seed in range(3):
            kern = fg.build_kernel(make_random_graph(seed, n=8), s)
            u0 = np.random.default_rng(seed).uniform(0.5, 2.0, kern.n)
            cfg = fg.FlowConfig(s=s, p=p, q=q, T=0.5, dt_out=0.01)
            times = cfg.output_times()
            dense = fg.evolve_direct(kern, u0, cfg)
            # one integration per output interval, each ending on its own
            # horizon; the flow is autonomous, so each may start at t = 0
            clamped, accepted = [u0], 0
            for t0, t1 in zip(times, times[1:]):
                interval = dataclasses.replace(cfg, T=t1 - t0, dt_out=t1 - t0)
                traj = _integrate(lambda t, u: fg.rhs_direct(kern, u, p, q), clamped[-1],
                                  interval, kern.graph)
                clamped.append(traj.final)
                accepted += traj.stats.accepted
            assert dense.stats.accepted < accepted
            bound = 100.0 * (cfg.atol + cfg.rtol * float(np.max(u0)))
            assert np.max(np.abs(dense.values - clamped)) <= bound

    def test_fewer_steps_than_output_intervals(self):
        kern = fg.build_kernel(make_random_graph(4, n=8), 0.5)
        u0 = np.random.default_rng(4).uniform(0.5, 2.0, kern.n)
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.5, T=0.05, dt_out=1e-3)
        traj = fg.evolve_direct(kern, u0, cfg)
        assert len(traj.times) - 1 == 50
        assert traj.stats.accepted < 50
        assert traj.times[-1] == cfg.T

    def test_samples_a_row_block_at_a_time(self):
        # 10^6 samples in 17 steps: beyond its times and samples the solve holds one
        # row block's temporaries, ~17 floats a sample, not those of a whole step
        g = fg.Graph(mu=np.array([1.0, 2.0]), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))
        kern = fg.build_kernel(g, 0.5)
        cfg = fg.FlowConfig(s=0.5, p=3.0, q=1.0, T=1.0, dt_out=1e-6)
        tracemalloc.start()
        try:
            traj = fg.evolve_direct(kern, np.array([0.5, 2.0]), cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.stats.accepted == 17
        assert peak < traj.times.nbytes + traj.values.nbytes + 2**20

    @staticmethod
    def sine_rate(t, u):
        # u(t) = u0 + sin(2 pi t) is back at u0 at every sample t = 0, 0.5, 1,
        # but its accepted states leave the band [2, 3] in between
        return np.full_like(u, 2.0 * np.pi * np.cos(2.0 * np.pi * t))

    def test_excursion_between_samples_is_caught(self, k2):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0, dt_out=0.5)
        with pytest.raises(fg.BoundViolation, match=r"trajectory leaves \[2, 3\] by "):
            _integrate(self.sine_rate, np.array([2.0, 3.0]), cfg, k2)

    def test_band_ends_a_long_run_at_once(self, k2):
        # the band is checked as each step is made, so a run that leaves it
        # stops within its first few steps, not at T or at the step budget
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1000.0, dt_out=0.5)
        calls = []

        def f(t, u):
            calls.append(t)
            return self.sine_rate(t, u)

        with wall_clock_limit(10), pytest.raises(fg.BoundViolation):
            _integrate(f, np.array([2.0, 3.0]), cfg, k2)
        assert max(calls) < 1.0


class TestStepStats:
    def test_counts_add_up(self):
        kern = fg.build_kernel(make_random_graph(6, n=6), 0.5)
        u0 = np.random.default_rng(6).uniform(0.5, 2.0, kern.n)
        cfg = fg.FlowConfig(s=0.5, p=2.5, q=1.5, T=1.0)
        st = fg.evolve_direct(kern, u0, cfg).stats
        assert st.rejected == st.rejected_error + st.rejected_positivity
        assert st.rejected_positivity == 0
        # one evaluation at the start and one probe for the first step size,
        # then six per attempt (FSAL)
        assert st.rhs_evals == 2 + 6 * (st.accepted + st.rejected)
        assert 0.0 < st.h_min <= st.h_max <= cfg.T
        assert st.snap_time is st.snap_spread is st.snap_tolerance is None
        telemetry = st.telemetry()
        assert telemetry["rhs_evaluations"] == st.rhs_evals
        assert telemetry["steps_rejected_error"] == st.rejected_error

    def test_positivity_rejections_counted(self, k2):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0)
        calls = []

        def f(t, u):  # the first stage of the first attempt (after the probe) raises
            calls.append(t)
            if len(calls) == 3:
                raise fg.NonPositiveState("forced")
            return 1.5 - u  # stays in the band [1, 2]

        st = _integrate(f, np.array([1.0, 2.0]), cfg, k2).stats
        assert st.rejected_positivity == 1
        assert st.rejected == st.rejected_error + 1
        assert st.rhs_evals == len(calls)

    def test_constant_datum_spends_no_probe(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        assert fg.evolve_direct(k2_kernel, np.full(2, 1.2), cfg).stats.rhs_evals == 1

    def test_snap_time_of_constant_datum(self, k2_kernel):
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=1.0)
        st = fg.evolve_direct(k2_kernel, np.full(2, 1.2), cfg).stats
        assert (st.snap_time, st.snap_spread) == (0.0, 0.0)
        assert st.snap_tolerance == cfg.atol + cfg.rtol * 1.2
        assert st.telemetry()["h_min"] is None and st.accepted == 0


class TestInitialStep:
    """The two-probe starting step (Hairer-Norsett-Wanner I, II.4)."""

    @pytest.mark.parametrize("s, p, q, drift", [
        (0.3, 1.5, 0.5, 1e-4), (0.5, 2.0, 1.0, 1e-8), (0.7, 2.5, 1.5, 1e-8),
        (0.5, 3.0, 2.0, 1e-8)])
    def test_datum_with_a_tiny_component(self, s, p, q, drift):
        # every solve returns; at p = 3 the start takes steps down to 3e-19,
        # which the step floor 1e-14 max(|t|, h) admits near t = 0.  The
        # relative mass drift was 2.2e-5 at q = 0.5, where u^q amplifies the
        # error of the tiny component, and at most 1.5e-9 elsewhere
        kern = fg.build_kernel(make_random_graph(4, n=8), s)
        u0 = np.random.default_rng(4).uniform(0.5, 2.0, kern.n)
        u0[3] = 1e-12
        cfg = fg.FlowConfig(s=s, p=p, q=q, T=0.1)
        with wall_clock_limit(20):
            traj = fg.evolve_direct(kern, u0, cfg)
        assert u0.min() <= traj.values.min() and traj.values.max() <= u0.max()
        mass0 = fg.mass(kern.graph, u0, q)
        assert np.max(np.abs(fg.mass(kern.graph, traj.values, q) - mass0)) <= drift * mass0

    def test_probe_that_loses_positivity_is_not_raised(self, k2):
        # u' = -1 from u0 = (1, 1e-12): the Euler probe of size 0.01 leaves
        # the positive cone, and the solution itself reaches 0 at t = 1e-12
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0)
        probes = []

        def f(t, u):
            if np.min(u) <= 0.0:
                probes.append(t)
                raise fg.NonPositiveState("forced")
            return np.full_like(u, -1.0)

        u0 = np.array([1.0, 1e-12])
        h = flow._initial_step(f, 0.0, u0, f(0.0, u0), cfg._step_tolerance(u0.max()), cfg.T)
        assert h == pytest.approx(0.01, rel=1e-12)
        assert probes == [h]
        with wall_clock_limit(20), pytest.raises(fg.StepSizeUnderflow):
            _integrate(f, u0, cfg, k2)

    def test_infinite_rate_underflows(self, k2):
        # an infinite first rate gives a zero starting step, which the
        # controller refuses
        cfg = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=1.0)

        def f(t, u):
            return np.full_like(u, -np.inf)

        u0 = np.array([1.0, 2.0])
        tol = cfg._step_tolerance(u0.max())
        assert flow._initial_step(f, 0.0, u0, f(0.0, u0), tol, cfg.T) == 0.0
        with wall_clock_limit(10), pytest.raises(fg.StepSizeUnderflow):
            _integrate(f, u0, cfg, k2)

    @pytest.mark.parametrize("s, p, q", AUDIT_PARAMS)
    def test_no_ramp(self, s, p, q, monkeypatch):
        # the first accepted step is sized so that the controller does not
        # grow it by its full factor 5 at once
        steps, accept = [], flow._accept_step

        def recording(*args):
            result = accept(*args)
            steps.append(result[0])
            return result

        monkeypatch.setattr(flow, "_accept_step", recording)
        kern = fg.build_kernel(make_random_graph(5, n=8), s)
        u0 = np.random.default_rng(5).uniform(0.5, 2.0, kern.n)
        fg.evolve_direct(kern, u0, fg.FlowConfig(s=s, p=p, q=q, T=0.5))
        assert steps[0] / 5.0 < steps[1] < 5.0 * steps[0]
