import tracemalloc
from unittest import mock

import numpy as np
import pytest

import fracgraph as fg
from conftest import make_random_graph
from fracgraph import cli, diagnostics, operators
from fracgraph.flow import StepStats, Trajectory


def run_flow(kernel, u0, **kwargs):
    cfg = fg.FlowConfig(**kwargs)
    return fg.evolve_direct(kernel, np.asarray(u0, dtype=float), cfg), cfg


class TestMass:
    def test_unit_constant(self, k2):
        assert fg.mass(k2, np.ones(2), 3.0) == 2.0

    def test_weighted(self):
        g = fg.Graph(
            mu=np.array([2.0, 3.0]), weights=np.array([[0.0, 1.0], [1.0, 0.0]])
        )
        # 2*1^2 + 3*2^2 = 14
        assert fg.mass(g, np.array([1.0, 2.0]), 2.0) == 14.0

    def test_rejects_nonpositive_for_fractional_q(self, k2):
        with pytest.raises(fg.NonPositiveState):
            fg.mass(k2, np.array([1.0, 0.0]), 0.5)

    def test_stack_rows_match_single_calls(self, k5):
        stack = np.random.default_rng(1).uniform(0.5, 2.0, (7, 5))
        masses = fg.mass(k5, stack, 1.5)
        assert masses.shape == (7,)
        assert masses.tolist() == [fg.mass(k5, u, 1.5) for u in stack]

    def test_long_stack_takes_bounded_memory(self, k5):
        # the masses go a row block at a time, not through one list of every value
        stack = np.random.default_rng(2).uniform(0.5, 2.0, (100_000, 5))
        tracemalloc.start()
        try:
            masses = fg.mass(k5, stack, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * stack.nbytes
        assert masses[-1] == fg.mass(k5, stack[-1], 1.5)

    def test_conserved_along_flow(self, k5_kernel):
        u0 = np.random.default_rng(0).uniform(0.5, 2.0, 5)
        traj, _ = run_flow(k5_kernel, u0, s=0.5, p=2.5, q=1.5, T=1.0)
        m0 = fg.mass(k5_kernel.graph, u0, 1.5)
        for u in traj.values:
            assert abs(fg.mass(k5_kernel.graph, u, 1.5) - m0) <= 1e-8 * m0


class TestEnergyIdentity:
    def test_constant_trajectory_zero_residual(self, k2_kernel):
        traj, _ = run_flow(k2_kernel, [1.3, 1.3], s=0.5, p=2.0, q=2.0, T=1.0)
        assert fg.energy_identity_residual(traj, k2_kernel, 2.0, 2.0) <= 1e-13

    def test_small_on_resolved_flow(self, k5_kernel):
        u0 = np.random.default_rng(1).uniform(0.5, 2.0, 5)
        traj, _ = run_flow(
            k5_kernel, u0, s=0.5, p=2.0, q=2.0, T=1.0, dt_out=1e-3
        )
        assert fg.energy_identity_residual(traj, k5_kernel, 2.0, 2.0) <= 1e-4

    def test_second_order_in_output_step(self, k5_kernel):
        # residual comes from the trapezoid rule, so halving dt_out should
        # shrink it by roughly four; require a log-log slope of at least 1.8
        u0 = np.random.default_rng(2).uniform(0.5, 2.0, 5)
        dts = np.array([4e-3, 2e-3, 1e-3])
        res = []
        for dt in dts:
            traj, _ = run_flow(
                k5_kernel, u0, s=0.5, p=2.0, q=2.0, T=1.0, dt_out=float(dt)
            )
            res.append(fg.energy_identity_residual(traj, k5_kernel, 2.0, 2.0))
        slope = np.polyfit(np.log(dts), np.log(res), 1)[0]
        assert slope >= 1.8


class TestDissipation:
    def test_constant_trajectory(self, k2_kernel):
        traj, _ = run_flow(k2_kernel, [2.0, 2.0], s=0.5, p=2.0, q=1.0, T=1.0)
        lhs, rhs, ok = fg.dissipation_check(traj, k2_kernel, 2.0, 1.0)
        assert lhs == 0.0
        assert rhs == 0.0
        assert ok

    def test_satisfied_on_resolved_flow(self, k5_kernel):
        u0 = np.random.default_rng(3).uniform(0.5, 2.0, 5)
        traj, _ = run_flow(
            k5_kernel, u0, s=0.5, p=2.0, q=1.0, T=5.0, dt_out=1e-3
        )
        lhs, rhs, ok = fg.dissipation_check(traj, k5_kernel, 2.0, 1.0)
        assert ok
        assert lhs >= 0.0
        assert rhs > 0.0

    def test_lhs_nondecreasing_in_horizon(self, k5_kernel):
        u0 = np.random.default_rng(4).uniform(0.5, 2.0, 5)
        lhss = []
        for T in (0.5, 1.0, 2.0):
            traj, _ = run_flow(
                k5_kernel, u0, s=0.5, p=2.0, q=1.0, T=T, dt_out=1e-3
            )
            lhss.append(fg.dissipation_check(traj, k5_kernel, 2.0, 1.0)[0])
        assert lhss[0] <= lhss[1] <= lhss[2]


class TestMaxPrinciple:
    def test_zero_for_flow(self, k5_kernel):
        u0 = np.random.default_rng(5).uniform(0.5, 2.0, 5)
        traj, _ = run_flow(k5_kernel, u0, s=0.5, p=2.5, q=1.5, T=2.0)
        assert fg.max_principle_check(traj) <= 1e-9

    def test_detects_excursion(self, k2_kernel):
        traj, _ = run_flow(k2_kernel, [1.0, 2.0], s=0.5, p=2.0, q=1.0, T=1.0)
        values = traj.values.copy()
        values[3, 0] = 2.5
        bad = Trajectory(times=traj.times, values=values, stats=traj.stats)
        assert fg.max_principle_check(bad) == pytest.approx(0.5)

    def test_explicit_reference_band(self):
        times = np.linspace(0.0, 1.0, 3)
        values = np.array([[1.0, 2.0], [1.5, 1.5], [1.2, 1.8]])
        traj = Trajectory(times=times, values=values, stats=StepStats(accepted=2))
        assert fg.max_principle_check(traj, u0=np.array([0.0, 3.0])) == 0.0
        assert fg.max_principle_check(traj, u0=np.array([1.1, 1.9])) == pytest.approx(
            0.1
        )


class TestGradientDecay:
    def test_nonincreasing_p2(self, k5_kernel):
        u0 = np.random.default_rng(6).uniform(0.5, 2.0, 5)
        traj, _ = run_flow(k5_kernel, u0, s=0.5, p=2.0, q=1.0, T=5.0)
        energies = fg.dirichlet_p_energy(k5_kernel, traj.values, 2.0)
        assert energies[-1] <= energies[0] * (1.0 + 1e-8) + 1e-12
        assert energies[-1] <= 1e-4 * energies[0]

    def test_final_derivative_small_after_decay(self, k2_kernel):
        traj, _ = run_flow(k2_kernel, [1.5, 0.5], s=0.5, p=2.0, q=1.0, T=30.0)
        assert fg.time_derivative_sup(traj, k2_kernel, 2.0, 1.0) <= 1e-9


class TestBlocks:
    def test_blocks_match_a_loop_over_samples(self, k5_kernel, monkeypatch, tmp_path):
        u0 = np.random.default_rng(8).uniform(0.5, 2.0, 5)
        p, q = 2.5, 1.5
        graph_path = tmp_path / "k5.json"
        graph_path.write_text(fg.graph_to_json(k5_kernel.graph))
        flags = ["--s", "0.5", "--p", "2.5", "--q", "1.5", "--T", "1", "--dt-out", "0.1",
                 "--u0-random", "0.5", "2"]

        def trajectory_csv(name):
            out = tmp_path / name
            assert cli.main(["evolve", str(graph_path), *flags, "--output-dir", str(out)]) == 0
            return (out / "trajectory.csv").read_bytes()

        unblocked = trajectory_csv("unblocked")
        # blocks of 4 rows over 11 samples: two full blocks and a short one
        monkeypatch.setattr(operators, "_BLOCK_ROWS", 4)
        assert trajectory_csv("blocked") == unblocked
        traj, _ = run_flow(k5_kernel, u0, s=0.5, p=p, q=q, T=1.0, dt_out=0.1)
        assert fg.mass(k5_kernel.graph, traj.values, q).tolist() == [
            fg.mass(k5_kernel.graph, u, q) for u in traj.values]
        energies = [fg.dirichlet_p_energy(k5_kernel, u, p) for u in traj.values]
        integrand = [fg.integrate(k5_kernel.graph,
                                  u ** (q - 1.0) * fg.rhs_direct(k5_kernel, u, p, q, 1e-12) ** 2)
                     for u in traj.values]
        np.testing.assert_allclose(fg.dirichlet_p_energy(k5_kernel, traj.values, p), energies,
                                   rtol=1e-12)
        lhs, _, _ = fg.dissipation_check(traj, k5_kernel, p, q)
        assert lhs == pytest.approx(np.trapezoid(integrand, traj.times), rel=1e-12)


class TestBuildReport:
    def test_full_report_on_flow(self, k5_kernel):
        u0 = np.random.default_rng(7).uniform(0.5, 2.0, 5)
        traj, cfg = run_flow(k5_kernel, u0, s=0.5, p=2.0, q=2.0, T=30.0)
        report = fg.build_report(traj, k5_kernel, cfg)
        assert {row.name: row.passed for row in report.check_table}["dissipation_bound"]
        assert report.bound_violation <= 1e-9
        assert report.mass_drift <= 1e-8 * fg.mass(k5_kernel.graph, u0, 2.0)
        assert report.final_gradient_energy <= report.initial_gradient_energy
        assert report.steady_state_error <= 1e-5
        assert report.energy_identity_residual <= 1e-2

    def test_one_pass_per_operator(self, k5_kernel, monkeypatch):
        # the final du/dt and the initial energy come from the per-sample passes,
        # and equal the separate evaluations of the public checks
        u0 = np.random.default_rng(8).uniform(0.5, 2.0, 5)
        traj, cfg = run_flow(k5_kernel, u0, s=0.5, p=2.5, q=1.5, T=1.0, dt_out=0.1)
        spies = {name: mock.Mock(wraps=getattr(diagnostics, name))
                 for name in ("rhs_direct", "dirichlet_p_energy", "mass")}
        for name, spy in spies.items():
            monkeypatch.setattr(diagnostics, name, spy)
        report = fg.build_report(traj, k5_kernel, cfg)
        assert [spy.call_count for spy in spies.values()] == [1, 1, 1]
        monkeypatch.undo()
        lhs, rhs, _ = fg.dissipation_check(traj, k5_kernel, 2.5, 1.5)
        assert report.dissipation_lhs == lhs
        assert report.dissipation_rhs == pytest.approx(rhs, rel=1e-13)
        assert report.final_time_derivative_sup == pytest.approx(
            fg.time_derivative_sup(traj, k5_kernel, 2.5, 1.5), rel=1e-13)

    def test_check_table_rows(self, k5_kernel):
        u0 = np.random.default_rng(8).uniform(0.5, 2.0, 5)
        traj, cfg = run_flow(k5_kernel, u0, s=0.5, p=2.5, q=1.5, T=1.0, dt_out=0.1)
        report = fg.build_report(traj, k5_kernel, cfg)
        mass0 = fg.mass(k5_kernel.graph, u0, 1.5)
        slack = 1e-6 + 10.0 * 0.1**2
        assert report.check_table == (
            diagnostics.Check("max_principle", report.bound_violation, 1e-9),
            diagnostics.Check("mass_conservation", report.mass_drift, 1e-8 * mass0),
            diagnostics.Check("dissipation_bound", report.dissipation_lhs,
                              report.dissipation_rhs + slack * (report.dissipation_rhs + 1.0)),
            diagnostics.Check("energy_identity", report.energy_identity_residual,
                              max(1e-8, 10.0 * 0.1**2)),
            diagnostics.Check("gradient_decay", report.final_gradient_energy,
                              report.initial_gradient_energy * (1 + 1e-8) + 1e-12),
        )
        _, _, ok = fg.dissipation_check(traj, k5_kernel, 2.5, 1.5, slack)
        assert report.check_table[2].passed == ok

    # ROADMAP item 1: the step controller bounds the error of u, and u^q
    # amplifies it, so these correct solves drift past the row's 1e-8 relative
    # threshold; integrating w = u^q would hold the mass to round-off
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_mass_row_at_loose_tolerances(self):
        # measured 5.018e-05 against a threshold of 8.064e-06
        graph = fg.random_connected_graph(np.random.default_rng([1, 200]), 200,
                                          extra_edge_prob=8 / 200)
        kern = fg.build_kernel(graph, 0.5)
        u0 = np.random.Generator(np.random.Philox(3)).uniform(0.5, 2.0, kern.n)
        traj, cfg = run_flow(kern, u0, s=0.5, p=2.5, q=1.5, T=1.0, dt_out=1e-2,
                             atol=1e-5, rtol=1e-5)
        report = fg.build_report(traj, kern, cfg)
        assert {row.name: row.passed for row in report.check_table}["mass_conservation"]

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1")
    def test_mass_row_with_a_tiny_component(self):
        # measured 6.106e-04 against a threshold of 2.834e-07: at u = 1e-12,
        # q u^(q-1) is 5e5
        kern = fg.build_kernel(make_random_graph(4, n=8), 0.3)
        u0 = np.random.default_rng(4).uniform(0.5, 2.0, kern.n)
        u0[3] = 1e-12
        traj, cfg = run_flow(kern, u0, s=0.3, p=1.5, q=0.5, T=0.1)
        report = fg.build_report(traj, kern, cfg)
        assert {row.name: row.passed for row in report.check_table}["mass_conservation"]

    def test_refuses_a_config_of_another_s(self, k5_kernel):
        traj, cfg = run_flow(k5_kernel, np.full(5, 1.5), s=0.5, p=2.0, q=1.0, T=0.1)
        with pytest.raises(fg.DomainError, match=r"config s = 0.7, but the kernel's s = 0.5"):
            fg.build_report(traj, k5_kernel, fg.FlowConfig(s=0.7, p=2.0, q=1.0, T=0.1))

    def test_check_passes_up_to_its_threshold(self):
        assert diagnostics.Check("c", 1.0, 1.0).passed
        assert not diagnostics.Check("c", 1.0 + 2**-52, 1.0).passed
        assert not diagnostics.Check("c", float("nan"), 1.0).passed
