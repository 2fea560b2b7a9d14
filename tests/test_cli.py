import argparse
import csv
import importlib.util
import json
import math
import re
import sys
import tracemalloc
import warnings
from dataclasses import fields
from itertools import product
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fracgraph as fg
from fracgraph import cli, flow, graph
from fracgraph.cli import main
from conftest import DEGENERATE_DOCS, OVERFLOWING_U0, grid_doc, wall_clock_limit

K2_DOC = {
    "vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 1.0}],
    "edges": [{"u": "a", "v": "b", "w": 1.0}],
}

# a stiff edge (1e6) next to a slow one (1e-6): the explicit pair's stability
# limit holds the step near 2.5e-6 however long the horizon
PATH3_DOC = {
    "vertices": [{"id": v, "mu": 1.0} for v in "abc"],
    "edges": [{"u": "a", "v": "b", "w": 1e6}, {"u": "b", "v": "c", "w": 1e-6}],
}

K5_DOC = {
    "vertices": [{"id": f"v{i}", "mu": 1.0} for i in range(5)],
    "edges": [
        {"u": f"v{i}", "v": f"v{j}", "w": 1.0}
        for i in range(5)
        for j in range(i + 1, 5)
    ],
}


@pytest.fixture
def k2_path(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(K2_DOC))
    return str(path)


@pytest.fixture
def k5_path(tmp_path):
    path = tmp_path / "k5.json"
    path.write_text(json.dumps(K5_DOC))
    return str(path)


@pytest.fixture
def serial_pools(monkeypatch):
    """The sweep's pools, each running its map in this process; starts no process."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            self.max_workers, self.shares = max_workers, []
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            pass

        def map(self, fn, shares):
            self.shares = list(shares)
            return map(fn, self.shares)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    return pools


def read_csv_matrix(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [row.split(",") for row in lines[1:]]


class TestKernelCommand:
    def test_k2_golden_value(self, k2_path, tmp_path):
        out = tmp_path / "out"
        assert main(["kernel", k2_path, "--s", "0.5", "--output-dir", str(out)]) == 0
        header, rows = read_csv_matrix(out / "kernel.csv")
        assert header == ["", "a", "b"]
        assert rows[0][2] == "0.70710678118654724"
        assert rows[0][1] == "0"
        report = json.loads((out / "kernel_report.json").read_text())
        assert list(report) == ["s", "min_offdiagonal", "oracle_max_relative_deviation"]
        assert report["oracle_max_relative_deviation"] <= 1e-6
        assert report["min_offdiagonal"] > 0
        eigs = json.loads((out / "eigenvalues.json").read_text())["eigenvalues"]
        np.testing.assert_allclose(eigs, [0.0, 2.0], atol=1e-12)

    def test_kernel_csv_matches_per_value_formatting(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(fg.graph_to_json(
            fg.random_connected_graph(np.random.default_rng(5), 60)))
        out = tmp_path / "out"
        assert main(["kernel", str(path), "--s", "0.4", "--output-dir", str(out)]) == 0
        graph = fg.graph_from_json(path.read_text())
        w = fg.kernel_weights(fg.decompose(graph), 0.4)
        # the oracle formats each value on its own
        lines = ["," + ",".join(graph.labels)] + [
            lab + "," + ",".join("%.17g" % v for v in w[i])
            for i, lab in enumerate(graph.labels)]
        assert (out / "kernel.csv").read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("ids", [["a,b", 'c"d', "e"], ["a\r\nb", "c\nd", "e\r"]],
                             ids=["comma-quote", "line-breaks"])
    def test_kernel_csv_quotes_ids(self, tmp_path, ids):
        doc = {"vertices": [{"id": v, "mu": 1.0} for v in ids],
               "edges": [{"u": ids[0], "v": ids[1], "w": 1.0},
                         {"u": ids[1], "v": ids[2], "w": 1.0}]}
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["kernel", str(path), "--s", "0.5", "--output-dir", str(out)]) == 0
        with (out / "kernel.csv").open(newline="") as file:
            rows = list(csv.reader(file))
        assert [len(row) for row in rows] == [4] * 4
        assert rows[0] == ["", *ids] and [row[0] for row in rows[1:]] == ids
        w = fg.build_kernel(fg.graph_from_json(path.read_text()), 0.5).w
        np.testing.assert_array_equal([[float(v) for v in row[1:]] for row in rows[1:]], w)

    @pytest.mark.parametrize("weight, code", [(1e20, 0), (1e160, 1)])
    def test_report_on_a_badly_scaled_path_is_strict_json(self, tmp_path, weight, code):
        # eigenvalues 2e20 and 2e160 lie far outside the quadrature's unshifted grid;
        # at 1e160 two kernel entries are 0, which fails positivity
        doc = {**PATH3_DOC, "edges": [{"u": "a", "v": "b", "w": weight},
                                      {"u": "b", "v": "c", "w": 1.0}]}
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["kernel", str(path), "--s", "0.5", "--output-dir", str(out)]) == code

        def reject(name):
            raise ValueError(f"{name} is not JSON")

        json.loads((out / "eigenvalues.json").read_text(), parse_constant=reject)
        report = json.loads((out / "kernel_report.json").read_text(), parse_constant=reject)
        assert report["oracle_max_relative_deviation"] <= 1e-12

    def test_failed_oracle_leaves_no_directory(self, tmp_path, capsys):
        # the eigenvalue 2e301 is past the quadrature's reach at s = 0.99; the kernel
        # itself passes, so the fault comes after it and before any output
        doc = {**PATH3_DOC, "edges": [{"u": "a", "v": "b", "w": 1e301},
                                      {"u": "b", "v": "c", "w": 1.0}]}
        path = tmp_path / "path.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["kernel", str(path), "--s", "0.99", "--output-dir", str(out)]) == 1
        assert capsys.readouterr() == (
            "", "error: QuadratureNotConverged: lam=2e+301, s=0.99\n")
        assert not out.exists()

    def test_oracle_deviation_needs_no_offdiagonal_copies(self, tmp_path, monkeypatch):
        # both kernels are an exact 0 on the diagonal, so the deviation over the whole
        # matrix is the off-diagonal one, and the report needs no off-diagonal copy: its
        # temporaries, the difference, the scale made absolute in place and boolean masks,
        # peak at 2.33 kernel matrices (3.13 with an absolute copy of the scale, 4.3 with
        # boolean-indexed copies of the off-diagonal entries)
        g = fg.random_connected_graph(np.random.default_rng(6), 300)
        kernel = fg.build_kernel(g, 0.5)
        w, oracle = kernel.w, fg.kernel_weights_oracle(kernel.dec, 0.5)
        monkeypatch.setattr(cli, "_load_graph", lambda path: g)
        monkeypatch.setattr(cli, "build_kernel", lambda graph, s: kernel)
        monkeypatch.setattr(cli, "kernel_weights_oracle", lambda dec, s: oracle)
        monkeypatch.setattr(cli, "_write_table", lambda *args: None)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["kernel", "g.json", "--s", "0.5", "--output-dir", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * w.nbytes
        # the report the off-diagonal copies gave, byte for byte
        offdiag = ~np.eye(g.n, dtype=bool)
        diff = np.abs(w - oracle)[offdiag]
        scale = np.where(w != 0, np.abs(w), np.abs(oracle))[offdiag]
        dev = float(np.max(np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)))
        report = {"s": 0.5, "min_offdiagonal": float(np.min(w[offdiag])),
                  "oracle_max_relative_deviation": dev}
        assert (out / "kernel_report.json").read_text() == json.dumps(report, indent=2) + "\n"

    def test_s_out_of_range_is_usage_error(self, k2_path, tmp_path):
        code = main(
            ["kernel", k2_path, "--s", "1.5", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_missing_graph_file(self, tmp_path):
        code = main(
            ["kernel", str(tmp_path / "nope.json"), "--s", "0.5",
             "--output-dir", str(tmp_path / "o")]
        )
        assert code == 2

    def test_positivity_violation_is_a_failed_check(self, k2_path, tmp_path, capsys,
                                                    monkeypatch):
        def violating(graph, s):
            raise fg.PositivityViolation("forced")

        monkeypatch.setattr(cli, "build_kernel", violating)
        code = main(["kernel", k2_path, "--s", "0.5", "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: PositivityViolation: forced\n"
        assert not (tmp_path / "o").exists()

    def test_malformed_graph_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["kernel", str(bad), "--s", "0.5",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2


    @pytest.mark.parametrize(
        "doc",
        [{**K2_DOC, "edges": [5]},
         {**K2_DOC, "vertices": [{"id": "a", "mu": [1]}, {"id": "b", "mu": 1.0}]},
         {**K2_DOC, "edges": [{"u": "a", "v": "b", "w": None}]},
         {**K2_DOC, "vertices": 5},
         {**K2_DOC, "vertices": [{"id": "a", "mu": True}, {"id": "b", "mu": 1.0}]},
         {**K2_DOC, "vertices": [{"id": "a", "mu": "2"}, {"id": "b", "mu": 1.0}]},
         {**K2_DOC, "edges": [{"u": "a", "v": "b", "w": "1.5"}]},
         {**K2_DOC, "edges": [{"u": "a", "v": "b", "w": True}]},
         {**K2_DOC, "vertices": [{"id": "a", "mu": 1.0}, {"id": "a", "mu": 1.0}]},
         {**K2_DOC, "vertices": [{"id": "a", "mu": 10**400}, {"id": "b", "mu": 1.0}]}],
        ids=["edge-entry", "mu-list", "w-null", "vertices-number", "mu-bool", "mu-string",
             "w-string", "w-bool", "duplicate-id", "mu-overflow"])
    def test_malformed_graph_document_is_usage_error(self, tmp_path, capsys, doc):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["kernel", str(bad), "--s", "0.5", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad graph file")


class TestEvolveCommand:
    def test_writes_trajectory_and_summary(self, k2_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evolve", k2_path, "--s", "0.5", "--p", "2", "--q", "1", "--T", "1",
             "--u0-random", "0.5", "2.0", "--seed", "7", "--output-dir", str(out)]
        )
        assert code == 0
        header, rows = read_csv_matrix(out / "trajectory.csv")
        assert header == ["t", "u_1", "u_2", "min_u", "max_u", "mass",
                          "dirichlet_p_energy"]
        assert len(rows) == 201
        summary = json.loads((out / "summary.json").read_text())
        assert summary["u0"] == {"kind": "random-uniform", "low": 0.5, "high": 2.0,
                                 "generator": "philox", "seed": 7}
        assert summary["steady_state_error"] >= 0.0
        assert summary["steps_accepted"] > 0

    def test_finite_time_collapse_over_a_long_horizon(self, tmp_path):
        # at p near 1 the last steps before the snap are ~1e-8 long; the step
        # floor scales with t, not with T, so a long horizon takes them too
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid_doc(5, 8)))
        out = tmp_path / "o"
        code = main(["evolve", str(path), "--s", "0.98", "--p", "1.02", "--q", "0.05",
                     "--T", "1e6", "--dt-out", "1e4", "--u0-random", "0.5", "2", "--seed", "1",
                     "--output-dir", str(out)])
        assert code == 0
        assert json.loads((out / "summary.json").read_text())["snap_time"] < 0.1

    def test_solver_failure_writes_only_the_summary(self, k2_path, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "evolve_direct",
                            mock.Mock(side_effect=fg.StepBudgetExceeded("forced")))
        out = tmp_path / "out"
        code = main(["evolve", k2_path, "--T", "0.1", "--emit-plots", "--output-dir", str(out)])
        assert code == 1
        assert capsys.readouterr() == ("", "FAIL solver: StepBudgetExceeded: forced\n")
        summary = json.loads((out / "summary.json").read_text())
        assert (summary["error"], summary["message"]) == ("StepBudgetExceeded", "forced")
        assert summary["solver"] == "direct" and summary["config"]["T"] == 0.1
        assert sorted(path.name for path in out.iterdir()) == ["summary.json"]

    def test_verify_solver_failure_writes_no_report(self, k2_path, tmp_path, capsys,
                                                    monkeypatch):
        monkeypatch.setattr(cli, "evolve_direct",
                            mock.Mock(side_effect=fg.StepBudgetExceeded("forced")))
        out = tmp_path / "out"
        code = main(["verify", k2_path, "--T", "0.1", "--output-dir", str(out)])
        assert code == 1
        # the line that evolve prints for a failed solve
        assert capsys.readouterr() == ("", "FAIL solver: StepBudgetExceeded: forced\n")
        # verify makes its directory at its first write, so a failed solve leaves none
        assert not out.exists()

    def test_deterministic_for_fixed_seed(self, k5_path, tmp_path):
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = main(
                ["evolve", k5_path, "--s", "0.3", "--p", "2.5", "--q", "1.5",
                 "--T", "0.5", "--u0-random", "0.5", "2.0", "--seed", "11",
                 "--output-dir", str(out)]
            )
            assert code == 0
            outputs.append((out / "trajectory.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_picard_q1_single_iteration(self, k2_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evolve", k2_path, "--q", "1", "--solver", "picard",
             "--u0-random", "0.5", "2.0", "--output-dir", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["picard_iterations"] == 1

    def test_emit_plots_writes_svg(self, k2_path, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["evolve", k2_path, "--u0-constant", "1.5", "--emit-plots",
             "--output-dir", str(out)]
        )
        assert code == 0
        svg = (out / "flow.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_config_file_with_flag_override(self, k2_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"s": 0.3, "p": 2.0, "q": 1.0, "T": 5.0,
                                   "u0": [1.0, 2.0]}))
        out = tmp_path / "out"
        code = main(
            ["evolve", k2_path, "--config", str(cfg), "--T", "1",
             "--output-dir", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["s"] == 0.3
        assert summary["config"]["T"] == 1.0
        assert summary["u0"] == {"kind": "explicit"}

    def test_nonpositive_u0_is_usage_error(self, k2_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": [1.0, -2.0]}))
        code = main(["evolve", k2_path, "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2


    @pytest.mark.parametrize(
        "flags",
        [
            ["--u0-constant", "nan"],
            ["--u0-constant", "inf"],
            ["--u0-random", "0.5", "inf"],
            ["--u0-random", "nan", "2.0"],
            ["--p", "nan"],
            ["--T", "nan"],
            ["--atol", "inf"],
        ],
    )
    def test_nonfinite_input_is_usage_error(self, k2_path, tmp_path, flags):
        with wall_clock_limit(20):
            code = main(["evolve", k2_path, "--output-dir", str(tmp_path / "o")] + flags)
        assert code == 2

    def test_nonfinite_u0_in_config_is_usage_error(self, k2_path, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": [1.0, float("nan")]}))
        with wall_clock_limit(20):
            code = main(["evolve", k2_path, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize(
        "config",
        [{"u0": ["x", 1.0]}, {"p": "2.5"}, {"u0": [[1.0], [2.0]]},
         {"u0": {"kind": "constant"}}, 3, {"picard_max": 2.5, "solver": "picard", "q": 2},
         {"u0": {"kind": "random-uniform", "low": 0.5, "high": 2.0, "seed": math.inf}},
         {"T": True}, {"q": True}, {"eps_reg": True}, {"picard_max": True},
         {"T": True, "q": True, "atol": True},
         {"u0": {"kind": "constant", "value": True}},
         {"u0": {"kind": "constant", "value": "1.5"}},
         {"u0": ["1", 2]},
         {"u0": {"kind": "random-uniform", "low": True, "high": 2.0}},
         {"u0": {"kind": "random-uniform", "low": 0.5, "high": 2.0, "seed": "3"}},
         {"u0": {"kind": "random-uniform", "low": 0.5, "high": 2.0, "seed": 1.7}}],
        ids=["u0", "p", "u0-nested", "u0-no-value", "not-an-object", "picard-max",
             "u0-seed-inf", "T-bool", "q-bool", "eps-reg-bool", "picard-max-bool",
             "three-bools", "u0-value-bool", "u0-value-string", "u0-string-entry",
             "u0-low-bool", "u0-seed-string", "u0-seed-fraction"])
    def test_non_numeric_config_is_usage_error(self, k2_path, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["evolve", k2_path, "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", ["evolve", "verify", "sweep"])
    @pytest.mark.parametrize("config, keys", [
        ({"eps_reg": 1e-12}, "eps_reg"), ({"atoll": 1e-12, "T": 0.1}, "atoll"),
        ({"eps_reg": 0.0, "atoll": 1e-12, "s_list": [0.5], "q": 2}, "atoll, eps_reg, s_list"),
        ({"picard_tol": 1e-7}, "picard_tol"), ({"picard_max": 30}, "picard_max")],
        ids=["eps-reg", "typo", "three", "picard-tol", "picard-max"])
    def test_unknown_config_key_is_usage_error(self, k2_path, tmp_path, capsys, monkeypatch,
                                               serial_pools, command, config, keys):
        # a dropped key would run at the default without a word
        monkeypatch.setattr(cli, "build_kernel", mock.Mock(side_effect=AssertionError))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        lists = ["--s-list", "0.3", "--p-list", "2", "--q-list", "1"] if command == "sweep" else []
        code = main([command, k2_path, "--config", str(cfg), *lists,
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: config file sets unknown keys: {keys}\n")
        assert not (tmp_path / "o").exists() and not serial_pools

    def test_config_file_may_set_every_flow_field(self, k2_path, tmp_path, monkeypatch):
        values = {"s": 0.3, "p": 2.5, "q": 2.0, "T": 0.1, "dt_out": 0.02, "atol": 1e-8,
                  "rtol": 1e-7}
        assert set(values) == {f.name for f in fields(fg.FlowConfig)}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**values, "solver": "picard", "u0": [1.0, 2.0]}))
        spy = mock.Mock(wraps=cli.picard_solve)
        monkeypatch.setattr(cli, "picard_solve", spy)
        assert main(["evolve", k2_path, "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")]) == 0
        assert spy.call_args.args[2] == fg.FlowConfig(**values)

    def test_unset_fields_take_flow_config_defaults(self, k2_path, tmp_path):
        out = tmp_path / "o"
        assert main(["evolve", k2_path, "--T", "0.1", "--output-dir", str(out)]) == 0
        recorded = json.loads((out / "summary.json").read_text())["config"]
        expected = fg.FlowConfig(s=0.5, p=2.0, q=1.0, T=0.1)
        assert recorded == {key: getattr(expected, key) for key in recorded}

    def test_summary_records_every_flow_field(self, k2_path, tmp_path):
        out = tmp_path / "o"
        assert main(["evolve", k2_path, "--T", "0.1", "--solver", "picard", "--q", "2",
                     "--atol", "1e-7", "--output-dir", str(out)]) == 0
        recorded = json.loads((out / "summary.json").read_text())["config"]
        expected = fg.FlowConfig(s=0.5, p=2.0, q=2.0, T=0.1, atol=1e-7)
        assert recorded == {f.name: getattr(expected, f.name) for f in fields(fg.FlowConfig)}

    @pytest.mark.parametrize("file_seed", [{}, {"seed": 3}], ids=["unseeded", "seeded"])
    def test_seed_sets_the_seed_of_a_config_u0(self, k2_path, tmp_path, file_seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": {"kind": "random-uniform", "low": 0.5, "high": 2,
                                          **file_seed}}))
        out = tmp_path / "o"
        assert main(["evolve", k2_path, "--config", str(cfg), "--seed", "5", "--T", "0.1",
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["u0"]["seed"] == 5

    @pytest.mark.parametrize("u0", [None, {"kind": "constant", "value": 1.5}, [1.0, 2.0]],
                             ids=["none", "constant", "vector"])
    def test_seed_without_a_random_u0_is_usage_error(self, k2_path, tmp_path, capsys, u0):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": u0}))
        config = [] if u0 is None else ["--config", str(cfg)]
        code = main(["evolve", k2_path, *config, "--seed", "5",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --seed")
        assert not (tmp_path / "o").exists()

    def test_random_u0_without_seed_records_seed_0(self, k2_path, tmp_path):
        out = tmp_path / "o"
        assert main(["evolve", k2_path, "--u0-random", "0.5", "2", "--T", "0.1",
                     "--output-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["u0"]["seed"] == 0

    @pytest.mark.parametrize("command", ["evolve", "verify", "sweep"])
    def test_two_u0_flags_are_usage_error(self, k2_path, tmp_path, capsys, command):
        grid = ["--s-list", "0.5", "--p-list", "2", "--q-list", "1"] if command == "sweep" else []
        with pytest.raises(SystemExit) as exc_info:
            main([command, k2_path, *grid, "--u0-constant", "1.5", "--u0-random", "0.5", "2",
                  "--T", "0.1", "--output-dir", str(tmp_path / "o")])
        assert exc_info.value.code == 2
        assert "not allowed with argument --u0-constant" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text", [None, "{not json"], ids=["missing", "not-json"])
    def test_unreadable_config_is_usage_error(self, k2_path, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        code = main(["evolve", k2_path, "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad config file: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    @pytest.mark.parametrize("config, message", [
        ({"solver": "rk4"}, "unknown solver 'rk4'"),
        ({"solver": []}, "unknown solver []"),
        ({"solver": {}}, "unknown solver {}"),
        ({"u0": [1.0, 2.0, 3.0]}, "u0 has shape (3,), expected (2,)"),
        ({"u0": {"kind": "gauss"}}, "bad u0 {'kind': 'gauss'}: unknown u0 generator kind: "
                                    "'gauss'"),
        ({"u0": "flat"}, "bad u0 'flat': u0 must be a vector or a generator spec"),
        ({"u0": {"kind": "random-uniform", "low": 0.0, "high": 2.0}},
         "bounds must be positive and finite")],
        ids=["solver", "solver-list", "solver-object", "u0-length", "u0-kind", "u0-string",
             "u0-bounds"])
    def test_bad_config_value_is_named(self, k2_path, tmp_path, capsys, command, config,
                                       message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.1, **config}))
        code = main([command, k2_path, "--config", str(cfg),
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_output_grid_bound_is_usage_error(self, k2_path, tmp_path, capsys):
        with wall_clock_limit(20):
            code = main(["evolve", k2_path, "--T", "1", "--dt-out", "1e-300",
                         "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "output values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    def test_stored_values_bound_is_usage_error(self, k2_path, tmp_path, capsys, monkeypatch,
                                                command):
        # T = 1 at dt_out = 0.005 stores 201 samples of 2 vertices
        monkeypatch.setattr(flow, "MAX_SAMPLE_VALUES", 401)
        monkeypatch.setattr(cli, "build_kernel", mock.Mock(side_effect=AssertionError))
        code = main([command, k2_path, "--T", "1", "--dt-out", "0.005",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == "error: 402 output values, at most 401 allowed\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evolve", "verify"])
    @pytest.mark.parametrize("flags", [["--u0-constant", "1e308"],
                                       ["--q", "12", "--u0-random", "1e30", "2e30", "--seed", "1"]],
                             ids=["mass", "divisor"])
    def test_overflowing_u0_is_usage_error(self, k2_path, tmp_path, capsys, command, flags):
        code = main([command, k2_path, "--T", "1", *flags, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: bad u0 {") and "overflows a float" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("u0, q", [
        pytest.param([1.0, 2.0, 3.0], 1.0, id="length"),
        pytest.param([1.0, math.nan], 1.0, id="nan"),
        pytest.param([0.0, 1.0], 1.0, id="zero"),
        *OVERFLOWING_U0])
    def test_refuses_u0_for_the_librarys_reason(self, k2_path, k2_kernel, tmp_path, capsys,
                                                u0, q):
        with pytest.raises(fg.FracGraphError) as refused:
            fg.evolve_direct(k2_kernel, np.array(u0), fg.FlowConfig(s=0.5, p=2.0, q=q, T=1.0))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": u0}))
        code = main(["evolve", k2_path, "--config", str(cfg), "--q", str(q), "--T", "1",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: bad u0 {u0!r}: {refused.value}\n"
        assert not (tmp_path / "o").exists()


class TestPlot:
    """flow.svg draws every sample up to 4 per pixel column of its 540, and beyond,
    each series' own first, last, smallest and largest sample of each column."""

    @staticmethod
    def walks(m, seed=0):
        # unevenly spaced times, so that columns hold different counts, some none
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.1, 1.9, m))
        return times, {f"s{i}": np.cumsum(rng.standard_normal(m)) for i in range(4)}

    def test_at_most_4_per_column_draws_every_sample(self, tmp_path, monkeypatch):
        svgs = []
        for m in (2160, 2161):
            times, series = self.walks(m)
            cli._svg_lineplot(tmp_path / "reduced.svg", times, series, "t")
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_plot_samples", lambda t, series, columns: np.arange(len(t)))
                cli._svg_lineplot(tmp_path / "full.svg", times, series, "t")
            svgs.append([(tmp_path / name).read_bytes() for name in ("reduced.svg", "full.svg")])
        (reduced, full), (reduced_past, full_past) = svgs
        assert reduced == full
        assert len(reduced_past) < len(full_past)

    @pytest.mark.parametrize("m", [2161, 50_000])
    def test_keeps_each_columns_first_last_and_extremes(self, m):
        times, series = self.walks(m, seed=m)
        col = np.minimum(np.floor((times - times[0]) / (times[-1] - times[0]) * 540), 539)
        columns = [idx for idx in (np.flatnonzero(col == c) for c in range(540)) if len(idx)]
        for vals in series.values():
            kept = cli._plot_samples(times, vals, 540)
            wanted = set()
            for idx in columns:
                wanted |= {idx[0], idx[-1], idx[np.argmin(vals[idx])], idx[np.argmax(vals[idx])]}
            assert np.all(np.diff(kept) > 0)
            assert set(kept.tolist()) == wanted

    def test_svg_size_does_not_grow_with_the_samples(self, tmp_path):
        times, series = self.walks(50_000)
        cli._svg_lineplot(tmp_path / "flow.svg", times, series, "t")
        svg = (tmp_path / "flow.svg").read_text()
        kept = [len(cli._plot_samples(times, vals, 540)) for vals in series.values()]
        assert [len(pts.split('"')[0].split()) for pts in svg.split('points="')[1:]] == kept
        # at most 4 samples per column in each polyline; every sample drawn would
        # take ~2.8 MB, and the union of the series' samples drew 264 kB
        assert max(kept) <= 4 * 540
        assert len(svg) < 200_000


class TestVerifyCommand:
    def test_all_checks_pass(self, k5_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["verify", k5_path, "--s", "0.5", "--p", "2", "--q", "1", "--T", "2",
             "--u0-random", "0.5", "2.0", "--output-dir", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        for name in ("max_principle", "mass_conservation", "dissipation_bound",
                     "energy_identity", "gradient_decay"):
            assert f"PASS {name}" in printed
        report = json.loads((out / "report.json").read_text())
        assert all(report["checks"].values())

    def test_prints_and_records_the_check_table(self, k5_path, tmp_path, capsys):
        # sloppy tolerances, so that some rows fail
        out = tmp_path / "o"
        code = main(["verify", k5_path, "--T", "2", "--atol", "1", "--rtol", "1",
                     "--u0-random", "0.5", "2.0", "--output-dir", str(out)])
        report = json.loads((out / "report.json").read_text())
        rows = report["check_table"]
        assert {row["name"]: row["measured"] <= row["threshold"] for row in rows} == \
            report["checks"]
        assert code == 1 and not all(report["checks"].values())
        assert "dissipation_satisfied" not in report
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(rows)
        for line, row in zip(lines, rows):
            measured, threshold = row["measured"], row["threshold"]
            assert line == (f"{'PASS' if measured <= threshold else 'FAIL'} {row['name']} "
                            f"(measured {measured:.3e}, threshold {threshold:.3e}, "
                            f"margin {threshold - measured:.3e})")

    # the (s, p, q) cycle of perfbench's audit-n500 workload
    @pytest.mark.parametrize("s, p, q", [(0.3, 1.5, 0.5), (0.5, 2.0, 1.0), (0.7, 2.5, 1.5),
                                         (0.5, 3.0, 2.0)])
    def test_benchmark_gate_agrees(self, philox_g40, tmp_path, monkeypatch, s, p, q):
        # perfbench's correctness gate repeats verify's comparisons; a verdict
        # that drifts from its copy makes the run inconsistent
        spec = importlib.util.spec_from_file_location(
            "perfbench_audit", Path(__file__).parent.parent / "perfbench" / "audit.py")
        audit = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, audit)  # its dataclasses look it up
        spec.loader.exec_module(audit)
        path, out, seed = tmp_path / "g40.json", tmp_path / "out", 5
        path.write_text(fg.graph_to_json(philox_g40))
        code = main(["verify", str(path), "--s", repr(s), "--p", repr(p), "--q", repr(q),
                     "--T", "0.05", "--dt-out", "1e-3", "--u0-random", "0.5", "2.0",
                     "--seed", str(seed), "--output-dir", str(out)])
        u0 = np.random.Generator(np.random.Philox(seed)).uniform(0.5, 2.0, philox_g40.n)
        solve = audit.check_audit("g40", out, code, philox_g40.mu, u0, s, p, q, 0.05, 1e-3)
        assert solve.consistent, solve.reason
        assert solve.ok, solve.reason

    def test_picard_conserves_mass(self, philox_g40, tmp_path, capsys, picard_sweeps):
        # a coefficient interpolated linearly between the samples drifted
        # 6.8e-6 of the mass here, against 1e-8 allowed
        path = tmp_path / "g40.json"
        path.write_text(fg.graph_to_json(philox_g40))
        code = main(["verify", str(path), "--s", "0.7", "--p", "2.5", "--q", "1.5",
                     "--T", "1", "--dt-out", "5e-3", "--u0-random", "0.5", "2", "--seed", "3",
                     "--solver", "picard", "--output-dir", str(tmp_path / "out")])
        assert "PASS mass_conservation" in capsys.readouterr().out
        assert code == 0
        # the report counts the work of every sweep, not of the last one only
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        [sweeps] = picard_sweeps
        assert len(sweeps) == report["picard_iterations"] > 1
        assert report["rhs_evaluations"] == sum(sweep["rhs_evals"] for sweep in sweeps)
        assert report["steps_rejected"] == (report["steps_rejected_error"]
                                            + report["steps_rejected_positivity"])

    def test_report_and_summary_record_run_telemetry(self, k5_path, tmp_path):
        for solver in (["--solver", "direct"], ["--solver", "picard", "--q", "2"]):
            flags = ["--T", "0.5", "--u0-random", "0.5", "2.0", *solver]
            verify_out, evolve_out = tmp_path / f"v-{solver[1]}", tmp_path / f"e-{solver[1]}"
            assert main(["verify", k5_path, *flags, "--output-dir", str(verify_out)]) == 0
            assert main(["evolve", k5_path, *flags, "--output-dir", str(evolve_out)]) == 0
            report = json.loads((verify_out / "report.json").read_text())
            summary = json.loads((evolve_out / "summary.json").read_text())
            for doc in (report, summary):
                assert doc["steps_rejected"] == (doc["steps_rejected_error"]
                                                 + doc["steps_rejected_positivity"])
                assert doc["rhs_evaluations"] > 6 * doc["steps_accepted"] > 0
                assert 0.0 < doc["h_min"] <= doc["h_max"]
                assert doc["snap_time"] is doc["snap_spread"] is doc["snap_tolerance"] is None
            # the same solve, so the same run record: verify's report holds all of
            # evolve's summary, config, steady state and Picard history included
            assert summary.keys() - report.keys() == set()
            assert {k: report[k] for k in summary} == summary

    def test_emit_plots_is_usage_error(self, k2_path, tmp_path, capsys):
        # only evolve writes plots
        with pytest.raises(SystemExit) as exc_info:
            main(["verify", k2_path, "--emit-plots", "--output-dir", str(tmp_path / "o")])
        assert exc_info.value.code == 2
        assert "--emit-plots" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_non_numeric_weight_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**K2_DOC, "edges": [{"u": "a", "v": "b", "w": "1.5"}]}))
        assert main(["verify", str(bad), "--output-dir", str(tmp_path / "o")]) == 2
        assert "w = '1.5' is not a number" in capsys.readouterr().err

    def test_step_budget_ends_a_stiff_solve(self, tmp_path, capsys):
        path = tmp_path / "path3.json"
        path.write_text(json.dumps(PATH3_DOC))
        # about 4e11 steps to the horizon
        with wall_clock_limit(5):
            code = main(["verify", str(path), "--s", "0.99", "--p", "2", "--q", "1",
                         "--T", "1e6", "--u0-random", "0.5", "2",
                         "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert f"StepBudgetExceeded: {flow.MAX_STEPS} steps" in capsys.readouterr().err

    def test_sloppy_tolerances_fail(self, k5_path, tmp_path):
        # with atol = rtol = 1 the integrator cannot conserve mass to 1e-8
        code = main(
            ["verify", k5_path, "--T", "2", "--atol", "1", "--rtol", "1",
             "--u0-random", "0.5", "2.0", "--output-dir", str(tmp_path / "o")]
        )
        assert code == 1


class TestSweepCommand:
    def test_grid_of_runs(self, k2_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            ["sweep", k2_path, "--s-list", "0.3,0.7", "--p-list", "2",
             "--q-list", "1,2", "--T", "0.5", "--u0-constant", "1.5",
             "--workers", "2", "--output-dir", str(out)]
        )
        assert code == 0
        for tag in ("s0.3_p2.0_q1.0", "s0.3_p2.0_q2.0",
                    "s0.7_p2.0_q1.0", "s0.7_p2.0_q2.0"):
            assert (out / tag / "trajectory.csv").exists()
            assert (out / tag / "summary.json").exists()

    def test_matches_separate_evolve_runs(self, k5_path, tmp_path):
        common = ["--T", "0.2", "--u0-random", "0.5", "2.0", "--seed", "3"]
        out = tmp_path / "sweep"
        code = main(["sweep", k5_path, "--s-list", "0.3,0.7", "--p-list", "1.5,2.5",
                     "--q-list", "1", "--workers", "2", "--output-dir", str(out)]
                    + common)
        assert code == 0
        for s, p in product((0.3, 0.7), (1.5, 2.5)):
            single = tmp_path / f"single-{s}-{p}"
            assert main(["evolve", k5_path, "--s", str(s), "--p", str(p), "--q", "1",
                         "--output-dir", str(single)] + common) == 0
            for name in ("trajectory.csv", "summary.json"):
                swept = (out / f"s{s}_p{p}_q1.0" / name).read_bytes()
                assert swept == (single / name).read_bytes()

    def test_invalid_s_fails_only_its_tags(self, k2_path, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = main(["sweep", k2_path, "--s-list", "0.5,1.5", "--p-list", "2,3",
                     "--q-list", "1", "--T", "0.2", "--workers", "2",
                     "--output-dir", str(out)])
        assert code == 2
        status = dict(line.split()[::-1] for line in capsys.readouterr().out.splitlines())
        assert status == {"s0.5_p2.0_q1.0": "ok", "s0.5_p3.0_q1.0": "ok",
                          "s1.5_p2.0_q1.0": "FAIL", "s1.5_p3.0_q1.0": "FAIL"}
        for tag in ("s0.5_p2.0_q1.0", "s0.5_p3.0_q1.0"):
            assert (out / tag / "trajectory.csv").exists()
            assert (out / tag / "summary.json").exists()
        assert not (out / "s1.5_p2.0_q1.0").exists()

    @pytest.mark.parametrize("flags", [["--s-list", "0.5", "--workers", "0"],
                                       ["--s-list", ","],
                                       ["--s-list", "0.5,0.50", "--p-list", "2,2.0"]],
                             ids=["zero-workers", "empty-list", "repeated-value"])
    def test_bad_sweep_flags_are_usage_errors(self, k2_path, tmp_path, capsys, flags):
        code = main(["sweep", k2_path, "--p-list", "2", "--q-list", "1",
                     "--output-dir", str(tmp_path / "o")] + flags)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--s", "--p", "--q"])
    def test_single_exponent_flag_is_usage_error(self, k2_path, tmp_path, capsys, flag):
        # the lists set every exponent, so a single value would be dropped; nor
        # may --q pass as an abbreviated --q-list
        with pytest.raises(SystemExit) as exc_info:
            main(["sweep", k2_path, flag, "0.9", "--s-list", "0.3", "--p-list", "2",
                  "--q-list", "1", "--T", "0.1", "--output-dir", str(tmp_path / "o")])
        assert exc_info.value.code == 2
        assert f"unrecognized arguments: {flag} 0.9" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config, keys", [({"s": 0.9}, "s"), ({"q": 3, "T": 0.1}, "q"),
                                              ({"s": 0.9, "p": 7, "q": 3}, "p, q, s")],
                             ids=["s", "q", "all"])
    def test_config_exponents_are_usage_error(self, k2_path, tmp_path, capsys, config, keys):
        # the lists set every exponent, so the file's would be dropped; evolve
        # takes the same file's
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code = main(["sweep", k2_path, "--config", str(cfg), "--s-list", "0.3", "--p-list", "2",
                     "--q-list", "1", "--T", "0.1", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: config file sets {keys}; ")
        assert not (tmp_path / "o").exists()
        out = tmp_path / "evolve"
        assert main(["evolve", k2_path, "--config", str(cfg), "--T", "0.1",
                     "--output-dir", str(out)]) == 0
        recorded = json.loads((out / "summary.json").read_text())["config"]
        assert all(recorded[key] == value for key, value in config.items())

    def test_config_without_exponents_runs(self, k2_path, tmp_path, serial_pools):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"T": 0.1, "atol": 1e-8, "u0": [1.0, 2.0]}))
        out = tmp_path / "o"
        assert main(["sweep", k2_path, "--config", str(cfg), "--s-list", "0.3", "--p-list", "2",
                     "--q-list", "1", "--output-dir", str(out)]) == 0
        recorded = json.loads((out / "s0.3_p2.0_q1.0" / "summary.json").read_text())["config"]
        assert (recorded["T"], recorded["atol"]) == (0.1, 1e-8)

    def test_pool_has_no_more_workers_than_solves(self, k2_path, tmp_path, serial_pools):
        code = main(["sweep", k2_path, "--s-list", "0.3,0.7", "--p-list", "2",
                     "--q-list", "1", "--T", "0.1", "--workers", "1000",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 0
        assert [pool.max_workers for pool in serial_pools] == [2]

    @pytest.mark.parametrize("affinity, workers", [(True, 1), (False, 3)],
                             ids=["affinity", "no-affinity"])
    def test_default_workers_are_the_usable_cpus(self, k2_path, tmp_path, monkeypatch,
                                                 serial_pools, affinity, workers):
        # taskset -c 0 leaves one CPU of three; without sched_getaffinity
        # (macOS, Windows) the count of all CPUs is used
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
        if affinity:
            monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        code = main(["sweep", k2_path, "--s-list", "0.2,0.4,0.6,0.8", "--p-list", "2",
                     "--q-list", "1", "--T", "0.1", "--output-dir", str(tmp_path / "o")])
        assert code == 0
        assert [pool.max_workers for pool in serial_pools] == [workers]

    @pytest.mark.parametrize("s_list, p_list, q_list, sizes, kernels", [
        ("0.25,0.5,0.75", "1.5,2.5", "1,2", [6, 6], 4),
        ("0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,0.45,0.55,0.65,0.75", "2", "1", [7, 6], 13)],
        ids=["12-points", "13-points"])
    def test_workers_get_contiguous_shares(self, k2_path, tmp_path, monkeypatch, serial_pools,
                                           s_list, p_list, q_list, sizes, kernels):
        spies = {name: mock.Mock(wraps=getattr(fg.operators, name))
                 for name in ("decompose", "kernel_weights")}
        for name, spy in spies.items():
            monkeypatch.setattr(fg.operators, name, spy)
        lists = [cli._float_list(text) for text in (s_list, p_list, q_list)]
        code = main(["sweep", k2_path, "--s-list", s_list, "--p-list", p_list,
                     "--q-list", q_list, "--T", "0.05", "--workers", "2",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 0
        shares = [share[-1] for share in serial_pools[0].shares]
        assert [len(points) for points in shares] == sizes
        assert sum(shares, []) == list(product(*lists))  # s-major, in order
        assert spies["decompose"].call_count == 2  # one per share
        assert spies["kernel_weights"].call_count == kernels  # one per s in a share

    @pytest.mark.parametrize("solver", ["rk4", [], {}], ids=["name", "list", "object"])
    def test_config_solver_is_checked_before_any_run(self, k2_path, tmp_path, capsys, solver):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"solver": solver}))
        code = main(["sweep", k2_path, "--config", str(cfg), "--s-list", "0.3,0.7",
                     "--p-list", "2", "--q-list", "1", "--T", "0.1", "--workers", "2",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: unknown solver {solver!r}\n"
        assert not (tmp_path / "o").exists()

    def test_stored_values_bound_fails_every_tag(self, k5_path, tmp_path, capsys, monkeypatch,
                                                 serial_pools):
        # 201 samples: 402 values on 2 vertices pass the run-wide check, 1005 on K5 do not
        monkeypatch.setattr(flow, "MAX_SAMPLE_VALUES", 500)
        monkeypatch.setattr(cli, "build_kernel", mock.Mock(side_effect=AssertionError))
        code = main(["sweep", k5_path, "--s-list", "0.3,0.7", "--p-list", "2", "--q-list", "1",
                     "--T", "1", "--dt-out", "0.005", "--output-dir", str(tmp_path / "o")])
        assert code == 2
        out, err = capsys.readouterr()
        tags = ["s0.3_p2.0_q1.0", "s0.7_p2.0_q1.0"]
        assert out.splitlines() == [f"FAIL {tag}" for tag in tags]
        assert err.splitlines() == [f"sweep {tag}: 1005 output values, at most 500 allowed"
                                    for tag in tags]
        assert list((tmp_path / "o").iterdir()) == []

    @pytest.mark.parametrize("fault", ["missing", "too-many-vertices"])
    def test_graph_fault_fails_every_tag(self, tmp_path, capsys, monkeypatch, serial_pools,
                                         fault):
        path = tmp_path / "g.json"
        if fault == "missing":
            message = f"cannot read graph file: [Errno 2] No such file or directory: '{path}'"
        else:
            monkeypatch.setattr(graph, "MAX_VERTICES", 4)
            path.write_text(json.dumps(grid_doc(1, 5)))
            message = f"bad graph file {path}: TooManyVertices: n=5, at most 4 allowed"
        code = main(["sweep", str(path), "--s-list", "0.3,0.7", "--p-list", "2",
                     "--q-list", "1,2", "--T", "0.1", "--workers", "2",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        out, err = capsys.readouterr()
        tags = [f"s{s}_p2.0_q{q}" for s in (0.3, 0.7) for q in (1.0, 2.0)]
        assert out.splitlines() == [f"FAIL {tag}" for tag in tags]
        assert err.splitlines() == [f"sweep {tag}: {message}" for tag in tags]
        assert list((tmp_path / "o").iterdir()) == []
        assert [len(share[3]) for share in serial_pools[0].shares] == [2, 2]

    @pytest.mark.parametrize("flags, message", [
        (["--atol", "0"], "dt_out and atol must be positive, rtol nonnegative, all finite"),
        (["--dt-out", "0.005"], "402 output values, at most 401 allowed")],
        ids=["atol", "stored-values"])
    def test_run_wide_fault_is_one_usage_error(self, k2_path, tmp_path, capsys, monkeypatch,
                                               serial_pools, flags, message):
        monkeypatch.setattr(flow, "MAX_SAMPLE_VALUES", 401)
        code = main(["sweep", k2_path, "--s-list", "0.3,0.5", "--p-list", "2", "--q-list", "1",
                     "--T", "1", *flags, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "o").exists() and not serial_pools

    def test_overflowing_u0_fails_only_its_tags(self, k2_path, tmp_path, capsys, serial_pools):
        # u0 ~ 1e30 overflows q u^(q-1) at q = 12 only
        out = tmp_path / "o"
        code = main(["sweep", k2_path, "--s-list", "0.5", "--p-list", "2", "--q-list", "1,12",
                     "--T", "0.1", "--u0-random", "1e30", "2e30", "--seed", "1",
                     "--output-dir", str(out)])
        assert code == 2
        printed, err = capsys.readouterr()
        assert printed.splitlines() == ["ok s0.5_p2.0_q1.0", "FAIL s0.5_p2.0_q12.0"]
        assert err.startswith("sweep s0.5_p2.0_q12.0: bad u0 {") and err.count("\n") == 1
        assert [path.name for path in out.iterdir()] == ["s0.5_p2.0_q1.0"]

    def test_positivity_fault_fails_only_its_tags(self, k2_path, tmp_path, capsys, monkeypatch,
                                                  serial_pools):
        # a kernel that fails positivity at one s fails that s's tags; the others run
        build, message = cli.build_kernel, "min off-diagonal entry -5.576e-08 at s=0.7"

        def build_kernel(graph, s, dec=None):
            if s == 0.7:
                raise fg.PositivityViolation(message)
            return build(graph, s, dec)

        monkeypatch.setattr(cli, "build_kernel", build_kernel)
        out = tmp_path / "o"
        code = main(["sweep", k2_path, "--s-list", "0.7,0.3", "--p-list", "1.5,2.5",
                     "--q-list", "1", "--T", "0.01", "--workers", "2", "--output-dir", str(out)])
        assert code == 1
        printed, err = capsys.readouterr()
        tags = [cli._sweep_tag(s, p, 1.0) for s in (0.7, 0.3) for p in (1.5, 2.5)]
        assert printed.splitlines() == [f"FAIL {tags[0]}", f"FAIL {tags[1]}",
                                        f"ok {tags[2]}", f"ok {tags[3]}"]
        assert err.splitlines() == [f"sweep {tag}: PositivityViolation: {message}"
                                    for tag in tags[:2]]
        assert sorted(path.name for path in out.iterdir()) == tags[2:]

    def test_refused_kernel_is_not_decomposed_again(self, k2_path, tmp_path, capsys,
                                                    monkeypatch, serial_pools):
        # a kernel that fails positivity fails every tag of its s from the share's one
        # decomposition
        weights, message = fg.operators.kernel_weights, "min off-diagonal entry -5e-08 at s=0.7"

        def kernel_weights(dec, s):
            if s == 0.7:
                raise fg.PositivityViolation(message)
            return weights(dec, s)

        spy = mock.Mock(wraps=fg.operators.decompose)
        monkeypatch.setattr(fg.operators, "decompose", spy)
        monkeypatch.setattr(fg.operators, "kernel_weights", kernel_weights)
        code = main(["sweep", k2_path, "--s-list", "0.7", "--p-list", "1.5,2.5,3.0",
                     "--q-list", "1", "--workers", "1", "--output-dir", str(tmp_path / "o")])
        assert code == 1
        tags = [cli._sweep_tag(0.7, p, 1.0) for p in (1.5, 2.5, 3.0)]
        assert capsys.readouterr() == (
            "".join(f"FAIL {tag}\n" for tag in tags),
            "".join(f"sweep {tag}: PositivityViolation: {message}\n" for tag in tags))
        assert spy.call_count == 1
        assert list((tmp_path / "o").iterdir()) == []

    def test_refused_kernel_keeps_the_share_decomposition(self, k2_path, tmp_path, capsys,
                                                          monkeypatch, serial_pools):
        # the next s's kernel comes from the decomposition the refused s made
        weights, message = fg.operators.kernel_weights, "min off-diagonal entry -5e-08 at s=0.7"

        def kernel_weights(dec, s):
            if s == 0.7:
                raise fg.PositivityViolation(message)
            return weights(dec, s)

        spy = mock.Mock(wraps=fg.operators.decompose)
        monkeypatch.setattr(fg.operators, "decompose", spy)
        monkeypatch.setattr(fg.operators, "kernel_weights", kernel_weights)
        out = tmp_path / "o"
        code = main(["sweep", k2_path, "--s-list", "0.7,0.3", "--p-list", "1.5,2.5",
                     "--q-list", "1", "--T", "0.01", "--workers", "1", "--output-dir", str(out)])
        assert code == 1
        tags = [cli._sweep_tag(s, p, 1.0) for s in (0.7, 0.3) for p in (1.5, 2.5)]
        assert [len(share[3]) for share in serial_pools[0].shares] == [4]
        assert capsys.readouterr() == (
            f"FAIL {tags[0]}\nFAIL {tags[1]}\nok {tags[2]}\nok {tags[3]}\n",
            "".join(f"sweep {tag}: PositivityViolation: {message}\n" for tag in tags[:2]))
        assert spy.call_count == 1
        assert sorted(path.name for path in out.iterdir()) == tags[2:]

    def test_share_refused_before_its_kernels_does_not_decompose(self, k2_path, tmp_path,
                                                                  capsys, monkeypatch):
        spy = mock.Mock(wraps=fg.operators.decompose)
        monkeypatch.setattr(fg.operators, "decompose", spy)
        values = {"T": 0.1, "solver": "direct", "u0": {"kind": "gauss"}}
        points = [(s, 2.0, 1.0) for s in (0.3, 0.7)]
        out = tmp_path / "o"
        results = cli._sweep_worker((k2_path, str(out), values, points))
        assert results == [(cli._sweep_tag(*point), 2) for point in points]
        assert capsys.readouterr().err.count("unknown u0 generator kind") == 2
        assert spy.call_count == 0
        assert not out.exists()

    @pytest.mark.parametrize("q_list", ["1,2", "1,-1"])
    def test_bad_u0_fails_every_tag_after_its_exponents(self, k2_path, tmp_path, capsys,
                                                        serial_pools, q_list):
        # u0 is made after each tag's config, so q = -1 reports the fault evolve reports
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"u0": {"kind": "gauss"}}))
        out = tmp_path / "o"
        code = main(["sweep", k2_path, "--config", str(cfg), "--s-list", "0.3,0.7",
                     "--p-list", "2", "--q-list", q_list, "--T", "0.1", "--workers", "2",
                     "--output-dir", str(out)])
        assert code == 2
        printed, err = capsys.readouterr()
        tags = [cli._sweep_tag(s, 2.0, q) for s in (0.3, 0.7) for q in cli._float_list(q_list)]
        assert printed.splitlines() == [f"FAIL {tag}" for tag in tags]
        assert main(["evolve", k2_path, "--config", str(cfg), "--q", "-1",
                     "--output-dir", str(tmp_path / "evolve")]) == 2
        exponent_fault = capsys.readouterr().err.removeprefix("error: ")
        assert exponent_fault == "q = -1.0, need finite q > 0\n"
        assert err.splitlines(keepends=True) == [
            f"sweep {tag}: " + (exponent_fault if tag.endswith("q-1.0") else
                                "bad u0 {'kind': 'gauss'}: unknown u0 generator kind: 'gauss'\n")
            for tag in tags]
        assert list(out.iterdir()) == []

    def test_missing_graph_fails_every_tag(self, tmp_path, capsys):
        code = main(["sweep", str(tmp_path / "nope.json"), "--s-list", "0.3,0.7",
                     "--p-list", "2", "--q-list", "1,2", "--workers", "2",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().out.splitlines() == [
            "FAIL s0.3_p2.0_q1.0", "FAIL s0.3_p2.0_q2.0",
            "FAIL s0.7_p2.0_q1.0", "FAIL s0.7_p2.0_q2.0"]

    def test_worker_decomposes_once(self, k5_path, tmp_path, monkeypatch):
        spies = {name: mock.Mock(wraps=getattr(fg.operators, name))
                 for name in ("decompose", "kernel_weights")}
        for name, spy in spies.items():
            monkeypatch.setattr(fg.operators, name, spy)
        values = {"T": 0.1, "solver": "direct", "u0": {"kind": "constant", "value": 1.5}}
        points = [(s, p, 1.0) for s, p in product((0.3, 0.7), (2.0, 2.5))]
        results = cli._sweep_worker((k5_path, str(tmp_path), values, points))
        assert results == [(cli._sweep_tag(*point), 0) for point in points]
        assert spies["decompose"].call_count == 1
        assert spies["kernel_weights"].call_count == 2


# Valid values of every --config key, short and long horizons, loose and tight
# tolerances: the steady-state snap or the step budget ends each run.  Then
# invalid ones: wrong type, bool, null, NaN, +-inf, zero, negative, non-integral.
_FUZZ_VALID = {
    "s": [0.3, 0.7], "p": [1.5, 2.0, 3.0], "q": [0.5, 1.0, 2.0], "T": [0.05, 0.1, 10.0, 1e6],
    "dt_out": [0.01, 0.05], "atol": [1e-6, 1e-12, 1e-14], "rtol": [0.0, 1e-9, 1e-14],
    "solver": ["direct", "picard"],
    "u0": [[1.0, 2.0], {"kind": "constant", "value": 1.5},
           {"kind": "random-uniform", "low": 0.5, "high": 2.0, "seed": 3}],
}
_FUZZ_INVALID = ["x", [], {}, True, False, None, math.nan, math.inf, -math.inf, 0, -1.0, 2.5]
_FUZZ_KEYS = [f.name for f in fields(fg.FlowConfig)] + ["solver", "u0"]


@st.composite
def fuzz_configs(draw):
    """A config of valid values with up to two keys set to invalid ones."""
    config = draw(st.fixed_dictionaries(
        {}, optional={key: st.sampled_from(_FUZZ_VALID[key]) for key in _FUZZ_KEYS}))
    for key in draw(st.lists(st.sampled_from(_FUZZ_KEYS), max_size=2, unique=True)):
        config[key] = draw(st.sampled_from(_FUZZ_INVALID))
    return config


class TestConfigFuzz:
    @given(config=fuzz_configs())
    @example(config={"T": 0.1, "atol": 1e-14, "rtol": 0.0, "solver": "picard", "q": 2.0,
                     "u0": [1.0, 2.0]})
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_config_exits_0_1_or_2(self, k2_path, tmp_path, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        with wall_clock_limit(20):
            code = main(["evolve", k2_path, "--config", str(cfg),
                         "--output-dir", str(tmp_path / "o")])
        assert code in (0, 1, 2)


# Graph documents: a small valid graph (duplicate edges and self-loops allowed)
# with up to two parts replaced by arbitrary JSON, or dropped.
_JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.sampled_from([0, -1, 2.5, math.nan]),
                          st.sampled_from(["", "a", "1.5"]))
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3), st.dictionaries(st.sampled_from(["id", "mu", "u", "v", "w"]),
                                                 inner, max_size=3)), max_leaves=6)


@st.composite
def graph_documents(draw):
    ids = draw(st.permutations(["a", "b", "c", 1]))[:draw(st.integers(1, 4))]
    number = st.sampled_from([1.0, 0.5, 2.0])
    pairs = list(zip(ids, ids[1:])) + draw(st.lists(st.tuples(st.sampled_from(ids),
                                                              st.sampled_from(ids)), max_size=1))
    doc = {"vertices": [{"id": i, "mu": draw(number)} for i in ids],
           "edges": [{"u": u, "v": v, "w": draw(number)} for u, v in pairs]}
    for _ in range(draw(st.integers(0, 2))):
        part, where = draw(st.sampled_from(["vertices", "edges"])), draw(st.integers(0, 3))
        entries = doc.get(part)
        if where == 0:
            doc[part] = draw(_JSON_VALUES)
        elif where == 1:
            doc.pop(part, None)
        elif isinstance(entries, list) and entries:
            k = draw(st.integers(0, len(entries) - 1))
            if where == 2 or not isinstance(entries[k], dict) or not entries[k]:
                entries[k] = draw(_JSON_VALUES)
            else:
                entries[k][draw(st.sampled_from(sorted(entries[k], key=str)))] = draw(_JSON_VALUES)
    return doc


class TestGraphFuzz:
    @given(doc=graph_documents())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_graph_document_exits_0_1_or_2(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with wall_clock_limit(20):
            code = main(["kernel", str(path), "--s", "0.5", "--output-dir", str(tmp_path / "o")])
        assert code in (0, 1, 2)


# each degenerate document's exit code and stderr; the kernel of bigmu is a
# valid one, so only its flows are refused
_REFUSALS = {
    "inf": (1, r"error: DomainError: the Laplacian conjugated by sqrt\(mu\) overflows a float"),
    "tiny": (1, r"error: DomainError: the Laplacian conjugated by sqrt\(mu\) overflows a float"),
    "wide": (1, r"error: NoConvergence: smallest eigenvalue 0\.000e\+00 is not numerically .*"),
    "bigmu": (2, r"error: bad u0 \{.*\}: the flow from .* overflows a float"),
}


class TestDegenerateGraphs:
    @pytest.mark.parametrize("name, command", [
        pytest.param(name, command, id=f"{name}-{command}")
        for name, command in product(_REFUSALS, ["evolve", "verify", "kernel"])
        if (name, command) != ("bigmu", "kernel")])
    def test_refused_with_a_typed_error_and_no_result(self, tmp_path, capsys, name, command):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(DEGENERATE_DOCS[name]))
        flags = ["--s", "0.5"] if command == "kernel" else ["--u0-random", "0.5", "2", "--T", "1"]
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(path), *flags, "--output-dir", str(out)])
        printed, err = capsys.readouterr()
        expected_code, message = _REFUSALS[name]
        assert code == expected_code and re.fullmatch(message + "\n", err)
        assert "PASS" not in printed
        assert not out.exists()

    @pytest.mark.parametrize("name", ["inf", "tiny", "wide"])
    def test_sweep_refused_with_no_tag_directory(self, tmp_path, capsys, serial_pools, name):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(DEGENERATE_DOCS[name]))
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["sweep", str(path), "--s-list", "0.3,0.7", "--p-list", "2",
                         "--q-list", "1", "--T", "0.1", "--output-dir", str(out)])
        printed, err = capsys.readouterr()
        expected_code, message = _REFUSALS[name]
        assert code == expected_code == 1 and re.fullmatch(message + "\n", err)
        assert printed == "" and list(out.iterdir()) == []

    @pytest.mark.parametrize("command", ["kernel", "evolve", "verify"])
    def test_too_many_vertices_is_usage_error(self, tmp_path, capsys, monkeypatch, command):
        monkeypatch.setattr(graph, "MAX_VERTICES", 4)
        path = tmp_path / "path5.json"
        path.write_text(json.dumps(grid_doc(1, 5)))
        flags = ["--s", "0.5"] if command == "kernel" else ["--T", "0.1"]
        code = main([command, str(path), *flags, "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: bad graph file {path}: TooManyVertices: n=5, at most 4 allowed\n")
        assert not (tmp_path / "o").exists()


class TestMisc:
    @staticmethod
    def subcommands():
        return next(a for a in cli.build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def test_flow_flags_follow_flow_config(self):
        commands = self.subcommands()
        for command, skipped in [("evolve", ()), ("verify", ()), ("sweep", ("s", "p", "q"))]:
            actions = {a.dest: a for a in commands[command]._actions}
            for name in cli._FLOW_KEYS:
                assert (name in actions) is (name not in skipped), (command, name)
                if name not in skipped:
                    action = actions[name]
                    assert action.option_strings == ["--" + name.replace("_", "-")]
                    assert action.type is float and action.default is None
        assert cli._FLOW_KEYS == tuple(f.name for f in fields(fg.FlowConfig))

    def test_flag_sets(self):
        commands = self.subcommands()
        flow_flags = {"--T", "--dt-out", "--atol", "--rtol", "--config", "--solver",
                      "--u0-constant", "--u0-random", "--seed", "--output-dir", "-h", "--help"}
        expected = {
            "kernel": {"--s", "--output-dir", "-h", "--help"},
            "evolve": flow_flags | {"--s", "--p", "--q", "--emit-plots"},
            "verify": flow_flags | {"--s", "--p", "--q"},
            "sweep": flow_flags | {"--s-list", "--p-list", "--q-list", "--workers"},
        }
        for command, flags in expected.items():
            found = {o for a in commands[command]._actions for o in a.option_strings}
            assert found == flags, command

    def test_parser_is_built_once(self, k2_path, tmp_path, monkeypatch):
        spy = mock.Mock(wraps=cli.build_parser)
        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["kernel", k2_path, "--s", "0.5",
                             "--output-dir", str(tmp_path / "o")]) == 0
        finally:
            cli._parser.cache_clear()
        assert spy.call_count == 1

    def test_library_error_outside_a_solve_fails_the_run(self, k2_path, tmp_path, capsys,
                                                          monkeypatch):
        # an eigensolve that does not converge is a failed run, not a crash
        def diverging(graph, s, dec=None):
            raise fg.NoConvergence("forced")

        monkeypatch.setattr(cli, "build_kernel", diverging)
        code = main(["evolve", k2_path, "--T", "0.1", "--output-dir", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err == "error: NoConvergence: forced\n"

    def test_table_is_written_a_row_block_at_a_time(self, tmp_path):
        table = np.random.default_rng(3).standard_normal((100_000, 7))
        header = [f"c{i}" for i in range(7)]
        tracemalloc.start()
        try:
            cli._write_table(tmp_path / "blocks.csv", header, [table[:, 0], table[:, 1:]])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes
        # the same bytes as the whole table formatted and joined at once
        row = ",".join(["%.17g"] * 7)
        joined = "\n".join([",".join(header), *(row % tuple(r) for r in table.tolist())]) + "\n"
        assert (tmp_path / "blocks.csv").read_bytes() == joined.encode()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert fg.__version__ in capsys.readouterr().out

    @pytest.mark.parametrize("command, written", [
        (["kernel", "--s", "0.5"], "kernel.csv"),
        (["evolve", "--T", "0.1"], "trajectory.csv"),
        (["sweep", "--s-list", "0.3,0.7", "--p-list", "2", "--q-list", "1", "--T", "0.1",
          "--workers", "1"], "s0.7_p2.0_q1.0/trajectory.csv")], ids=["kernel", "evolve", "sweep"])
    def test_output_dir_is_the_flag_alone(self, k2_path, tmp_path, monkeypatch, command,
                                          written):
        # --output-dir alone says where a run writes, whatever the environment holds
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("FRACGRAPH_OUTPUT_DIR", str(env_dir))
        out = tmp_path / "o"
        assert main([command[0], k2_path, *command[1:], "--output-dir", str(out)]) == 0
        assert (out / written).exists()
        assert not env_dir.exists()

    @pytest.mark.parametrize("via", ["flag", "env"])
    def test_output_dir_naming_a_file_is_usage_error(self, k2_path, tmp_path, monkeypatch,
                                                     capsys, via):
        taken = tmp_path / "taken"
        taken.write_text("")
        if via == "env":  # a free directory there does not rescue the run
            monkeypatch.setenv("FRACGRAPH_OUTPUT_DIR", str(tmp_path / "free"))
        code = main(["evolve", k2_path, "--T", "0.1", "--output-dir", str(taken)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "free").exists()
