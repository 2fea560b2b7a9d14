"""scripts/output_set.py compare on small hand-made run directories."""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_set.py"
_spec = importlib.util.spec_from_file_location("output_set", SCRIPT)
output_set = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_set)

TRAJECTORY = "t,u_1,mass\n0,1,10\n0.5,4,10\n"
SUMMARY = {"solver": "direct", "h_min": 0.01, "picard_history": [1e-3, 1e-10]}


@pytest.fixture
def run_a(tmp_path):
    out = tmp_path / "a" / "evolve" / "out"
    out.mkdir(parents=True)
    (out / "trajectory.csv").write_text(TRAJECTORY)
    (out / "summary.json").write_text(json.dumps(SUMMARY, indent=2) + "\n")
    (out.parent / "exit_code.txt").write_text("0\n")
    return tmp_path / "a"


def copy_run(run, tmp_path, files=None):
    """A copy of run with the files of evolve/out that files names rewritten."""
    b = tmp_path / "b"
    shutil.copytree(run, b)
    for name, text in (files or {}).items():
        (b / "evolve" / "out" / name).write_text(text)
    return b


def test_identical_runs(run_a, tmp_path, capsys):
    assert output_set.compare(run_a, copy_run(run_a, tmp_path)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["evolve/exit_code.txt: identical", "evolve/out/summary.json: identical",
                     "evolve/out/trajectory.csv: identical",
                     "largest scaled difference of a CSV column: 0.000e+00"]


def test_differences_are_scaled_by_column_and_list(run_a, tmp_path, capsys):
    # u_1: 1 -> 1.5 in a column reaching 4; picard_history: 1e-10 -> 3e-10 in a
    # list reaching 1e-3; the scalar h_min: 0.01 -> 0.0125
    summary = {**SUMMARY, "h_min": 0.0125, "picard_history": [1e-3, 3e-10]}
    b = copy_run(run_a, tmp_path, {"trajectory.csv": TRAJECTORY.replace("0,1,10", "0,1.5,10"),
                                   "summary.json": json.dumps(summary, indent=2) + "\n"})
    assert output_set.compare(run_a, b) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["evolve/out/trajectory.csv"] == (
        "1 numeric columns or fields differ: u_1 abs 5.000e-01 scaled 1.250e-01")
    assert lines["evolve/out/summary.json"] == (
        "2 numeric columns or fields differ: h_min abs 2.500e-03 rel 2.000e-01; "
        "picard_history[] abs 2.000e-10 scaled 2.000e-07")
    assert lines["largest scaled difference of a CSV column"] == "1.250e-01"


def test_csv_text_difference_is_unbounded(run_a, tmp_path, capsys):
    b = copy_run(run_a, tmp_path, {"trajectory.csv": TRAJECTORY.replace("mass", "volume")})
    assert output_set.compare(run_a, b) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "evolve/out/trajectory.csv: line 1: 't,u_1,mass' != 't,u_1,volume'"
    assert lines[-1] == "largest scaled difference of a CSV column: inf"


def test_json_keys_and_list_lengths_that_differ_are_named(run_a, tmp_path, capsys):
    # b drops solver, adds h_max and has a shorter picard_history, whose shared
    # entry stays equal; h_min still compares as a shared numeric field
    summary = {"h_min": 0.0125, "picard_history": [1e-3], "h_max": 0.5}
    b = copy_run(run_a, tmp_path, {"summary.json": json.dumps(summary, indent=2) + "\n"})
    assert output_set.compare(run_a, b) == 1
    lines = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    assert lines["evolve/out/summary.json"] == (
        "keys only in a: solver; keys only in b: h_max; "
        "list lengths differ: picard_history[] 2 != 1; "
        "1 numeric columns or fields differ: h_min abs 2.500e-03 rel 2.000e-01")
    assert lines["largest scaled difference of a CSV column"] == "0.000e+00"
