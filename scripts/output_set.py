#!/usr/bin/env python3
"""Run a fixed set of fracgraph commands, and compare two such runs file by file.

    python3 scripts/output_set.py run DIR [--src SRC]
    python3 scripts/output_set.py compare A B

`run` keeps, for each command, its output files and its stdout, stderr and
exit code under DIR/<name>/.  Each command runs in its own child process, so
that the stderr of a sweep's workers is kept too, with the `fracgraph` package
from SRC (default: the src/ of the checkout holding this script).  The set:
`verify` at four (s, p, q) with both solvers and the 12-point `sweep` on two
random graphs of 500 vertices, two `verify` runs to T = 2 that snap to the
steady state (at p < 2, t ~ 0.45), `evolve --solver picard --emit-plots`,
`kernel --s 0.5` on K2, on the first 500-vertex graph and on a three-vertex
path with w(a, b) = 1e20 (eigenvalues 0, 16384 and 2e20 in floats),
`kernel --s 0.99` on the same path with w(a, b) = 1e301, whose eigenvalue
2e301 the quadrature oracle cannot follow (exit 1, no output directory),
`verify` on a stiff path that exhausts the step budget (exit 1, and no output
directory, since a failed solve has no report to write), an unknown solver in
a config file, a `sweep` with `--atol 0` (exit 2), and a `sweep` on a
three-vertex star whose kernel fails positivity at s = 0.7 but not at s = 0.3
(that s's tags FAIL, the others run, exit 1).

`compare` prints one line per file that either run holds: "identical", or for
CSV and JSON the largest absolute difference of each numeric column or field
that differs, or else the first differing line.  For JSON it first names the
keys that one run only has and the lists whose length differs, and compares
the leaves that both hold (a list's first entries).  Next to it stands, for a CSV
column or a JSON list, the difference scaled by the column's or list's largest
magnitude in either run, and for any other JSON field the relative difference.
A last line gives the largest scaled difference over all CSV columns (inf when
a CSV differs in more than its numbers).  It exits 0 only when every file is
identical.  To compare a commit with its parent:

    git worktree add ../parent HEAD~1
    python3 scripts/output_set.py run ../runs/parent --src ../parent/src
    python3 scripts/output_set.py run ../runs/head
    python3 scripts/output_set.py compare ../runs/parent ../runs/head

Outputs depend on the BLAS build, so compare only runs made on one machine.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# the generator graphs of the benchmark: n = 500, default_rng([seed, 1])
GRAPH_CODE = """
import sys
import numpy as np
import fracgraph
n, seed, path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
graph = fracgraph.random_connected_graph(np.random.default_rng([seed, 1]), n,
                                         extra_edge_prob=8.0 / n)
open(path, "w").write(fracgraph.graph_to_json(graph))
"""
SEEDS = (1, 2)
AUDIT = ((0.3, 1.5, 0.5), (0.5, 2.0, 1.0), (0.7, 2.5, 1.5), (0.5, 3.0, 2.0))
# (s, p, q) of the runs long enough to snap, where the factor g^(p-2) is largest
SNAP = ((0.3, 1.5, 0.5), (0.5, 1.2, 1.0))
DOCS = {
    "k2.json": {"vertices": [{"id": "a", "mu": 1.0}, {"id": "b", "mu": 2.0}],
                "edges": [{"u": "a", "v": "b", "w": 1.0}]},
    # a stiff edge next to a slow one: the step budget ends the run (exit 1)
    "path3.json": {"vertices": [{"id": v, "mu": 1.0} for v in "abc"],
                   "edges": [{"u": "a", "v": "b", "w": 1e6}, {"u": "b", "v": "c", "w": 1e-6}]},
    # an eigenvalue of 2e20, far from 1, for the kernel's quadrature oracle
    "path20.json": {"vertices": [{"id": v, "mu": 1.0} for v in "abc"],
                    "edges": [{"u": "a", "v": "b", "w": 1e20}, {"u": "b", "v": "c", "w": 1.0}]},
    # an eigenvalue of 2e301: the oracle raises QuadratureNotConverged after the kernel
    "path301.json": {"vertices": [{"id": v, "mu": 1.0} for v in "abc"],
                     "edges": [{"u": "a", "v": "b", "w": 1e301}, {"u": "b", "v": "c", "w": 1.0}]},
    # measures 1e6, 1e6 and 1e-6: the kernel's least entry is -5.6e-8 at s = 0.7, a round-off
    # whose sign may differ by BLAS build, and positive at s = 0.3
    "star3.json": {"vertices": [{"id": "a", "mu": 1e6}, {"id": "b", "mu": 1e6},
                                {"id": "c", "mu": 1e-6}],
                   "edges": [{"u": "a", "v": "b", "w": 1.0}, {"u": "a", "v": "c", "w": 1e6}]},
    "rk4.json": {"solver": "rk4"},
}


def commands():
    """(name, CLI arguments) of each command; paths are relative to the run directory."""
    grid = ["--T", "0.05", "--dt-out", "0.001"]
    for seed in SEEDS:
        graph = f"graphs/n500-seed{seed}.json"
        u0 = ["--u0-random", "0.5", "2", "--seed", str(seed)]
        for solver in ("direct", "picard"):
            for s, p, q in AUDIT:
                yield (f"verify-seed{seed}-{solver}-s{s}_p{p}_q{q}",
                       ["verify", graph, "--solver", solver, "--s", str(s), "--p", str(p),
                        "--q", str(q), *grid, *u0])
        yield (f"sweep-seed{seed}",
               ["sweep", graph, "--s-list", "0.25,0.5,0.75", "--p-list", "1.5,2.5",
                "--q-list", "1,2", "--workers", "2", "--T", "0.005", "--dt-out", "0.001", *u0])
    for s, p, q in SNAP:
        yield (f"verify-snap-s{s}_p{p}_q{q}",
               ["verify", "graphs/n500-seed1.json", "--s", str(s), "--p", str(p), "--q", str(q),
                "--T", "2", "--dt-out", "0.02", "--u0-random", "0.5", "2", "--seed", "1"])
    yield ("evolve-picard-plots",
           ["evolve", "graphs/n500-seed1.json", "--solver", "picard", "--q", "2", *grid,
            "--u0-random", "0.5", "2", "--seed", "1", "--emit-plots"])
    for name in ("k2", "n500-seed1", "path20"):
        yield f"kernel-{name}", ["kernel", f"graphs/{name}.json", "--s", "0.5"]
    yield "kernel-path301", ["kernel", "graphs/path301.json", "--s", "0.99"]
    yield ("stiff-path", ["verify", "graphs/path3.json", "--s", "0.99", "--T", "1e6",
                          "--u0-random", "0.5", "2"])
    yield "unknown-solver", ["evolve", "graphs/k2.json", "--config", "graphs/rk4.json"]
    yield ("sweep-atol-zero", ["sweep", "graphs/k2.json", "--s-list", "0.3,0.5", "--p-list", "2",
                               "--q-list", "1", "--atol", "0", "--workers", "1"])
    # one worker, so that the order of the failed tags' stderr lines is fixed
    yield ("sweep-positivity", ["sweep", "graphs/star3.json", "--s-list", "0.7,0.3",
                                "--p-list", "1.5,2.5", "--q-list", "1", "--T", "0.01",
                                "--workers", "1"])


def run(root: Path, src: Path) -> int:
    if root.exists() and any(root.iterdir()):
        sys.exit(f"error: {root} is not empty")
    (root / "graphs").mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    env.pop("FRACGRAPH_OUTPUT_DIR", None)  # it would redirect every command's output
    for name, doc in DOCS.items():
        (root / "graphs" / name).write_text(json.dumps(doc) + "\n")
    for seed in SEEDS:
        subprocess.run([sys.executable, "-c", GRAPH_CODE, "500", str(seed),
                        f"graphs/n500-seed{seed}.json"], cwd=root, env=env, check=True)
    for name, args in commands():
        (root / name).mkdir()
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "fracgraph.cli", *args,
                               "--output-dir", f"{name}/out"],
                              cwd=root, env=env, capture_output=True, text=True)
        (root / name / "stdout.txt").write_text(done.stdout)
        (root / name / "stderr.txt").write_text(done.stderr)
        (root / name / "exit_code.txt").write_text(f"{done.returncode}\n")
        print(f"{name}: exit {done.returncode} ({time.perf_counter() - start:.1f} s)")
    return 0


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def _gap(a: float, b: float) -> tuple[float, float]:
    """Absolute and relative difference; NaN equals NaN."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    d = abs(a - b)
    return (d, d / max(abs(a), abs(b))) if math.isfinite(d) else (math.inf, math.inf)


def _widen(scales: dict, key: str, *values) -> None:
    """Raise scales[key] to the largest finite magnitude among values."""
    for v in values:
        if v is not None and math.isfinite(v):
            scales[key] = max(scales.get(key, 0.0), abs(v))


def _csv_pairs(a: str, b: str):
    """({column: ([(x, y), ...] of its differing cells, its largest magnitude in
    either run)}, no notes), or None unless all else is equal."""
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if [len(r) for r in rows_a] != [len(r) for r in rows_b] or rows_a[0] != rows_b[0]:
        return None
    header = rows_a[0]
    pairs, scales = {}, {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for col, x, y in zip(header, row_a, row_b):
            nx, ny = _number(x), _number(y)
            _widen(scales, col, nx, ny)
            if x != y:
                if nx is None or ny is None:
                    return None
                pairs.setdefault(col, []).append((nx, ny))
    return {col: (values, scales.get(col, 0.0)) for col, values in pairs.items()}, []


def _walk(x, y, path: str, shape: dict, leaves: list) -> bool:
    """Walk two JSON values side by side: the keys that one side only has go to
    shape["a"] or shape["b"], each list whose length differs to shape["lengths"],
    and (path, x, y) of each leaf that both hold to leaves.  False when the two
    differ in kind at a shared place, such as a list against an object."""
    if isinstance(x, dict) and isinstance(y, dict):
        for side, one, other in (("a", x, y), ("b", y, x)):
            shape[side] += [f"{path}.{key}" if path else key for key in one if key not in other]
        return all(_walk(x[key], y[key], f"{path}.{key}" if path else key, shape, leaves)
                   for key in x if key in y)
    if isinstance(x, list) and isinstance(y, list):
        if len(x) != len(y):
            shape["lengths"].append(f"{path}[] {len(x)} != {len(y)}")
        # every element of a list counts toward one field
        return all(_walk(u, v, f"{path}[]", shape, leaves) for u, v in zip(x, y))
    if isinstance(x, (dict, list)) or isinstance(y, (dict, list)):
        return False
    leaves.append((path, x, y))
    return True


def _json_pairs(a: str, b: str):
    """({field: ([(x, y), ...] of its differing numeric leaves, its largest
    magnitude in either run if it is in a list, else None)}, notes naming the
    keys of one run only and the lists whose length differs), or None unless
    all else is equal."""
    shape, leaves = {"a": [], "b": [], "lengths": []}, []
    try:
        if not _walk(json.loads(a), json.loads(b), "", shape, leaves):
            return None
    except ValueError:
        return None
    notes = [f"keys only in {side}: {', '.join(shape[side])}" for side in "ab" if shape[side]]
    if shape["lengths"]:
        notes.append("list lengths differ: " + ", ".join(shape["lengths"]))
    pairs, scales = {}, {}
    for path, x, y in leaves:
        numbers = [float(v) for v in (x, y) if type(v) in (int, float)]
        _widen(scales, path, *numbers)
        if x != y or type(x) is not type(y):
            if len(numbers) < 2:
                return None
            pairs.setdefault(path, []).append(tuple(numbers))
    return {path: (values, scales.get(path, 0.0) if "[]" in path else None)
            for path, values in pairs.items()}, notes


def _describe(name: str, a: bytes, b: bytes) -> tuple[str, float]:
    """How file b differs from file a, in one line, and the largest scaled
    difference of its CSV columns: 0 for any other file, inf for a CSV whose
    text differs outside its numbers."""
    text_a, text_b = a.decode(errors="replace"), b.decode(errors="replace")
    suffix = Path(name).suffix
    parse, csv = {".csv": _csv_pairs, ".json": _json_pairs}.get(suffix), suffix == ".csv"
    pairs, notes = (parse(text_a, text_b) if parse else None) or ({}, [])
    if pairs or notes:
        figures = []
        for col, (values, scale) in pairs.items():
            d = max(_gap(x, y)[0] for x, y in values)
            if scale is None:  # a scalar field
                figures.append((max(_gap(x, y)[1] for x, y in values), d, col, "rel"))
            else:  # a CSV column or a JSON list: scaled by its largest magnitude
                figures.append((d / scale if 0.0 < d < math.inf else d, d, col, "scaled"))
        figures.sort(reverse=True)
        parts = [f"{col} abs {d:.3e} {kind} {r:.3e}" for r, d, col, kind in figures[:8]]
        more = f"; {len(figures) - 8} more" if len(figures) > 8 else ""
        if figures:
            notes = [*notes, f"{len(figures)} numeric columns or fields differ: "
                     + "; ".join(parts) + more]
        return "; ".join(notes), figures[0][0] if csv else 0.0
    lines_a, lines_b = text_a.splitlines(), text_b.splitlines()
    worst = math.inf if csv else 0.0
    for i, (x, y) in enumerate(zip(lines_a, lines_b), 1):
        if x != y:
            return f"line {i}: {x[:80]!r} != {y[:80]!r}", worst
    return f"{len(lines_a)} lines != {len(lines_b)} lines", worst


def compare(a: Path, b: Path) -> int:
    names = sorted({p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*")})
    same, worst = True, 0.0
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.exists() and pb.exists()):
            same = False
            print(f"{name}: only in {a if pa.exists() else b}")
        elif pa.is_dir() != pb.is_dir():
            same = False
            print(f"{name}: a directory in one run only")
        elif pa.is_file():
            data_a, data_b = pa.read_bytes(), pb.read_bytes()
            if data_a == data_b:
                print(f"{name}: identical")
                continue
            same = False
            line, scaled = _describe(name, data_a, data_b)
            worst = max(worst, scaled)
            print(f"{name}: {line}")
    print(f"largest scaled difference of a CSV column: {worst:.3e}")
    return 0 if same else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)
    r = subs.add_parser("run", help="run the command set into DIR")
    r.add_argument("dir", type=Path)
    r.add_argument("--src", type=Path, default=SRC, help="directory holding the fracgraph package")
    c = subs.add_parser("compare", help="compare two runs; exit 0 only when identical")
    c.add_argument("a", type=Path)
    c.add_argument("b", type=Path)
    args = parser.parse_args()
    return run(args.dir, args.src) if args.command == "run" else compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
