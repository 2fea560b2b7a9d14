#!/usr/bin/env python3
"""Time each layer of fracgraph at n = 8, 200 and 1000, for one or more source trees.

    python3 scripts/layer_bench.py [--src SRC]... [--n N ...] [--rounds K] [--out FILE]

The input at size n is the graph random_connected_graph(default_rng([1, n]),
n, extra_edge_prob=min(1, 8/n)) and the flow (s, p, q) = (0.5, 2.5, 1.5) to
T = 0.05 with dt_out = 1e-3, from u0 drawn uniform in [0.5, 2] by
default_rng([2, n]).  The layers: graph_to_json on the graph,
graph_from_json on its JSON, validate, decompose, kernel_weights,
fractional_power_quadrature (per eigenvalue, over at most 16 of them),
kernel_weights_oracle (the whole oracle at size n), one rhs_direct, one
accepted step (flow._accept_step from u0 with the first step size),
evolve_direct with its RHS count, picard_solve on the same flow with its sweep
count and the RHS count of all its sweeps, build_report on evolve_direct's
trajectory, and `fracgraph verify` through cli.main.  Each layer gets one
warm-up call, then 10 timed calls.

Each round runs one child process per tree (SRC holds the fracgraph package;
default: the src/ of this checkout), in alternating order, so that trees are
compared within one session.  A child pins BLAS to one thread before numpy
loads, as perfbench/run.py does.  `--out` writes JSON: for each tree, size
and layer, the median and the quartile distance (q3 - q1) of all timed
repeats in microseconds and each round's median, with the Python and numpy
versions, the BLAS thread count and nproc.  A table of medians goes to
stdout, each with the figures its layer reports, such as its RHS count.  It
is not a gate: timings depend on the machine and its load.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
S, P, Q, T, DT_OUT = 0.5, 2.5, 1.5, 0.05, 1e-3
QUADRATURE_EIGENVALUES = 16
REPEATS = 10


def _layers(n: int, workdir: Path):
    """(name, call) of each layer at size n; a call returns its extra figures or None."""
    import numpy as np

    import fracgraph as fg
    from fracgraph import cli, flow

    graph = fg.random_connected_graph(np.random.default_rng([1, n]), n,
                                      extra_edge_prob=min(1.0, 8.0 / n))
    text = fg.graph_to_json(graph)
    graph_path = workdir / f"n{n}.json"
    graph_path.write_text(text)
    dec = fg.decompose(graph)
    kernel = fg.build_kernel(graph, S, dec)
    config = fg.FlowConfig(s=S, p=P, q=Q, T=T, dt_out=DT_OUT)
    u0 = np.random.default_rng([2, n]).uniform(0.5, 2.0, n)
    lams = dec.eigenvalues[1:][::max(1, (n - 1) // QUADRATURE_EIGENVALUES)]

    def f(t, u):
        return fg.rhs_direct(kernel, u, P, Q)

    @functools.cache
    def first_step():
        """(f(0, u0), the step tolerance, the first step size), made at the warm-up."""
        f0 = f(0.0, u0)
        tol = config._step_tolerance(float(u0.max()))
        return f0, tol, flow._initial_step(f, 0.0, u0, f0, tol, T)

    def accepted_step():
        f0, tol, h0 = first_step()
        flow._accept_step(f, 0.0, u0, f0, h0, tol, flow.StepStats())

    def quadrature():
        for lam in lams:
            fg.fractional_power_quadrature(float(lam), S)
        return {"eigenvalues": len(lams)}

    def evolve():
        return {"rhs_calls": fg.evolve_direct(kernel, u0, config).stats.rhs_evals}

    def picard():
        traj, sweeps, _ = fg.picard_solve(kernel, u0, config)
        return {"sweeps": sweeps, "rhs_calls": traj.stats.rhs_evals}

    traj = fg.evolve_direct(kernel, u0, config)
    verify_args = ["verify", str(graph_path), "--s", str(S), "--p", str(P), "--q", str(Q),
                   "--T", str(T), "--dt-out", str(DT_OUT), "--u0-random", "0.5", "2",
                   "--seed", "1", "--output-dir", str(workdir / f"verify-n{n}")]

    def verify():
        with contextlib.redirect_stdout(io.StringIO()):
            return {"exit_code": cli.main(verify_args)}

    def discard(fn, *args):
        def call():
            fn(*args)
        return call

    return [
        ("graph_to_json", discard(fg.graph_to_json, graph)),
        ("graph_from_json", discard(fg.graph_from_json, text)),
        ("validate", discard(fg.validate, graph)),
        ("decompose", discard(fg.decompose, graph)),
        ("kernel_weights", discard(fg.kernel_weights, dec, S)),
        ("quadrature_per_eigenvalue", quadrature),
        ("kernel_weights_oracle", discard(fg.kernel_weights_oracle, dec, S)),
        ("rhs_direct", discard(fg.rhs_direct, kernel, u0, P, Q)),
        ("accepted_step", accepted_step),
        ("evolve_direct", evolve),
        ("picard_solve", picard),
        ("build_report", discard(fg.build_report, traj, kernel, config)),
        ("verify", verify),
    ]


def child(src: str, sizes: list[int]) -> dict:
    """Time every layer at every size in this process, with BLAS on one thread."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    import numpy as np

    result = {"python": sys.version.split()[0], "numpy": np.__version__,
              "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
              "nproc": os.cpu_count(), "sizes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for n in sizes:
            layers = result["sizes"][str(n)] = {}
            for name, call in _layers(n, Path(tmp)):
                extra = call() or {}
                per = extra.get("eigenvalues", 1)
                times = []
                for _ in range(REPEATS):
                    start = time.perf_counter()
                    call()
                    times.append((time.perf_counter() - start) * 1e6 / per)
                layers[name] = {"times_us": times, **extra}
    return result


def _summary(rounds: list[dict]) -> dict:
    """One layer's timings over the rounds: median, quartile distance, round medians."""
    pooled = [x for r in rounds for x in r["times_us"]]
    q1, _, q3 = statistics.quantiles(pooled, n=4, method="inclusive")
    extra = {k: v for k, v in rounds[0].items() if k != "times_us"}
    return {"median_us": statistics.median(pooled), "quartile_distance_us": q3 - q1,
            "round_medians_us": [statistics.median(r["times_us"]) for r in rounds], **extra}


def _figures(cell: dict) -> str:
    """A layer's own figures, such as its RHS count, as text for the table."""
    timings = ("median_us", "quartile_distance_us", "round_medians_us")
    return "".join(f" {k} {v}" for k, v in cell.items() if k not in timings)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", action="append", help="directory holding the fracgraph package; "
                    "give it once per tree")
    ap.add_argument("--n", type=int, nargs="+", default=[8, 200, 1000])
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rounds < 1 or min(args.n) < 2:
        ap.error("need --rounds >= 1 and every --n >= 2")
    if args.child:
        json.dump(child(args.child, args.n), sys.stdout)
        return 0

    trees = [str(Path(s).resolve()) for s in args.src or [SRC]]
    # the children run under this interpreter's warning and development-mode flags
    flags = [f"-W{w}" for w in sys.warnoptions] + (["-X", "dev"] if sys.flags.dev_mode else [])
    runs = {tree: [] for tree in trees}
    for r in range(args.rounds):
        for tree in trees if r % 2 == 0 else trees[::-1]:
            done = subprocess.run([sys.executable, *flags, __file__, "--child", tree,
                                   "--n", *map(str, args.n)],
                                  stdout=subprocess.PIPE, text=True, check=True)
            runs[tree].append(json.loads(done.stdout))
            print(f"round {r + 1}: {tree}", file=sys.stderr)

    first = runs[trees[0]][0]
    out = {key: first[key] for key in ("python", "numpy", "blas_threads", "nproc")}
    out.update(repeats=REPEATS, rounds=args.rounds, trees={})
    for tree in trees:
        out["trees"][tree] = {
            n: {layer: _summary([run["sizes"][n][layer] for run in runs[tree]])
                for layer in layers}
            for n, layers in runs[tree][0]["sizes"].items()}

    for n in map(str, args.n):
        print(f"n = {n}: median us (quartile distance), one column per --src")
        for layer in out["trees"][trees[0]][n]:
            cells = [out["trees"][tree][n][layer] for tree in trees]
            print(f"  {layer:26}" + "".join(f"{c['median_us']:14.1f} ({c['quartile_distance_us']:7.1f})"
                                            + _figures(c) for c in cells))
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
