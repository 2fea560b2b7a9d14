#!/usr/bin/env python3
"""Where picard_solve stops: sweeps, RHS counts and errors, for one or more source trees.

    python3 scripts/picard_stop.py [--src SRC]... [--tol TOL ...] [--out FILE]

Each instance runs to T = 1 (dt_out = T/200) at atol = rtol = TOL, for each
TOL (default 1e-5, 1e-9 and 1e-12).  The instances: 12 random graphs, graph
i = 0..11 from random_connected_graph(default_rng([15, i]), n) with n drawn
in [4, 29], s uniform in [0.2, 0.8], p = (1.5, 2, 2.5, 3)[i % 4], q = (0.5,
1.5, 3)[i // 4] and u0 uniform in [0.5, 2], in that order from the same
generator; K5 at (0.5, 2.5, 1.5) from default_rng(10).uniform(0.5, 2, 5)
(acceptance criterion 10); and the 40-vertex graph from Philox(42) at (0.7,
2.5, 1.5) from Philox(3).uniform(0.5, 2, 40).

For each instance and tolerance it states picard_solve's sweep count, the RHS
count of all its sweeps and its sup error over the output grid against an
evolve_direct solve at atol = rtol = 1e-13, and the same error and RHS count
of evolve_direct at TOL.  A solve that raises names its error instead.  Each
tree (SRC holds the fracgraph package; default: the src/ of this checkout)
runs in its own child process with BLAS on one thread.  The last line gives,
over every instance, the largest ratio of the last tree's Picard error to the
larger of 1.1 times the first tree's and evolve_direct's at the same
tolerance: at most 1 means the last tree stops no worse.  `--out` writes the
rows as JSON.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REFERENCE_TOL = 1e-13


def _instances():
    """(name, graph, (s, p, q), u0) of each instance."""
    import numpy as np

    import fracgraph as fg

    for i in range(12):
        rng = np.random.default_rng([15, i])
        n = int(rng.integers(4, 30))
        s = float(rng.uniform(0.2, 0.8))
        graph = fg.random_connected_graph(rng, n)
        yield (f"r{i}", graph, (s, (1.5, 2.0, 2.5, 3.0)[i % 4], (0.5, 1.5, 3.0)[i // 4]),
               rng.uniform(0.5, 2.0, n))
    k5 = fg.Graph(mu=np.ones(5), weights=np.ones((5, 5)) - np.eye(5))
    yield "k5", k5, (0.5, 2.5, 1.5), np.random.default_rng(10).uniform(0.5, 2.0, 5)
    g40 = fg.random_connected_graph(np.random.Generator(np.random.Philox(42)), 40)
    yield ("philox_g40", g40, (0.7, 2.5, 1.5),
           np.random.Generator(np.random.Philox(3)).uniform(0.5, 2.0, 40))


def child(src: str, tols: list[float]) -> list[dict]:
    """Every instance at every tolerance, in this process, with BLAS on one thread."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    os.environ["OMP_NUM_THREADS"] = "1"
    sys.path.insert(0, src)
    import numpy as np

    import fracgraph as fg

    rows = []
    for name, graph, (s, p, q), u0 in _instances():
        kernel = fg.build_kernel(graph, s)
        exact = fg.evolve_direct(kernel, u0, fg.FlowConfig(s=s, p=p, q=q, T=1.0,
                                                           atol=REFERENCE_TOL,
                                                           rtol=REFERENCE_TOL)).values
        for tol in tols:
            config = fg.FlowConfig(s=s, p=p, q=q, T=1.0, atol=tol, rtol=tol)
            row = {"instance": name, "n": graph.n, "s": s, "p": p, "q": q, "tol": tol}
            try:
                traj, sweeps, _ = fg.picard_solve(kernel, u0, config)
                row.update(sweeps=sweeps, rhs=traj.stats.rhs_evals,
                           error=float(np.max(np.abs(traj.values - exact))))
            except fg.FracGraphError as exc:
                row.update(sweeps=None, rhs=None, error=None, raised=type(exc).__name__)
            direct = fg.evolve_direct(kernel, u0, config)
            row.update(direct_rhs=direct.stats.rhs_evals,
                       direct_error=float(np.max(np.abs(direct.values - exact))))
            rows.append(row)
    return rows


def _cell(row: dict) -> str:
    if row["error"] is None:
        return f"{row['raised']:>27}"
    return f"{row['sweeps']:4d} {row['rhs']:7d} {row['error']:9.2e}"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", action="append", help="directory holding the fracgraph package; "
                    "give it once per tree")
    ap.add_argument("--tol", type=float, nargs="+", default=[1e-5, 1e-9, 1e-12])
    ap.add_argument("--out", type=Path)
    ap.add_argument("--child", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        json.dump(child(args.child, args.tol), sys.stdout)
        return 0

    trees = [str(Path(s).resolve()) for s in args.src or [SRC]]
    runs = [json.loads(subprocess.run([sys.executable, __file__, "--child", tree,
                                       "--tol", *map(str, args.tol)],
                                      stdout=subprocess.PIPE, text=True, check=True).stdout)
            for tree in trees]
    print("instance   n  s     p   q    tol    | direct: rhs  error    | "
          "per --src: sweeps  rhs  error")
    worst = 0.0
    for rows in zip(*runs):
        first, last = rows[0], rows[-1]
        print(f"{first['instance']:10} {first['n']:2d} {first['s']:.3f} {first['p']:3} "
              f"{first['q']:3} {first['tol']:.0e} | {first['direct_rhs']:7d} "
              f"{first['direct_error']:9.2e} |" + " |".join(_cell(r) for r in rows))
        if last["error"] is None:  # a last-tree solve that raises counts as unbounded
            worst = float("inf")
        elif first["error"] is not None:
            worst = max(worst, last["error"] / max(1.1 * first["error"], first["direct_error"]))
    print("largest last-tree Picard error over max(1.1 x first tree's, direct's): "
          f"{worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps({"trees": dict(zip(trees, runs))}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
