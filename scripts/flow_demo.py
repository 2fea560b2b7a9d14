#!/usr/bin/env python3
"""Solve the doubly nonlinear flow on the complete graph K5 for several
(p, q) pairs and report conservation/decay diagnostics for each run.

Usage: python3 scripts/flow_demo.py [--T 10] [--s 0.5] [--outdir out/demo]
"""

import argparse
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

import fracgraph as fg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=float, default=0.5)
    ap.add_argument("--T", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--outdir", default="out/demo")
    args = ap.parse_args()

    n = 5
    graph = fg.Graph(mu=np.ones(n), weights=np.ones((n, n)) - np.eye(n))
    kernel = fg.build_kernel(graph, args.s)
    rng = np.random.Generator(np.random.Philox(args.seed))
    u0 = rng.uniform(0.5, 2.0, n)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"K5, s = {args.s}, T = {args.T}, u0 in [0.5, 2] (philox seed {args.seed})")
    header = f"{'p':>4} {'q':>4} {'steps':>6} {'mass drift':>11} {'steady err':>11} {'final energy':>13}"
    print(header)
    for p, q in [(1.5, 0.5), (2.0, 1.0), (2.0, 2.0), (3.0, 1.0)]:
        cfg = fg.FlowConfig(s=args.s, p=p, q=q, T=args.T)
        traj = fg.evolve_direct(kernel, u0, cfg)
        report = fg.build_report(traj, kernel, cfg)
        tag = f"p{p}_q{q}"
        (outdir / f"report_{tag}.json").write_text(
            json.dumps({**asdict(report), "p": p, "q": q}, indent=2) + "\n")
        print(
            f"{p:>4} {q:>4} {traj.stats.accepted:>6} "
            f"{report.mass_drift:>11.3e} {report.steady_state_error:>11.3e} "
            f"{report.final_gradient_energy:>13.3e}"
        )
    print(f"reports written to {outdir}/")


if __name__ == "__main__":
    main()
