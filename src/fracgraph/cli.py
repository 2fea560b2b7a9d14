"""Command-line interface: kernel, evolve, verify, and sweep subcommands.

Exit codes: 0 = all checks passed, 1 = a mathematical check failed,
2 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import __version__, operators
from .diagnostics import build_report, mass
from .errors import FracGraphError, PositivityViolation
from .flow import (FlowConfig, Trajectory, _check_state, _span, evolve_direct, picard_solve,
                   steady_state)
from .graph import Graph, _json_number, graph_from_json
from .operators import FractionalKernel, _row_blocks, build_kernel, dirichlet_p_energy
from .spectral import kernel_weights_oracle

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

class UsageError(Exception):
    pass


def _load_graph(path: str) -> Graph:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read graph file: {exc}") from exc
    try:
        return graph_from_json(text)
    except (ValueError, KeyError) as exc:
        raise UsageError(f"bad graph file {path}: {exc}") from exc


def _output_dir(path: str | Path) -> Path:
    """path, made now; a command calls this just before it writes its first file."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory: {exc}") from exc
    return path


def _csv_field(text: str) -> str:
    """text as one CSV field: quoted, with its quotes doubled, if it holds , " CR or LF
    (RFC 4180); as it is otherwise."""
    return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text


def _write_table(path: Path, header: list[str], columns: list[np.ndarray],
                 labels: tuple[str, ...] | None = None):
    """A CSV of header, then the rows of columns (arrays of one length, 1-D or 2-D) side
    by side in %.17g, each after its label if labels are given; a row block at a time."""
    with path.open("w") as file:
        file.write(",".join(header) + "\n")
        for block in _row_blocks(len(columns[0])):
            rows = np.column_stack([c[block] for c in columns]).tolist()
            row = ",".join(["%.17g"] * len(rows[0])) + "\n"
            if labels is not None:
                row, rows = "%s," + row, [[lab, *r] for lab, r in zip(labels[block], rows)]
            file.writelines(row % tuple(r) for r in rows)


def _plot_samples(times: np.ndarray, vals: np.ndarray, columns: int) -> np.ndarray:
    """Ascending indices of the samples of vals to draw across `columns` pixel columns.

    Up to 4 samples per column, every sample.  Beyond, the M4 reduction (Jugel et
    al., VLDB 2014): each column's first and last sample, and the series' first
    smallest and first largest there, so that the polyline through them spans in
    every column what the full one spans.  `times` ascend.
    """
    m = len(times)
    if m <= 4 * columns:
        return np.arange(m)
    col = np.minimum(np.floor((times - times[0]) / (times[-1] - times[0]) * columns),
                     columns - 1)
    starts = np.flatnonzero(np.diff(col, prepend=-1))
    # a stable sort by column, then value: a column's first entry is its extreme
    extremes = [np.lexsort((key, col))[starts] for key in (vals, -vals)]
    return np.unique(np.concatenate([starts, np.append(starts[1:], m) - 1, *extremes]))


def _svg_lineplot(path: Path, times: np.ndarray, series: dict[str, np.ndarray], title: str):
    """Minimal SVG line plot: one polyline per series, light axes, no deps."""
    width, height, margin = 640, 400, 50
    t0, t1 = float(times[0]), float(times[-1])
    y0, y1 = _span(np.concatenate(list(series.values())))

    def sx(t):
        return margin + (t - t0) / (t1 - t0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<text x="{width/2}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{margin}" y1="{height-margin}" x2="{width-margin}" '
        f'y2="{height-margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height-margin}" stroke="black"/>',
    ]
    for ci, (name, vals) in enumerate(series.items()):
        drawn = _plot_samples(times, vals, width - 2 * margin)
        pts = " ".join(f"{sx(t):.2f},{sy(v):.2f}" for t, v in zip(times[drawn], vals[drawn]))
        color = colors[ci % len(colors)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}"/>')
        parts.append(
            f'<text x="{width-margin+4}" y="{margin+14*ci+10}" fill="{color}" '
            f'font-size="11">{name}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


def _make_u0(graph: Graph, spec, q: float) -> tuple[np.ndarray, dict]:
    """u0 and its record from a vector or a generator spec; any fault, also an
    overflow of the flow at q, is a usage error."""
    try:
        kind = spec.get("kind") if isinstance(spec, dict) else None
        if isinstance(spec, list):
            u0 = np.array([_json_number(v, "u0 entry") for v in spec])
            meta = {"kind": "explicit"}
        elif kind == "constant":
            value = _json_number(spec["value"], "value")
            u0 = np.full(graph.n, value)
            meta = {"kind": "constant", "value": value}
        elif kind == "random-uniform":
            low, high = _json_number(spec["low"], "low"), _json_number(spec["high"], "high")
            seed = spec.get("seed", 0)
            if type(seed) is not int:  # not a bool either
                raise ValueError(f"seed = {seed!r} is not an integer")
            if not (0.0 < low < np.inf and 0.0 < high < np.inf):
                raise ValueError("random-uniform u0 bounds must be positive and finite")
            rng = np.random.Generator(np.random.Philox(seed))
            u0 = rng.uniform(low, high, size=graph.n)
            meta = {"kind": "random-uniform", "low": low, "high": high,
                    "generator": "philox", "seed": seed}
        elif isinstance(spec, dict):
            raise ValueError(f"unknown u0 generator kind: {kind!r}")
        else:
            raise ValueError("u0 must be a vector or a generator spec")
        # _check_state's typed errors (length, finiteness, positivity, overflow) are ValueErrors
        return _check_state(graph, u0, q), meta
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise UsageError(f"bad u0 {spec!r}: {exc}") from exc


# Flags and config files set FlowConfig's fields; one left unset takes FlowConfig's
# default.  The CLI's own defaults: fields FlowConfig has none for, solver and u0.
_FLOW_KEYS = tuple(f.name for f in fields(FlowConfig))
_CONFIG_KEYS = (*_FLOW_KEYS, "solver", "u0")
_CLI_DEFAULTS = {"s": 0.5, "p": 2.0, "q": 1.0, "T": 1.0, "solver": "direct",
                 "u0": {"kind": "constant", "value": 1.0}}
_SOLVERS = ("direct", "picard")


def _flow_config(values: dict, n: int) -> FlowConfig:
    try:
        return FlowConfig(**{k: values[k] for k in _FLOW_KEYS if k in values})._require_size(n)
    except FracGraphError as exc:
        raise UsageError(str(exc)) from exc


def _resolve(args) -> dict:
    """Every FlowConfig field, "solver" and "u0": the flag, else --config, else the default.

    A FlowConfig field that none of them sets is left out, and a --config key
    that is none of these is a usage error.  --seed sets the seed of the u0 so
    resolved, which must be a random-uniform spec.
    """
    try:
        data = json.loads(Path(args.config).read_text()) if args.config else {}
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad config file: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must hold a JSON object")
    if unknown := sorted(data.keys() - _CONFIG_KEYS):
        raise UsageError(f"config file sets unknown keys: {', '.join(unknown)}")
    # a sweep's lists set every exponent, so a config file's would be dropped
    if args.command == "sweep" and (dropped := sorted(data.keys() & {"s", "p", "q"})):
        raise UsageError(f"config file sets {', '.join(dropped)}; a sweep takes s, p "
                         "and q from --s-list, --p-list and --q-list only")
    flags = {**vars(args), "u0": None}
    if args.u0_constant is not None:
        flags["u0"] = {"kind": "constant", "value": args.u0_constant}
    elif args.u0_random is not None:
        low, high = args.u0_random
        flags["u0"] = {"kind": "random-uniform", "low": low, "high": high}
    # sources in rising precedence, so that the last one to set a key wins
    values = {key: source[key] for source in (_CLI_DEFAULTS, data, flags)
              for key in _CONFIG_KEYS if source.get(key) is not None}
    if args.seed is not None:
        if not (isinstance(values["u0"], dict) and values["u0"].get("kind") == "random-uniform"):
            raise UsageError("--seed needs a random-uniform u0")
        values["u0"] = {**values["u0"], "seed": args.seed}
    if values["solver"] not in _SOLVERS:
        raise UsageError(f"unknown solver {values['solver']!r}")
    return values


def cmd_kernel(args) -> int:
    graph = _load_graph(args.graph)
    if not 0.0 < args.s < 1.0:
        raise UsageError(f"s = {args.s}, need 0 < s < 1")
    kernel = build_kernel(graph, args.s)
    w, dec = kernel.w, kernel.dec
    w_oracle = kernel_weights_oracle(dec, args.s)
    # relative to W's entry, or to the oracle's where W's is 0; where both are, as on the
    # diagonal, diff is 0 and stays so
    diff = np.abs(w - w_oracle)
    scale = np.where(w != 0, w, w_oracle)
    np.abs(scale, out=scale)
    dev = float(np.max(np.divide(diff, scale, out=diff, where=scale > 0)))
    report = {
        "s": args.s,
        "min_offdiagonal": float(np.min(w, where=~np.eye(graph.n, dtype=bool), initial=np.inf)),
        "oracle_max_relative_deviation": dev,
    }
    out = _output_dir(args.output_dir)
    labels = tuple(map(_csv_field, graph.labels))
    _write_table(out / "kernel.csv", ["", *labels], [w], labels)
    (out / "eigenvalues.json").write_text(json.dumps(
        {"eigenvalues": [float(v) for v in dec.eigenvalues]}, indent=2) + "\n")
    (out / "kernel_report.json").write_text(json.dumps(report, indent=2) + "\n")

    # _assemble_kernel returns -C^T C from a symmetric rank-k update, exactly symmetric
    ok = report["min_offdiagonal"] > 0
    print(f"{'PASS' if ok else 'FAIL'} kernel positivity/symmetry "
          f"(min offdiag {report['min_offdiagonal']:.3e}, "
          f"oracle deviation {dev:.3e})")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _setup(graph: Graph, values: dict, kernel_of=None):
    """Admit a flow run in evolve's order (config, u0, kernel); returns (kernel, config,
    solver, u0, u0's record).  The kernel is kernel_of(s) if kernel_of is given, else
    built from the graph.  It makes no directory, so a refused run leaves none."""
    config = _flow_config(values, graph.n)
    u0, u0_meta = _make_u0(graph, values["u0"], config.q)
    kernel = kernel_of(config.s) if kernel_of else build_kernel(graph, config.s)
    return kernel, config, values["solver"], u0, u0_meta


def _solve(kernel: FractionalKernel, config: FlowConfig, solver: str, u0: np.ndarray,
           u0_meta: dict) -> tuple[Trajectory | None, dict]:
    """Solve; returns the trajectory (None on a solver fault, which it prints as FAIL
    solver) and the run record that summary.json and report.json hold.  verify writes
    no report.json on a fault: its readers, perfbench's audit among them, take one to
    hold a trajectory's diagnostics."""
    record = {"solver": solver, "config": asdict(config), "u0": u0_meta}
    try:
        if solver == "picard":
            traj, iters, history = picard_solve(kernel, u0, config)
        else:
            traj, iters, history = evolve_direct(kernel, u0, config), None, None
    except FracGraphError as exc:
        print(f"FAIL solver: {type(exc).__name__}: {exc}", file=sys.stderr)
        return None, {**record, "error": type(exc).__name__, "message": str(exc)}
    c = steady_state(kernel.graph, u0, config.q)
    return traj, {**record, "steady_state": c,
                  "steady_state_error": float(np.max(np.abs(traj.final - c))),
                  "picard_iterations": iters, "picard_history": history, **traj.stats.telemetry()}


def _evolve_and_write(kernel: FractionalKernel, config: FlowConfig, solver: str,
                      u0: np.ndarray, u0_meta: dict, out: str | Path, emit_plots: bool) -> int:
    """Solve; write summary.json and, from a trajectory, trajectory.csv and flow.svg if asked."""
    traj, record = _solve(kernel, config, solver, u0, u0_meta)
    out = _output_dir(out)
    (out / "summary.json").write_text(json.dumps(record, indent=2) + "\n")
    if traj is None:
        return EXIT_CHECK_FAILED

    values = traj.values
    columns = {
        "min_u": values.min(axis=1),
        "max_u": values.max(axis=1),
        "mass": mass(kernel.graph, values, config.q),
        "dirichlet_p_energy": dirichlet_p_energy(kernel, values, config.p),
    }
    _write_table(out / "trajectory.csv",
                 ["t", *(f"u_{i+1}" for i in range(kernel.n)), *columns],
                 [traj.times, values, *columns.values()])
    if emit_plots:
        _svg_lineplot(out / "flow.svg", traj.times, columns, title="flow diagnostics")
    return EXIT_OK


def cmd_evolve(args) -> int:
    values = _resolve(args)
    return _evolve_and_write(*_setup(_load_graph(args.graph), values), args.output_dir,
                             args.emit_plots)


def cmd_verify(args) -> int:
    values = _resolve(args)
    kernel, config, *run = _setup(_load_graph(args.graph), values)
    traj, record = _solve(kernel, config, *run)
    if traj is None:
        return EXIT_CHECK_FAILED

    report = build_report(traj, kernel, config)
    checks = {row.name: row.passed for row in report.check_table}
    (_output_dir(args.output_dir) / "report.json").write_text(report.to_json(
        **record, checks=checks, initial_mass=mass(kernel.graph, traj.u0, config.q)) + "\n")
    for row in report.check_table:
        print(f"{'PASS' if row.passed else 'FAIL'} {row.name} (measured {row.measured:.3e}, "
              f"threshold {row.threshold:.3e}, margin {row.threshold - row.measured:.3e})")
    return EXIT_OK if all(checks.values()) else EXIT_CHECK_FAILED


def _sweep_tag(s: float, p: float, q: float) -> str:
    return f"s{s}_p{p}_q{q}"


def _sweep_worker(share) -> list[tuple[str, int]]:
    """Evolve a contiguous share of the grid; returns each point's (tag, exit code).

    Each point is set up as an evolve run, so a tag reports its first fault in
    evolve's order.  The graph is loaded at the first point and kept; a fault in it
    fails each tag.  Its one decomposition, made at the first kernel, builds each s's
    kernel, kept while s repeats; a kernel failing positivity fails all its s's tags.
    """
    graph_path, outdir, values, points = share
    results, graph = [], None
    dec = functools.cache(lambda: operators.decompose(graph))  # of the graph loaded below
    kernel_of = functools.lru_cache(maxsize=1)(lambda s: build_kernel(graph, s, dec()))
    for s, p, q in points:
        tag = _sweep_tag(s, p, q)
        try:
            graph = graph or _load_graph(graph_path)
            run = _setup(graph, {**values, "s": s, "p": p, "q": q}, kernel_of)
            results.append((tag, _evolve_and_write(*run, Path(outdir) / tag, emit_plots=False)))
        except UsageError as exc:
            print(f"sweep {tag}: {exc}", file=sys.stderr)
            results.append((tag, EXIT_USAGE))
        except PositivityViolation as exc:
            print(f"sweep {tag}: PositivityViolation: {exc}", file=sys.stderr)
            results.append((tag, EXIT_CHECK_FAILED))
    return results


def cmd_sweep(args) -> int:
    combos = list(product(args.s_list, args.p_list, args.q_list))
    if not combos:
        raise UsageError("--s-list, --p-list and --q-list must each hold a value")
    repeated = sorted(tag for tag, k in Counter(_sweep_tag(*c) for c in combos).items() if k > 1)
    if repeated:
        raise UsageError(f"a list repeats a value, so these runs would repeat: {repeated}")
    if args.workers is not None and args.workers < 1:
        raise UsageError(f"--workers {args.workers}, need at least 1")
    values = _resolve(args)
    # run-wide faults, once; those of the graph file, u0 and the size at its n stay
    # per tag, since loading the graph here would grow every forked worker
    _flow_config(values, 2)  # a graph has at least 2 vertices
    out = _output_dir(args.output_dir)
    # one per CPU this process may run on, and none idle: a fork pool starts all at once
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(args.workers or cpus or 1, len(combos))
    # contiguous shares of the s-major grid, whose sizes differ by at most one
    shares = [(args.graph, str(out), values, [combos[i] for i in share])
              for share in np.array_split(range(len(combos)), workers)]
    worst = EXIT_OK
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for tag, code in chain.from_iterable(pool.map(_sweep_worker, shares)):
            print(f"{'ok' if code == 0 else 'FAIL'} {tag}")
            worst = max(worst, code)
    return worst


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _add_flow_flags(sub, skip=()):
    # a float flag per FlowConfig field
    for key in _FLOW_KEYS:
        if key not in skip:
            sub.add_argument("--" + key.replace("_", "-"), type=float, default=None)
    sub.add_argument("--config", help="JSON config file; flags override its fields")
    sub.add_argument("--solver", choices=_SOLVERS, default=None)
    u0 = sub.add_mutually_exclusive_group()
    u0.add_argument("--u0-constant", type=float, default=None)
    u0.add_argument("--u0-random", nargs=2, type=float, metavar=("LOW", "HIGH"), default=None)
    sub.add_argument("--seed", type=int, default=None, help="seed of a random-uniform u0")
    sub.add_argument("--output-dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracgraph",
        description="Fractional p-Laplacian flows on finite weighted graphs",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    k = subs.add_parser("kernel", help="compute the fractional kernel W_s")
    k.add_argument("graph")
    k.add_argument("--s", type=float, required=True)
    k.add_argument("--output-dir", default="out")
    k.set_defaults(func=cmd_kernel)

    for name, func, extra_help in [
        ("evolve", cmd_evolve, "solve the flow and dump the trajectory"),
        ("verify", cmd_verify, "solve the flow and check every estimate"),
    ]:
        sub = subs.add_parser(name, help=extra_help)
        sub.add_argument("graph")
        _add_flow_flags(sub)
        if name == "evolve":
            sub.add_argument("--emit-plots", action="store_true")
        sub.set_defaults(func=func)

    # no abbreviations, so that --q is a usage error, not a short --q-list
    sw = subs.add_parser("sweep", help="cartesian parameter sweep over s/p/q", allow_abbrev=False)
    sw.add_argument("graph")
    # a sweep takes its exponents from --s-list, --p-list and --q-list only
    _add_flow_flags(sw, skip=("s", "p", "q"))
    sw.add_argument("--s-list", type=_float_list, required=True)
    sw.add_argument("--p-list", type=_float_list, required=True)
    sw.add_argument("--q-list", type=_float_list, required=True)
    sw.add_argument("--workers", type=int, default=None)
    sw.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FracGraphError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
