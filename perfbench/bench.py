"""Workloads, closed-loop timing and metrics of the fracgraph benchmark.

Every operation is one call of the public CLI entry point
`fracgraph.cli.main`, made in this process from a single client in a closed
loop: the next operation starts when the previous one has finished.  Each
operation gets its own seeded graph, written as JSON just before it and
outside its timed region; the warm-up uses another graph.  The loop runs
whole parameter cycles until --seconds have passed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

import fracgraph
from fracgraph import cli, flow

import audit
import tracer as tracing

ROOT = Path(__file__).resolve().parent.parent
TMP = ROOT / ".perfbench-tmp"
RUN_PY = Path(__file__).resolve().parent / "run.py"

AUDIT_CYCLE = ((0.3, 1.5, 0.5), (0.5, 2.0, 1.0), (0.7, 2.5, 1.5), (0.5, 3.0, 2.0))
SWEEP_GRID = ((0.25, 0.5, 0.75), (1.5, 2.5), (1.0, 2.0))
SWEEP_WORKERS = 2
U0_RANGE = (0.5, 2.0)
HARD_LIMIT_S = 165.0  # no operation may start if its budget would end later
SETUP_PROBES = 4  # extra set-ups in fresh interpreters, for the median


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    T: float
    dt_out: float
    sweep: bool
    budget_s: float  # wall-time budget of one operation
    # Checks whose failure is a known, reported defect of the program: such a
    # solve counts in `failed` but does not make the run incorrect.  Every
    # other failure (a crash, a timeout, any other check) does.
    known_defects: frozenset = frozenset()

    @property
    def cycle(self) -> int:
        """Operations per parameter cycle; a run completes whole cycles."""
        return 1 if self.sweep else len(AUDIT_CYCLE)

    def params(self, index: int) -> list[tuple[float, float, float]]:
        if self.sweep:
            return list(product(*SWEEP_GRID))
        return [AUDIT_CYCLE[index % len(AUDIT_CYCLE)]]


WORKLOADS = {w.name: w for w in (
    Workload("audit-n500", 500, 0.05, 1e-3, sweep=False, budget_s=30.0),
    Workload("audit-fine-n16", 16, 4.0, 2e-3, sweep=False, budget_s=30.0,
             known_defects=frozenset({"dissipation_bound"})),
    Workload("sweep-n500", 500, 0.005, 1e-3, sweep=True, budget_s=60.0),
)}


class OpTimeout(BaseException):
    """Raised by SIGALRM when an operation overruns its budget."""


def _on_alarm(signum, frame):
    # A hung sweep worker would block the pool's shutdown forever.
    for child in multiprocessing.active_children():
        child.terminate()
    raise OpTimeout


def since_start() -> float:
    """Seconds since this interpreter process started."""
    with open("/proc/self/stat") as f:
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


@dataclass
class OpInput:
    index: int  # -1 for the warm-up
    graph_path: Path
    mu: np.ndarray
    u0_seed: int

    def u0(self) -> np.ndarray:
        """The initial data the CLI draws for --u0-random with this seed."""
        rng = np.random.Generator(np.random.Philox(self.u0_seed))
        return rng.uniform(*U0_RANGE, size=len(self.mu))


def make_input(w: Workload, seed: int, index: int, work: Path) -> OpInput:
    rng = np.random.default_rng([seed, index + 1])
    graph = fracgraph.random_connected_graph(rng, w.n, extra_edge_prob=8.0 / w.n)
    path = work / f"graph-{index + 1}.json"
    path.write_text(fracgraph.graph_to_json(graph))
    return OpInput(index, path, graph.mu, int(rng.integers(2**31)))


def cli_args(w: Workload, inp: OpInput, out: Path, T: float,
             params: list[tuple[float, float, float]]) -> list[str]:
    common = ["--T", repr(T), "--dt-out", repr(w.dt_out),
              "--u0-random", *map(repr, U0_RANGE), "--seed", str(inp.u0_seed),
              "--output-dir", str(out)]
    if w.sweep:
        lists = [",".join(map(repr, sorted({c[k] for c in params}))) for k in range(3)]
        return ["sweep", str(inp.graph_path), "--s-list", lists[0], "--p-list", lists[1],
                "--q-list", lists[2], "--workers", str(SWEEP_WORKERS), *common]
    (s, p, q), = params
    return ["verify", str(inp.graph_path), "--s", repr(s), "--p", repr(p),
            "--q", repr(q), *common]


@dataclass
class OpResult:
    wall_s: float
    solves: list[audit.Solve]
    timed_out: bool
    bytes_written: int


def run_op(w: Workload, inp: OpInput, out: Path, budget: float,
           T: float | None = None, params=None) -> OpResult:
    """One timed call of fracgraph.cli.main, then the correctness gate."""
    T = w.T if T is None else T
    params = w.params(inp.index) if params is None else params
    args = cli_args(w, inp, out, T, params)
    stdout, stderr = io.StringIO(), io.StringIO()
    code, error = None, ""
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(args)
    except OpTimeout:
        error = f"timeout after {budget:g} s"
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an untyped error is a failed solve, not a crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    solves = judge(w, inp, out, code, error, stdout.getvalue(), T, params)
    written = sum(f.stat().st_size for f in out.rglob("*") if f.is_file()) if out.exists() else 0
    shutil.rmtree(out, ignore_errors=True)
    return OpResult(wall, solves, error.startswith("timeout"), written)


def judge(w: Workload, inp: OpInput, out: Path, code, error: str, stdout: str,
          T: float, params) -> list[audit.Solve]:
    u0 = inp.u0()
    if not w.sweep:
        (s, p, q), = params
        label = f"op {inp.index} s{s}_p{p}_q{q}"
        if code is None:
            return [audit.Solve(label, reason=error)]
        return [audit.check_audit(label, out, code, inp.mu, u0, s, p, q, T, w.dt_out)]
    # cmd_sweep prints "ok <tag>" or "FAIL <tag>" for each combination
    status = {tag: word for word, tag in (line.split(maxsplit=1) for line in stdout.splitlines()
                                          if line.startswith(("ok ", "FAIL ")))}
    solves = []
    for s, p, q in params:
        tag = f"s{s}_p{p}_q{q}"
        label = f"op {inp.index} {tag}"
        if code is None:
            solves.append(audit.Solve(label, reason=error))
        else:
            solves.append(audit.check_trajectory(
                label, out / tag, status.get(tag) == "ok", inp.mu, u0, q, T, w.dt_out))
    return solves


def set_up(w: Workload, seed: int, work: Path) -> list[str]:
    """Warm-up on its own graph: every parameter set, on a short horizon."""
    inp = make_input(w, seed, -1, work)
    notes = []
    if w.sweep:
        batches = [[(0.5, 2.5, 1.0)]]
        T = w.dt_out
    else:
        batches = [[c] for c in AUDIT_CYCLE]
        T = 5 * w.dt_out
    for params in batches:
        result = run_op(w, inp, work / "warmup", w.budget_s, T=T, params=params)
        notes += [f"warm-up {s.label}: {s.reason}" for s in result.solves if not s.ok]
    return notes


def probe_setups(w: Workload, seed: int, deadline: float) -> list[float]:
    """Set-up times of fresh interpreters that set up and exit."""
    times = []
    for _ in range(SETUP_PROBES):
        timeout = min(2 * w.budget_s, deadline - since_start())
        if timeout <= 0:
            break
        try:
            proc = subprocess.run(
                [sys.executable, str(RUN_PY), "--workload", w.name, "--seed", str(seed),
                 "--setup-probe"],
                cwd=ROOT, capture_output=True, text=True, timeout=timeout, check=True)
        except subprocess.TimeoutExpired:
            break
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "FRACGRAPH_OUTPUT_DIR": os.environ.get("FRACGRAPH_OUTPUT_DIR"),
        "nproc": len(os.sched_getaffinity(0)),
        "sweep_workers": SWEEP_WORKERS,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process and of its waited-for children."""
    kib = max(resource.getrusage(who).ru_maxrss
              for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib / 1024.0


def known_defect(w: Workload, solve: audit.Solve) -> bool:
    """Whether a failed solve failed only checks of a known, reported defect."""
    return bool(solve.failed_checks) and set(solve.failed_checks) <= w.known_defects


def run_loop(w: Workload, seed: int, seconds: float, work: Path, tracer=None):
    """Closed loop of whole parameter cycles for `seconds`.

    With a tracer, each operation runs twice on the same input: untraced,
    then traced.  Returns the untraced results and the (untraced, traced,
    span summary) triples.
    """
    plain, pairs = [], []
    start = time.perf_counter()
    index = 0
    while index % w.cycle or time.perf_counter() - start < seconds:
        if since_start() + w.budget_s * (2 if tracer else 1) > HARD_LIMIT_S:
            break
        inp = make_input(w, seed, index, work)
        plain.append(run_op(w, inp, work / "out", w.budget_s))
        if tracer and not plain[-1].timed_out:
            tracer.install()
            try:
                result = run_op(w, inp, work / "out", w.budget_s)
            finally:
                tracer.uninstall()
            pairs.append((plain[-1], result, tracing.summarize(tracer.take())))
        inp.graph_path.unlink()
        index += 1
    return plain, pairs


# Calls a traced run must see; zero calls means a wrapper no longer catches
# the code path, so the per-layer numbers would silently drop a layer.
EXPECTED_CALLS = (
    "cli.main", "graph.graph_from_json", "cli.graph_from_json", "graph.validate",
    "spectral.decompose", "operators.decompose", "spectral.kernel_weights",
    "operators.kernel_weights", "operators.build_kernel", "cli.build_kernel",
    "operators.frac_p_laplacian", "flow.frac_p_laplacian",
    "operators.dirichlet_p_energy", "flow.evolve_direct", "cli.evolve_direct",
    "flow.rhs_direct", "diagnostics.mass", "cli.mass",
)
EXPECTED_AUDIT = ("diagnostics.build_report", "cli.build_report",
                  "diagnostics.rhs_direct", "diagnostics.dirichlet_p_energy")
EXPECTED_SWEEP = ("cli._sweep_worker", "pool.wait", "cli.dirichlet_p_energy")


def layer_metrics(w: Workload, pairs, seed: int, work: Path) -> dict:
    """Per-layer metrics of a traced run (see README.md for each definition)."""
    summaries = [summ for _, _, summ in pairs]
    seen = {key for summ in summaries for key in summ["calls"]}
    expected = EXPECTED_CALLS + (EXPECTED_SWEEP if w.sweep else EXPECTED_AUDIT)
    missing = [key for key in expected if key not in seen]
    if missing:
        raise SystemExit(f"perfbench: traced run saw no calls of {missing}")

    def per_call(key, scale):
        return scale * statistics.median(
            d for summ in summaries for d in summ["durations"].get(key, []))

    def per_op(value):
        return statistics.median(value(summ) for summ in summaries)

    # counts repeat exactly: mean per operation over the first parameter cycle
    first = summaries[:w.cycle]

    def count(key, field="calls"):
        return sum(summ[field].get(key, 0) for summ in first) / len(first)

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    for key in ("graph.graph_from_json", "graph.validate", "spectral.decompose",
                "spectral.kernel_weights"):
        put(f"{key}.ms", per_call(key, 1e3), "ms")
    for key in ("operators.frac_p_laplacian", "operators.dirichlet_p_energy"):
        put(f"{key}.us", per_call(key, 1e6), "us")
    for key in ("graph.validate", "spectral.decompose", "spectral.kernel_weights",
                "operators.frac_p_laplacian", "operators.dirichlet_p_energy",
                "flow.rhs_direct", "diagnostics.rhs_direct",
                "diagnostics.dirichlet_p_energy"):
        put(f"{key}.calls", count(key), "count")
    put("flow.steps_accepted", count("steps_accepted", "attrs"), "count")
    put("flow.steps_rejected", count("steps_rejected", "attrs"), "count")
    put("diagnostics.samples", count("samples", "attrs"), "count")
    put("cli.bytes_written",
        sum(t.bytes_written for _, t, _ in pairs[:w.cycle]) / len(first), "B")
    put("operators.rhs_peak_alloc_mb", rhs_peak_alloc_mb(w, seed, work), "MB")

    put("flow.evolve_direct.self_s", per_op(lambda s: s["fn_self"]["flow.evolve_direct"]), "s")
    put("flow.self_us_per_rhs", 1e6 * sum(s["layer_self"]["flow"] for s in summaries)
        / sum(s["calls"]["flow.rhs_direct"] for s in summaries), "us")
    put("diagnostics.self_s", per_op(lambda s: s["layer_self"]["diagnostics"]), "s")
    put("cli.self_s", per_op(lambda s: s["layer_self"]["cli"]), "s")
    # On the audits the CLI runs in this process, its one worker.
    workers = SWEEP_WORKERS if w.sweep else 1
    put("cli.pool_busy_frac", statistics.median(
        (summ["worker_busy"] if w.sweep else summ["durations"]["cli.main"][0])
        / (workers * t.wall_s) for _, t, summ in pairs), "fraction")
    layer_self = {layer: sum(s["layer_self"][layer] for s in summaries)
                  for layer in tracing.LAYERS}
    for layer, own in layer_self.items():
        put(f"{layer}.share", own / sum(layer_self.values()), "fraction")
    put("trace.overhead_frac", sum(t.wall_s for _, t, _ in pairs)
        / sum(u.wall_s for u, _, _ in pairs) - 1.0, "fraction")
    return m


def rhs_peak_alloc_mb(w: Workload, seed: int, work: Path) -> float:
    """tracemalloc peak of one rhs_direct call at the workload's n, largest over p."""
    inp = make_input(w, seed, -1, work)
    graph = fracgraph.graph_from_json(inp.graph_path.read_text())
    kernel = fracgraph.build_kernel(graph, 0.5)
    u0 = inp.u0()
    peaks = []
    for p in sorted(SWEEP_GRID[1] if w.sweep else {c[1] for c in AUDIT_CYCLE}):
        tracemalloc.start()
        flow.rhs_direct(kernel, u0, p, 1.0, 1e-12)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    return max(peaks) / 2**20


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    signal.signal(signal.SIGALRM, _on_alarm)
    TMP.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=TMP))
    try:
        notes = set_up(w, args.seed, work)
        setup_s = since_start()
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        tracer = None
        if args.trace:
            (work / "spans").mkdir()
            tracer = tracing.Tracer(fracgraph, work / "spans")
        plain, pairs = run_loop(w, args.seed, args.seconds, work, tracer)
        rss = peak_rss_mb()
        if tracer:
            metrics = layer_metrics(w, pairs, args.seed, work)
        else:
            setups = [setup_s] + probe_setups(w, args.seed, HARD_LIMIT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP.rmdir()

    solves = [s for r in plain + [t for _, t, _ in pairs] for s in r.solves]
    failed = [s for s in solves if not s.ok]
    worst = max((v for s in solves for v in s.ratios.values()), default=0.0)
    # A timed-out operation stays in the wall time, at its full budget.
    timed = sum(r.wall_s for r in plain)
    done = sum(s.ok for r in plain for s in r.solves)
    if tracer:
        metrics["worst_check_ratio"] = {"value": worst, "unit": "ratio"}
    else:
        metrics = {
            "solves_per_s": {"value": done / timed if timed else 0.0, "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(r.wall_s for r in plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }

    print(f"# env {json.dumps(environment())}")
    print(f"# workload {w.name} n={w.n} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {len(plain)} untraced and {len(pairs)} traced operations, "
          f"{len(solves)} solves, untraced timed wall {timed:.3f} s")
    if not tracer:
        print(f"# setup_s samples {[round(t, 4) for t in setups]}")
    for note in notes:
        print(f"# {note}")
    for s in failed:
        print(f"# failed solve {s.label}: {s.reason} ratios "
              f"{ {k: round(v, 4) for k, v in s.ratios.items()} }")
    print(f"failed_frac {len(failed) / max(1, len(solves)):.6g} fraction "
          f"({len(failed)} of {len(solves)} solves)")
    if not tracer:
        print(f"worst_check_ratio {worst:.6g} ratio")
    for name, metric in metrics.items():
        extra = f" ({len(plain)} operations)" if name == "op_p50_s" else ""
        print(f"{name} {metric['value']:.6g} {metric['unit']}{extra}")
    print(json.dumps({
        "correct": bool(solves) and all(
            s.consistent and (s.ok or known_defect(w, s)) for s in solves),
        "attempted": len(solves),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0
