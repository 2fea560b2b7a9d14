"""Span tracer for the traced benchmark run.

The tracer wraps fracgraph's public functions from outside the package: each
function in TRACED is replaced by a wrapper at every module that binds it
(``operators.decompose`` as well as ``spectral.decompose``), so calls made
through any binding are seen.  A span records the function, its layer (the
module that defines it), the binding it was called through, its parent span
and its start and end on the system-wide monotonic clock.

The sweep's worker processes are forked while the wrappers are installed, so
they inherit them.  The wrapper of ``cli._sweep_worker`` starts a fresh span
list in the worker and writes it to the spool directory when the call ends;
the parent reads those files after the operation.

A layer's self time is the sum, over its spans, of the span's duration minus
the durations of its direct children.  The sweep's wait on its process pool
is a span of its own (layer ``pool``), so it is not counted as CLI work.
"""

from __future__ import annotations

import functools
import json
import os
import time
import types
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

LAYERS = ("graph", "spectral", "operators", "flow", "diagnostics", "cli")

# Wrapped functions, keyed by the module that defines them (their layer).
TRACED = {
    "graph": ("graph_from_json", "validate"),
    "spectral": ("decompose", "kernel_weights"),
    "operators": ("build_kernel", "frac_p_laplacian", "dirichlet_p_energy"),
    "flow": ("evolve_direct", "rhs_direct"),
    "diagnostics": ("build_report", "mass"),
    "cli": ("main", "_sweep_worker"),
}

# span fields
LAYER, FN, BINDING, PARENT, START, END, ATTRS = range(7)


class Tracer:
    """Installs wrappers, collects spans of one operation at a time."""

    def __init__(self, package: types.ModuleType, spool: Path):
        self.spool = spool
        self.modules = {"fracgraph": package}
        self.modules.update({name: getattr(package, name) for name in LAYERS})
        self.spans: list[list] = []
        self.stack: list[int] = []
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace every binding of every TRACED function by a wrapper."""
        for layer, names in TRACED.items():
            home = self.modules[layer]
            for name in names:
                original = getattr(home, name)  # AttributeError if renamed
                for binding, module in self.modules.items():
                    if getattr(module, name, None) is original:
                        self._patch(module, name, self._wrap(original, layer, binding))
        cli = self.modules["cli"]
        self._patch(cli, "ProcessPoolExecutor", self._pool_class())

    def uninstall(self):
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def _patch(self, module, name, replacement):
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    # -- spans ------------------------------------------------------------

    def _open(self, layer: str, fn: str, binding: str) -> list:
        parent = self.stack[-1] if self.stack else -1
        span = [layer, fn, binding, parent, time.perf_counter_ns(), 0, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list):
        span[END] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, fn, layer: str, binding: str):
        name = fn.__name__
        if name == "_sweep_worker":
            return self._wrap_worker(fn, layer, binding)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(layer, name, binding)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if name == "evolve_direct":
                span[ATTRS] = {
                    "steps_accepted": result.stats.accepted,
                    "steps_rejected": result.stats.rejected,
                    "samples": len(result.times),
                }
            return result

        return wrapper

    def _wrap_worker(self, fn, layer: str, binding: str):
        """Wrapper that runs in a sweep worker and spools its spans to a file."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inherited = tracer.spans, tracer.stack
            tracer.spans, tracer.stack = [], []
            span = tracer._open(layer, fn.__name__, binding)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)
                path = tracer.spool / f"{os.getpid()}-{span[START]}.json"
                path.write_text(json.dumps(tracer.spans))
                tracer.spans, tracer.stack = inherited

        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ProcessPoolExecutor):
            """Records the time the CLI waits on its workers as a `pool` span."""

            _wait_span = None

            def map(self, *args, **kwargs):
                if self._wait_span is None:
                    self._wait_span = tracer._open("pool", "wait", "cli")
                return super().map(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._wait_span is not None:
                        tracer._close(self._wait_span)

        return TracedPool

    def take(self) -> list[list[list]]:
        """Span trees of the finished operation: this process first, then workers."""
        trees = [self.spans]
        for path in sorted(self.spool.glob("*.json")):
            trees.append(json.loads(path.read_text()))
            path.unlink()
        self.spans, self.stack = [], []
        return trees


def summarize(trees: list[list[list]]) -> dict:
    """Per-operation totals of one traced operation.

    Returns layer self times (s), per-call durations (s) by "layer.fn",
    self time (s) by "layer.fn", call counts by "layer.fn" (all bindings) and
    by "binding.fn", summed span attributes, and the busy time (s) of sweep
    workers.
    """
    out = {
        "layer_self": dict.fromkeys(LAYERS, 0.0),
        "durations": {},
        "fn_self": {},
        "calls": {},
        "attrs": {},
        "worker_busy": 0.0,
    }
    for tree in trees:
        child = [0] * len(tree)
        for span in tree:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(tree):
            dur = span[END] - span[START]
            own = (dur - child[i]) * 1e-9
            key = f"{span[LAYER]}.{span[FN]}"
            if span[LAYER] in out["layer_self"]:
                out["layer_self"][span[LAYER]] += own
            out["durations"].setdefault(key, []).append(dur * 1e-9)
            out["fn_self"][key] = out["fn_self"].get(key, 0.0) + own
            calls = out["calls"]
            calls[key] = calls.get(key, 0) + 1
            if span[BINDING] != span[LAYER]:
                bkey = f"{span[BINDING]}.{span[FN]}"
                calls[bkey] = calls.get(bkey, 0) + 1
            for name, value in (span[ATTRS] or {}).items():
                out["attrs"][name] = out["attrs"].get(name, 0) + value
            if span[FN] == "_sweep_worker":
                out["worker_busy"] += dur * 1e-9
    return out
