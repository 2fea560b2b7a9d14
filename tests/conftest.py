import signal
from contextlib import contextmanager

import numpy as np
import pytest

from fracgraph import Graph, build_kernel, flow, random_connected_graph


@pytest.fixture
def k2():
    """Two vertices, one unit edge, unit measure."""
    return Graph(mu=np.ones(2), weights=np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture
def p3():
    """Path on three vertices, unit measure and weights."""
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    return Graph(mu=np.ones(3), weights=w)


@pytest.fixture
def k5():
    """Complete graph on five vertices, unit measure and weights."""
    n = 5
    return Graph(mu=np.ones(n), weights=np.ones((n, n)) - np.eye(n))


@pytest.fixture
def k2_kernel(k2):
    return build_kernel(k2, 0.5)


@pytest.fixture
def k5_kernel(k5):
    return build_kernel(k5, 0.5)


@pytest.fixture(scope="session")
def philox_g40():
    """The 40-vertex random graph from Philox seed 42 that the Picard checks run on."""
    return random_connected_graph(np.random.Generator(np.random.Philox(42)), 40)


# the StepStats counts that each Picard sweep adds to its solve's one record
SWEEP_COUNTS = ("accepted", "rejected", "rejected_error", "rejected_positivity", "rhs_evals")


@pytest.fixture
def picard_sweeps(monkeypatch):
    """What each Picard sweep did: item i lists the sweeps of the i-th solve.

    The sweeps of a solve share one StepStats record, so a sweep's counts
    (SWEEP_COUNTS) are what it added to that record.  A sweep also holds the
    sizes of the steps that it accepted ("h") and its snap time.
    """
    solves, records, accepted = [], [], []
    integrate, accept = flow._integrate, flow._accept_step

    def accepting(*args):
        result = accept(*args)
        accepted.append(result[0])
        return result

    def recording(*args, **kwargs):
        accepted.clear()
        traj = integrate(*args, **kwargs)
        if not records or traj.stats is not records[-1]:  # the first sweep of a solve
            solves.append([])
            records.append(traj.stats)
        before = {name: sum(sweep[name] for sweep in solves[-1]) for name in SWEEP_COUNTS}
        solves[-1].append({name: getattr(traj.stats, name) - before[name]
                           for name in SWEEP_COUNTS})
        solves[-1][-1].update(h=list(accepted), snap_time=traj.stats.snap_time)
        return traj

    monkeypatch.setattr(flow, "_integrate", recording)
    monkeypatch.setattr(flow, "_accept_step", accepting)
    return solves


# the fractional orders that the kernel checks run at, from near 0 to near 1
REFERENCE_S = (0.05, 0.3, 0.7, 0.99)

# u0 on k2 and q whose flow overflows a float, each at its own term
OVERFLOWING_U0 = [
    pytest.param([1e308, 1e308], 1.0, id="mass"),  # vol u^q
    pytest.param([1e200, 1e200], 1.0, id="energy"),  # vol u^(q+1) alone
    pytest.param([1e30, 2e30], 12.0, id="divisor-max"),  # q u^(q-1) at max u0: du/dt reads 0
    pytest.param([1e-320, 1.0], 0.01, id="divisor-min"),  # q u^(q-1) at min u0
    pytest.param([1e-300, 1.0], 3.0, id="divisor-zero"),  # q u^(q-1) underflows to 0
]


def graph_doc(mu: dict, edges) -> dict:
    """A graph file document from the measure of each vertex id and edges (u, v, w)."""
    return {"vertices": [{"id": v, "mu": m} for v, m in mu.items()],
            "edges": [{"u": u, "v": v, "w": w} for u, v, w in edges]}


# valid graph documents that no flow can run on, each for its own reason
DEGENERATE_DOCS = {
    # the degree 2e308 of a overflows the Laplacian
    "inf": graph_doc({"a": 1.0, "b": 1.0, "c": 1.0}, [("a", "b", 1e308), ("a", "c", 1e308)]),
    # the degree over the measure of a, 1 / 1e-320, overflows the Laplacian
    "tiny": graph_doc({"a": 1e-320, "b": 1.0}, [("a", "b", 1.0)]),
    # the Laplacian's entries, 1e-300 / 1e300, underflow to 0: every eigenvalue is 0
    "wide": graph_doc({"a": 1e300, "b": 1e300}, [("a", "b", 1e-300)]),
    # the kernel is fine, but the total measure 2e308 overflows the flow's mass
    "bigmu": graph_doc({"a": 1e308, "b": 1e308}, [("a", "b", 1.0)]),
}


def make_random_graph(seed, n=None, weight_range=(0.2, 5.0), mu_range=(0.2, 5.0)):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 13))
    return random_connected_graph(rng, n, weight_range, mu_range)


def before_snap(traj):
    """The sample indices before the steady-state snap."""
    snap = traj.stats.snap_time
    return np.flatnonzero(traj.times < (np.inf if snap is None else snap))


def grid_doc(rows, cols):
    """The rows x cols grid as a graph file document, with unit weights and measure:
    vertex r cols + c is joined to its right and its lower neighbour."""
    edges = [(i, i + 1) for i in range(rows * cols) if i % cols < cols - 1]
    edges += [(i, i + cols) for i in range((rows - 1) * cols)]
    return {"vertices": [{"id": f"v{i}", "mu": 1.0} for i in range(rows * cols)],
            "edges": [{"u": f"v{i}", "v": f"v{j}", "w": 1.0} for i, j in edges]}


@contextmanager
def wall_clock_limit(seconds):
    """Fail with TimeoutError instead of hanging when the block overruns."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
