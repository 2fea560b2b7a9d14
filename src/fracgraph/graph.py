"""Finite weighted graphs with a vertex measure, and the classical graph Laplacian.

A graph is G = (V, E, mu, w): a finite vertex set carrying a positive measure
mu and symmetric positive edge weights w.  Vertex functions are plain 1-d
numpy arrays indexed like the vertices.  The (measure-normalized) Laplacian is

    (-Delta u)(x) = (1/mu(x)) * sum_{y ~ x} w_xy (u(x) - u(y)),

which is self-adjoint in the mu-weighted inner product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, InvalidGraph, LengthMismatch

__all__ = [
    "Graph",
    "Violation",
    "validate",
    "integrate",
    "mu_inner",
    "laplacian_matrix",
    "random_connected_graph",
    "graph_from_json",
    "graph_to_json",
]


@dataclass(frozen=True)
class Violation:
    """One failed invariant, naming the offending vertices or edges."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


# Most vertices of a graph: its n x n weight matrix holds 2^24 floats (128 MiB),
# as many as flow.MAX_SAMPLE_VALUES lets a run store.
MAX_VERTICES = 4096


class _Rebuilt:
    def __reduce__(self):  # pickle and deepcopy rebuild through the constructor and its checks
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True)
class Graph(_Rebuilt):
    """Connected finite weighted graph with positive vertex measure.

    Attributes
    ----------
    mu : (n,) positive vertex measure.
    weights : (n, n) symmetric matrix of edge weights; 0 means "no edge",
        the diagonal is 0 (no self-loops).
    labels : optional per-vertex identifiers, defaults to "v0", "v1", ...

    The graph keeps read-only copies of mu and weights (the loader and the
    generator hand over the arrays they built instead), so a graph that has
    passed validation stays valid and ``require_valid`` checks it only once.
    """

    mu: np.ndarray
    weights: np.ndarray
    labels: tuple[str, ...] = field(default=())
    _valid: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._take(np.array(self.mu, dtype=float), np.array(self.weights, dtype=float))

    @classmethod
    def _adopt(cls, mu: np.ndarray, weights: np.ndarray, labels: tuple[str, ...] = ()) -> "Graph":
        """A graph over float arrays built for it that nothing else references.

        It takes them without the copy that construction makes, so only the
        builders in this module, which own the arrays they pass, may call it.
        Keep it: the n x n copy it skips raised the sweep-n500 benchmark's peak
        RSS from 45.9-46.4 MB to 47.8-48.6 MB when the builders constructed.
        """
        graph = object.__new__(cls)
        object.__setattr__(graph, "labels", labels)
        object.__setattr__(graph, "_valid", False)
        graph._take(mu, weights)
        return graph

    def _take(self, mu: np.ndarray, w: np.ndarray) -> None:
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "weights", w)
        if not self.labels:
            object.__setattr__(self, "labels", tuple(f"v{i}" for i in range(len(mu))))
        mu.setflags(write=False)
        w.setflags(write=False)

    @property
    def n(self) -> int:
        return len(self.mu)

    @property
    def degrees(self) -> np.ndarray:
        """Weighted degree deg_w(x) = sum_y w_xy."""
        return self.weights.sum(axis=1)

    def volume(self) -> float:
        """Total measure of the vertex set; inf if it overflows a float."""
        try:
            return math.fsum(self.mu)
        except OverflowError:  # fsum raises where a plain sum would read inf
            return math.inf

    def require_valid(self) -> "Graph":
        if not self._valid:
            report = validate(self)
            if report:
                raise InvalidGraph(report)
            object.__setattr__(self, "_valid", True)
        return self


def _check_length(graph: Graph, f: np.ndarray, name: str = "f",
                  stack: bool = False) -> np.ndarray:
    """f as floats of shape (n,); with ``stack``, a stack (m, n) of them too."""
    f = np.asarray(f, dtype=float)
    if f.shape[-1:] != (graph.n,) or f.ndim > (2 if stack else 1):
        expected = f"({graph.n},)" + (f" or (m, {graph.n})" if stack else "")
        raise LengthMismatch(f"{name} has shape {f.shape}, expected {expected}")
    return f


def validate(graph: Graph) -> list[Violation]:
    """Check all structural invariants; an empty report means the graph is valid.

    Each invariant is one pass over the whole matrix; only the offending
    entries of a failed one are visited one by one, to name them.
    """
    report: list[Violation] = []
    mu, w, n, labels = graph.mu, graph.weights, graph.n, graph.labels
    if n < 2:
        report.append(Violation("TooFewVertices", f"n={n}, need at least 2"))
        return report
    if report := _too_many_vertices(n):
        return report
    if w.shape != (n, n):
        report.append(Violation("BadShape", f"weights shape {w.shape} != ({n},{n})"))
        return report

    def offending(mask: np.ndarray) -> np.ndarray:
        return np.argwhere(mask) if mask.any() else ()

    for i in np.flatnonzero(~np.isfinite(mu)):
        report.append(Violation("NonFiniteMeasure", f"mu({labels[i]}) = {mu[i]}"))
    for i in np.flatnonzero(mu <= 0):
        report.append(Violation("NonPositiveMeasure", f"mu({labels[i]}) = {mu[i]}"))

    finite = np.isfinite(w)
    differs = w != w.T
    if not finite.all():
        for i, j in np.argwhere(~finite):
            report.append(Violation("NonFiniteWeight", f"w({labels[i]},{labels[j]}) = {w[i, j]}"))
        differs &= finite & finite.T
    for i, j in offending(differs):
        if i < j:
            report.append(Violation("AsymmetricWeight",
                                    f"w({labels[i]},{labels[j]}) = {w[i, j]} != {w[j, i]}"))

    for i in np.flatnonzero(np.diag(w) != 0):
        report.append(Violation("SelfLoop", f"w({labels[i]},{labels[i]}) != 0"))

    for i, j in offending(w < 0):
        if i < j:
            report.append(Violation("NonPositiveWeight", f"w({labels[i]},{labels[j]}) = {w[i, j]}"))

    if not _connected(w):
        report.append(Violation("Disconnected", "graph has more than one component"))
    return report


def _too_many_vertices(n: int) -> list[Violation]:
    """[TooManyVertices] if n > MAX_VERTICES, else []; builders test it before any n x n array."""
    if n > MAX_VERTICES:
        return [Violation("TooManyVertices", f"n={n}, at most {MAX_VERTICES} allowed")]
    return []


def _connected(w: np.ndarray) -> bool:
    """Breadth-first reachability from vertex 0 over positive-weight edges.

    The search advances a whole level at a time: the next frontier is every
    unseen vertex that a positive entry in a row of the current one reaches.
    """
    adjacent, seen = w > 0, np.zeros(w.shape[0], dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=int)
    while frontier.size:
        reached = adjacent[frontier].any(axis=0) & ~seen
        seen |= reached
        frontier = np.flatnonzero(reached)
    return bool(seen.all())


def integrate(graph: Graph, f: np.ndarray) -> float:
    """Integral over the vertex set: sum_x f(x) mu(x), compensated summation."""
    f = _check_length(graph, f)
    return math.fsum(f * graph.mu)


def mu_inner(graph: Graph, f: np.ndarray, g: np.ndarray) -> float:
    """mu-weighted inner product <f, g>_mu = sum_x f(x) g(x) mu(x)."""
    return integrate(graph, _check_length(graph, f) * _check_length(graph, g, "g"))


def laplacian_matrix(graph: Graph) -> np.ndarray:
    """Dense matrix of -Delta: (A @ u)(x) = (1/mu(x)) sum_y w_xy (u(x) - u(y))."""
    with np.errstate(all="ignore"):  # a matrix that overflows is a DomainError below
        a = -graph.weights / graph.mu[:, None]
        np.fill_diagonal(a, graph.degrees / graph.mu)
    if not np.isfinite(a).all():
        raise DomainError("the Laplacian overflows a float")
    return a


# matrix entries in one block of rows of the extra-edge pass, which bounds
# the pass's index arrays and random draws to O(max(n, _PAIR_BLOCK))
_PAIR_BLOCK = 1 << 14


def random_connected_graph(
    rng: np.random.Generator,
    n: int,
    weight_range: tuple[float, float] = (0.2, 5.0),
    mu_range: tuple[float, float] = (0.2, 5.0),
    extra_edge_prob: float = 0.4,
) -> Graph:
    """Random connected graph: uniform random spanning tree plus extra edges.

    The draws from ``rng`` are, in order: ``uniform(*mu_range, size=n)``;
    ``permutation(n)``; for k = 1, ..., n-1 the tree edge from vertex k of the
    permutation to a uniform earlier one, ``integers(0, k)``, and its weight
    ``uniform(*weight_range)``.  Then each pair i < j without a tree edge, in
    row-major order, gets one ``random()`` test; a test below
    ``extra_edge_prob`` adds the edge, and the next draw d is its weight
    lo + (hi - lo) d.  Seeded graphs are reproducible through this order.
    More than MAX_VERTICES vertices raise InvalidGraph before any draw.
    """
    if report := _too_many_vertices(n):
        raise InvalidGraph(report)
    mu = rng.uniform(*mu_range, size=n)
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(0, k)]
        w[i, j] = w[j, i] = rng.uniform(*weight_range)
    lo, hi = float(weight_range[0]), float(weight_range[1])
    rows = max(1, _PAIR_BLOCK // max(n, 1))
    for r in range(0, n, rows):
        i, j = np.nonzero(np.triu(w[r:r + rows] == 0, r + 1))
        tested, draws = _tests_passed(rng, i.size, extra_edge_prob)
        i, j = r + i[tested], j[tested]
        w[i, j] = w[j, i] = lo + (hi - lo) * draws
    return Graph._adopt(mu, w).require_valid()


def _tests_passed(rng: np.random.Generator, k: int, prob: float):
    """Run k tests ``random() < prob`` in turn, each passed one followed by a draw.

    Returns the indices of the passed tests and the draws that follow them,
    having taken exactly the k + (passed) draws from ``rng`` that the loop
    takes.  The draws come in blocks, each as long as the tests still to run,
    and only a block's draws below ``prob`` are visited: one right after a
    passed test is that test's draw, any other is a passed test.  A block that
    ends on a passed test takes its draw from ``rng`` after the block.
    """
    tested, draws = [], []
    done = 0  # tests run
    while done < k:
        block = rng.random(k - done)
        inside = 0  # draws of passed tests inside the block
        follow = -1  # block index of the last passed test's draw
        for i in np.flatnonzero(block < prob).tolist():
            if i != follow:
                tested.append(done + i - inside)
                follow = i + 1
                if follow < block.size:
                    draws.append(block[follow])
                    inside += 1
                else:
                    draws.append(rng.random())
        done += block.size - inside
    return np.array(tested, dtype=np.intp), np.array(draws, dtype=float)


def graph_from_json(text: str) -> Graph:
    """Parse the graph interchange format.

    Expected shape::

        {"vertices": [{"id": str, "mu": float}, ...],
         "edges": [{"u": str, "v": str, "w": float}, ...]}

    Duplicate edges, self-loops and a measure or weight that is not a JSON
    number (true and "2" are not) are rejected.  A malformed document raises
    ValueError (a missing key KeyError), naming the first offending vertex or
    edge in file order; each edge is written into the weight matrix in turn.
    More than MAX_VERTICES vertices raise InvalidGraph before the matrix is made.
    """
    data = json.loads(text)
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("graph JSON must contain 'vertices' and 'edges'") from exc

    try:
        labels = [str(v["id"]) for v in vertices]
    except TypeError as exc:
        raise ValueError(f"vertices must be a list of objects: {exc}") from exc
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex ids")
    if report := _too_many_vertices(len(labels)):
        raise InvalidGraph(report)
    try:
        mu = np.array([_json_number(v["mu"], f"vertex {lab}: mu")
                       for v, lab in zip(vertices, labels)])
    except OverflowError as exc:
        raise ValueError(f"vertex measures must be numbers: {exc}") from exc
    index = {lab: i for i, lab in enumerate(labels)}

    n = len(labels)
    w = np.zeros((n, n))
    k = None
    try:
        for k, e in enumerate(edges):
            try:
                i, j = index[str(e["u"])], index[str(e["v"])]
            except KeyError as exc:
                raise ValueError(f"edge references unknown vertex {exc}") from exc
            if i == j:
                raise ValueError(f"self-loop at vertex {labels[i]}")
            if w[i, j]:  # an edge may replace only a zero-weight one; NaN is not zero
                raise ValueError(f"duplicate edge {labels[i]}-{labels[j]}")
            x = e["w"]
            if type(x) not in (int, float):  # _json_number's test, with no name built per edge
                raise ValueError(f"edge {labels[i]}-{labels[j]}: w = {x!r} is not a number")
            w[i, j] = w[j, i] = x
    except (TypeError, OverflowError) as exc:
        where = "edges" if k is None else f"edge {k}"
        raise ValueError(f"{where}: {exc}") from exc
    return Graph._adopt(mu, w, tuple(labels)).require_valid()


def _json_number(value, name: str) -> float:
    """A value that json.loads read from a JSON number, as a float; ValueError naming
    it otherwise.  json.loads gives true and false as bools, which are ints to Python."""
    if type(value) not in (int, float):
        raise ValueError(f"{name} = {value!r} is not a number")
    return float(value)


def graph_to_json(graph: Graph) -> str:
    """Serialize to the same interchange format accepted by graph_from_json.

    The edges are the positive entries of the upper triangle, in row-major order.
    The text is json.dumps(document, indent=2)'s, laid out here because that
    encoder runs in pure Python; json still spells each label, its C encoder each number.
    """
    labels = [json.dumps(lab) for lab in graph.labels]
    # flat indices, as the 2-D nonzero is slow on a sparse mask
    i, j = np.divmod(np.flatnonzero(np.triu(graph.weights > 0, 1)), graph.n)
    mus, ws = (json.dumps(x.tolist())[1:-1].split(", ") for x in (graph.mu, graph.weights[i, j]))
    vertices = [f'"id": {lab},\n      "mu": {m}' for lab, m in zip(labels, mus)]
    edges = [f'"u": {labels[a]},\n      "v": {labels[b]},\n      "w": {x}'
             for a, b, x in zip(i.tolist(), j.tolist(), ws)]
    lists = tuple("[\n    {\n      " + "\n    },\n    {\n      ".join(objects) + "\n    }\n  ]"
                  if objects else "[]" for objects in (vertices, edges))
    return '{\n  "vertices": %s,\n  "edges": %s\n}' % lists
