"""Loop forms of graph ingest, validation, generation, serialization and the
spectral set-up, for tests only.

These are the per-edge, per-entry, per-pair and per-eigenvector loops the
library first used.  The library now runs them as whole-array passes; tests
compare the two for equal matrices, equal Violation lists, equal exceptions,
equal random streams and JSON text, and bitwise equal eigenfunctions.  The
library's kernel is the symmetric product -C^T C, which rounds differently
from the averaged product here, so kernels are compared within a tolerance.
The quadrature oracle's two-grid form, which evaluated its integrand once for
each Simpson sum, is compared with the library's one evaluation bit for bit.
"""

import json
import math
from collections import deque

import numpy as np

from fracgraph import Graph, InvalidGraph, SpectralDecomposition, Violation, spectral
from fracgraph.errors import (
    DomainError,
    ExponentOutOfRange,
    NoConvergence,
    PositivityViolation,
    QuadratureNotConverged,
)


def validate(graph):
    report = []
    mu, w, n = graph.mu, graph.weights, graph.n
    if n < 2:
        report.append(Violation("TooFewVertices", f"n={n}, need at least 2"))
        return report
    if w.shape != (n, n):
        report.append(Violation("BadShape", f"weights shape {w.shape} != ({n},{n})"))
        return report

    for i in np.flatnonzero(~np.isfinite(mu)):
        report.append(Violation("NonFiniteMeasure", f"mu({graph.labels[i]}) = {mu[i]}"))
    for i in np.flatnonzero(mu <= 0):
        report.append(Violation("NonPositiveMeasure", f"mu({graph.labels[i]}) = {mu[i]}"))

    finite = np.isfinite(w)
    for i, j in np.argwhere(~finite):
        report.append(
            Violation("NonFiniteWeight", f"w({graph.labels[i]},{graph.labels[j]}) = {w[i, j]}")
        )
    for i, j in np.argwhere(finite & finite.T & (w != w.T)):
        if i < j:
            report.append(Violation(
                "AsymmetricWeight",
                f"w({graph.labels[i]},{graph.labels[j]}) = {w[i, j]} != {w[j, i]}"))
    for i in np.flatnonzero(np.diag(w) != 0):
        report.append(Violation("SelfLoop", f"w({graph.labels[i]},{graph.labels[i]}) != 0"))
    for i, j in np.argwhere(w < 0):
        if i < j:
            report.append(Violation("NonPositiveWeight",
                                    f"w({graph.labels[i]},{graph.labels[j]}) = {w[i, j]}"))
    if not connected(w):
        report.append(Violation("Disconnected", "graph has more than one component"))
    return report


def connected(w):
    n = w.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[0] = True
    queue = deque([0])
    while queue:
        x = queue.popleft()
        for y in np.flatnonzero(w[x] > 0):
            if not seen[y]:
                seen[y] = True
                queue.append(y)
    return bool(seen.all())


def parse(text):
    """The graph of a document, unvalidated, with the per-edge matrix writes."""
    data = json.loads(text)
    try:
        vertices = data["vertices"]
        edges = data["edges"]
    except (TypeError, KeyError) as exc:
        raise ValueError("graph JSON must contain 'vertices' and 'edges'") from exc

    labels = [str(v["id"]) for v in vertices]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate vertex ids")
    index = {lab: i for i, lab in enumerate(labels)}
    mu = np.array([number(v["mu"], f"vertex {lab}: mu") for v, lab in zip(vertices, labels)])

    n = len(labels)
    w = np.zeros((n, n))
    for e in edges:
        try:
            i, j = index[str(e["u"])], index[str(e["v"])]
        except KeyError as exc:
            raise ValueError(f"edge references unknown vertex {exc}") from exc
        if i == j:
            raise ValueError(f"self-loop at vertex {labels[i]}")
        if w[i, j] != 0:
            raise ValueError(f"duplicate edge {labels[i]}-{labels[j]}")
        w[i, j] = w[j, i] = number(e["w"], f"edge {labels[i]}-{labels[j]}: w")
    return Graph(mu=mu, weights=w, labels=tuple(labels))


def number(value, name):
    """A JSON number as a float: an int or a float, not a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} = {value!r} is not a number")
    return float(value)


def graph_from_json(text):
    graph = parse(text)
    report = validate(graph)
    if report:
        raise InvalidGraph(report)
    return graph


def decompose(graph, zero_tol=1e-10):
    rmu = np.sqrt(graph.mu)
    s_mat = -graph.weights / np.outer(rmu, rmu)
    np.fill_diagonal(s_mat, graph.degrees / graph.mu)
    try:
        vals, psi = np.linalg.eigh(s_mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    lam_max = float(vals[-1]) if vals[-1] > 0 else 1.0
    if abs(vals[0]) >= zero_tol * lam_max:
        raise NoConvergence(f"smallest eigenvalue {vals[0]:.3e} is not numerically zero")
    vals = vals.copy()
    vals[0] = 0.0

    phi = (psi / rmu[:, None]).T
    for i in range(len(vals)):
        k = int(np.argmax(np.abs(phi[i])))
        if phi[i, k] < 0:
            phi[i] = -phi[i]
    return SpectralDecomposition(graph=graph, eigenvalues=vals, phi=np.ascontiguousarray(phi))


def kernel_weights(dec, s):
    if not 0.0 < s < 1.0:
        raise ExponentOutOfRange(f"s = {s}, need 0 < s < 1")
    powers = np.where(dec.eigenvalues > 0, dec.eigenvalues, 1.0) ** s
    powers[dec.eigenvalues <= 0] = 0.0
    mu = dec.graph.mu
    w = -np.outer(mu, mu) * (dec.phi.T @ (powers[:, None] * dec.phi))
    w = 0.5 * (w + w.T)
    np.fill_diagonal(w, 0.0)
    off = w[~np.eye(dec.graph.n, dtype=bool)]
    scale = float(np.max(np.abs(off))) if off.size else 0.0
    if off.size and float(np.min(off)) < -1e-12 * scale:
        raise PositivityViolation(f"min off-diagonal entry {np.min(off):.3e} at s={s}")
    return w


def fractional_power_quadrature(lam, s):
    """The quadrature with its core and its check evaluated on grids of their own,
    at the module's grid constants as they are when called."""
    if not 0.0 < s < 1.0:
        raise ExponentOutOfRange(f"s = {s}, need 0 < s < 1")
    if lam == 0.0:
        return 0.0
    if not lam > 0.0:
        raise DomainError(f"lam = {lam}, need lam >= 0")
    tau_min, tau_max, panels = spectral._TAU_MIN, spectral._TAU_MAX, spectral._PANELS
    k = math.frexp(lam)[1]
    lam_k, shift = math.ldexp(lam, -k), k * math.log(2.0)

    def simpson(n_panels):
        sigma = np.linspace(tau_min, tau_max, n_panels + 1)
        f = -np.expm1(-lam_k * np.exp(sigma)) * np.exp(-s * (sigma - shift))
        h = (tau_max - tau_min) / n_panels
        weights = np.ones(n_panels + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float(h / 3.0 * np.dot(weights, f))

    with np.errstate(over="ignore"):
        core = simpson(panels)
        coarse = simpson(panels // 2)
    scale = math.exp(s * shift)
    head = scale * lam_k * math.exp(tau_min) ** (1.0 - s) / (1.0 - s)
    tail = scale * math.exp(tau_max) ** (-s) / s
    total = s / math.gamma(1.0 - s) * (core + head + tail)
    if not (abs(core - coarse) <= spectral._CHECK_TOL * abs(core) and math.isfinite(total)):
        raise QuadratureNotConverged(f"lam={lam}, s={s}")
    return total


def random_connected_graph(rng, n, weight_range=(0.2, 5.0), mu_range=(0.2, 5.0),
                           extra_edge_prob=0.4):
    """The generator with one random() test, and one uniform() weight, per pair."""
    mu = rng.uniform(*mu_range, size=n)
    w = np.zeros((n, n))
    order = rng.permutation(n)
    for k in range(1, n):
        i, j = order[k], order[rng.integers(0, k)]
        w[i, j] = w[j, i] = rng.uniform(*weight_range)
    for i in range(n):
        for j in range(i + 1, n):
            if w[i, j] == 0 and rng.random() < extra_edge_prob:
                w[i, j] = w[j, i] = rng.uniform(*weight_range)
    return Graph(mu=mu, weights=w).require_valid()


def graph_to_json(graph):
    vertices = [
        {"id": lab, "mu": float(m)} for lab, m in zip(graph.labels, graph.mu)
    ]
    edges = [
        {"u": graph.labels[i], "v": graph.labels[j], "w": float(graph.weights[i, j])}
        for i in range(graph.n)
        for j in range(i + 1, graph.n)
        if graph.weights[i, j] > 0
    ]
    return json.dumps({"vertices": vertices, "edges": edges}, indent=2)
