"""Fractional (p-)Laplacian, Dirichlet p-energy and the integration-by-parts check.

All operators act through the dense kernel W_s.  Sign convention: the
fractional Laplacian uses (u(x) - u(y)) differences,

    (-Delta)^s u(x) = (1/mu(x)) * sum_{y != x} W_s(x,y) (u(x) - u(y)),

which makes <(-Delta)^s u, u>_mu >= 0 and matches the spectral form
sum_i lambda_i^s <u, phi_i>_mu phi_i.  The p-Laplacian is the variational
derivative of (1/p) * int |grad^s u|^p dmu:

    (-Delta)_p^s u(x) = 1/(2 mu(x)) * sum_{y != x}
        (g(y)^(p-2) + g(x)^(p-2)) W_s(x,y) (u(x) - u(y)),

with g the gradient length, and the factor g^(p-2) taken as 0 where g = 0.

No pairwise-difference matrix is formed.  With the row sums r = W 1, cached
on the kernel, each pairwise sum expands into products of W with vertex
functions, taken together as one product of W with a stack of vectors:

    sum_y W(x,y) (v(x)-v(y))^2          = r v^2 - 2 v (W v) + W(v^2)
    sum_y W(x,y) (v(x)-v(y))            = r v - W v
    sum_y (a(x)+a(y)) W(x,y) (v(x)-v(y)) = a (r v - W v) + v (W a) - W(a v)
    sum_y W(x,y) (u(x)-u(y)) (v(x)-v(y)) = r u v - u (W v) - v (W u) + W(u v)

The sums do not change when a constant is added to u or v, so they are taken
of the centred v = u - u(x_0), x_0 the first vertex.  This keeps each term at
the size of the spread of u, not of its level: near a steady state terms of
size r u^2 would cancel down to the tiny spread and lose its digits.  The
shift is exact for values within a factor two of each other, and makes v = 0
on a constant u, so every operator returns exactly 0 there.  Round-off can
leave a sum of squares slightly negative; it is clamped at 0.

frac_p_laplacian and dirichlet_p_energy also take a stack of states, an
(m, n) array with one state per row; each row is centred by its own first
entry, and the products with W become one matrix product for the stack.
Passes over a stack of any length, dirichlet_p_energy's and those of the
diagnostics and the CLI, walk it in the row blocks of _row_blocks, so their
temporaries stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ExponentOutOfRange
from .graph import Graph, _Rebuilt, _check_length
from .spectral import SpectralDecomposition, decompose, kernel_weights

__all__ = [
    "FractionalKernel",
    "build_kernel",
    "frac_laplacian",
    "frac_p_laplacian",
    "dirichlet_p_energy",
    "ibp_residual",
]


@dataclass(frozen=True)
class FractionalKernel(_Rebuilt):
    """Exponent s with its dense symmetric kernel matrix W (zero diagonal) and row sums W 1."""

    graph: Graph
    s: float
    w: np.ndarray
    dec: SpectralDecomposition
    row_sums: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.w.setflags(write=False)
        object.__setattr__(self, "row_sums", self.w.sum(axis=1))
        self.row_sums.setflags(write=False)

    @property
    def n(self) -> int:
        return self.graph.n


def build_kernel(graph: Graph, s: float,
                 dec: SpectralDecomposition | None = None) -> FractionalKernel:
    """Assemble the fractional kernel for exponent s.

    ``dec`` is a decomposition of the same graph to reuse; without one, -Delta
    is decomposed here.
    """
    if dec is None:
        dec = decompose(graph)
    elif dec.graph is not graph:
        raise DomainError("dec is a decomposition of another graph")
    return FractionalKernel(graph=graph, s=s, w=kernel_weights(dec, s), dec=dec)


def _apply(kernel: FractionalKernel, *fs: np.ndarray) -> np.ndarray:
    """W f for each vertex function (or stack of them) f, as one matrix product."""
    stack = np.array(fs)
    return (stack.reshape(-1, kernel.n) @ kernel.w.T).reshape(stack.shape)


def _centred(u: np.ndarray) -> np.ndarray:
    return u - u[..., :1]


def _squared_gradients(kernel: FractionalKernel, v: np.ndarray):
    """(|grad^s v|^2, sum_y W(x,y) (v(x) - v(y))) for a centred v."""
    wv, wv2 = _apply(kernel, v, v * v)
    diffusion = kernel.row_sums * v - wv
    sq = v * (diffusion - wv) + wv2
    return np.maximum(sq, 0.0) / (2.0 * kernel.graph.mu), diffusion


def _p_laplacian(kernel: FractionalKernel, v: np.ndarray, p: float, eps_reg: float = 0.0):
    """((-Delta)_p^s v, g^(p-2)) for a centred v; p = 2 skips the gradients."""
    if p == 2.0:
        return (kernel.row_sums * v - _apply(kernel, v)[0]) / kernel.graph.mu, 1.0
    g2, diffusion = _squared_gradients(kernel, v)
    gp = _gradient_power(g2 + eps_reg**2 if eps_reg > 0 else g2, p)
    wgp, wgpv = _apply(kernel, gp, gp * v)
    out = gp * diffusion + v * wgp - wgpv
    return out / (2.0 * kernel.graph.mu), gp


def frac_laplacian(kernel: FractionalKernel, u: np.ndarray) -> np.ndarray:
    """(-Delta)^s u via the kernel form."""
    u = _check_length(kernel.graph, u, "u")
    return _p_laplacian(kernel, _centred(u), 2.0)[0]


def _gradient_power(g2: np.ndarray, p: float) -> np.ndarray:
    """g^(p-2) from g2 = g^2, and 0 where g = 0.

    At p < 2 a zero gradient gives an infinite factor; its paired differences
    are then all zero (W > 0 everywhere forces u(x) = u(y) for every y), so
    the 0 * inf product is resolved to 0 by zeroing the factor.
    """
    return np.power(g2, (p - 2.0) / 2.0, out=np.zeros_like(g2), where=g2 > 0)


def frac_p_laplacian(
    kernel: FractionalKernel,
    u: np.ndarray,
    p: float,
    eps_reg: float = 0.0,
) -> np.ndarray:
    """Fractional p-Laplacian of u, or of each row of a stack u (m, n).

    Reduces exactly to frac_laplacian at p = 2.  An eps_reg > 0 regularizes
    the factor g^(p-2) to (g^2 + eps_reg^2)^((p-2)/2).
    """
    if not p > 1.0:
        raise ExponentOutOfRange(f"p = {p}, need p > 1")
    v = _centred(_check_length(kernel.graph, u, "u", stack=True))
    return _p_laplacian(kernel, v, p, eps_reg)[0]


_BLOCK_ROWS = 1024  # rows of a stack taken at a time, so temporaries stay bounded


def _row_blocks(m: int, start: int = 0):
    """Slices of consecutive rows, at most _BLOCK_ROWS each, that cover rows start..m-1."""
    return (slice(i, min(i + _BLOCK_ROWS, m)) for i in range(start, m, _BLOCK_ROWS))


def dirichlet_p_energy(kernel: FractionalKernel, u: np.ndarray, p: float) -> float | np.ndarray:
    """int_V |grad^s u|^p dmu; for a stack u (m, n), the m energies of its rows."""
    if not p >= 1.0:
        raise ExponentOutOfRange(f"p = {p}, need p >= 1")
    u = _check_length(kernel.graph, u, "u", stack=True)
    rows = u.reshape(-1, kernel.n)
    energy = np.empty(len(rows))
    for block in _row_blocks(len(rows)):
        g2 = _squared_gradients(kernel, _centred(rows[block]))[0]
        energy[block] = g2 ** (p / 2.0) @ kernel.graph.mu
    return float(energy[0]) if u.ndim == 1 else energy


def ibp_residual(
    kernel: FractionalKernel,
    u: np.ndarray,
    v: np.ndarray,
    p: float,
    eps_reg: float = 0.0,
) -> float:
    """|LHS - RHS| of the integration-by-parts identity

        int_V v (-Delta)_p^s u dmu
            = int_V |grad^s u|^(p-2) grad^s u . grad^s v dmu,

    with the same eps_reg (see frac_p_laplacian) on both sides.
    """
    if not p > 1.0:
        raise ExponentOutOfRange(f"p = {p}, need p > 1")
    u = _check_length(kernel.graph, u, "u")
    v = _check_length(kernel.graph, v, "v")
    cu, cv = _centred(u), _centred(v)
    lu, gp = _p_laplacian(kernel, cu, p, eps_reg)
    # int c (-Delta)_p^s u dmu = 0 for a constant c, so centring v here too
    # changes nothing but the round-off; fsum rounds each side once, however
    # far its terms cancel
    lhs = math.fsum(cv * lu * kernel.graph.mu)

    wu, wv, wuv = _apply(kernel, cu, cv, cu * cv)
    bilinear = (kernel.row_sums * cu - wu) * cv - cu * wv + wuv
    rhs = 0.5 * math.fsum(gp * bilinear)
    return abs(lhs - rhs)
