"""Eigendecomposition of -Delta in the mu-inner product and the fractional kernel.

The kernel W_s couples every pair of distinct vertices.  It has two equivalent
representations, both implemented here:

* spectral:    W_s(x,y) = -mu(x) mu(y) sum_i lambda_i^s phi_i(x) phi_i(y)
* semigroup:   W_s(x,y) = s/Gamma(1-s) * mu(x) mu(y)
                          * int_0^inf h(t,x,y) t^(-1-s) dt

where h is the heat kernel of -Delta.  The semigroup route is evaluated by an
independent log-substituted Simpson quadrature and serves as an oracle for the
spectral route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    ExponentOutOfRange,
    NoConvergence,
    PositivityViolation,
    QuadratureNotConverged,
)
from .graph import Graph, _Rebuilt

__all__ = [
    "SpectralDecomposition",
    "decompose",
    "spectral_weight_matrix",
    "kernel_weights",
    "kernel_weights_oracle",
    "fractional_power_quadrature",
]

# The grid of fractional_power_quadrature: tau + k log 2 over [_TAU_MIN, _TAU_MAX]
# for lam = m 2^k (see there), _PANELS Simpson panels, checked to _CHECK_TOL
# against half as many on its even nodes.
_TAU_MIN, _TAU_MAX = -40.0, 40.0
_PANELS = 8192
_CHECK_TOL = 1e-9


@dataclass(frozen=True)
class SpectralDecomposition(_Rebuilt):
    """Eigenpairs of -Delta, mu-orthonormal, eigenvalues ascending.

    ``phi[i]`` is the i-th eigenfunction; lambda_0 is exactly 0 and phi[0] is
    the positive constant 1/sqrt(vol V).
    """

    graph: Graph
    eigenvalues: np.ndarray
    phi: np.ndarray

    def __post_init__(self):
        self.eigenvalues.setflags(write=False)
        self.phi.setflags(write=False)


def decompose(graph: Graph) -> SpectralDecomposition:
    """Diagonalize -Delta via its symmetric conjugate in l2.

    The conjugate S = M^(1/2) A M^(-1/2) (M = diag(mu)) is symmetric, so a
    dense symmetric eigensolver applies; eigenfunctions are back-transformed
    by phi_i = psi_i / sqrt(mu).  An S that overflows a float is a DomainError.
    The spectrum must be finite, with lambda_1 > 0 and lambda_0 below 1e-10
    times the largest (NaN fails each test), or it is NoConvergence; lambda_0
    is then snapped to an exact 0, so that 0^s is 0 in the kernel.
    """
    graph.require_valid()
    rmu = np.sqrt(graph.mu)
    with np.errstate(all="ignore"):  # an overflow is refused below, before eigh runs
        s_mat = np.outer(-rmu, rmu)
        np.divide(graph.weights, s_mat, out=s_mat)
        np.fill_diagonal(s_mat, graph.degrees / graph.mu)
    if not np.isfinite(s_mat).all():
        raise DomainError("the Laplacian conjugated by sqrt(mu) overflows a float")
    try:
        vals, psi = np.linalg.eigh(s_mat)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc

    if not (abs(vals[0]) < 1e-10 * vals[-1] < math.inf and vals[1] > 0):
        raise NoConvergence(f"smallest eigenvalue {vals[0]:.3e} is not numerically zero below a "
                            f"positive second, {vals[1]:.3e}, and a finite largest, {vals[-1]:.3e}")
    vals[0] = 0.0

    phi = np.divide(psi.T, rmu, order="C")
    # deterministic sign: the first largest-magnitude entry of each eigenfunction
    # positive; that entry is its first maximum or its first minimum (the signs of a
    # per-row argmax of |phi| bit for bit, in a fifth of its time at n = 500)
    rows, hi, lo = np.arange(len(vals)), np.argmax(phi, axis=1), np.argmin(phi, axis=1)
    top, bottom = phi[rows, hi], -phi[rows, lo]
    phi *= np.where((bottom > top) | ((bottom == top) & (lo < hi)), -1.0, 1.0)[:, None]
    return SpectralDecomposition(graph=graph, eigenvalues=vals, phi=phi)


def _assemble_kernel(dec: SpectralDecomposition, powers: np.ndarray) -> np.ndarray:
    """Kernel -C^T C, C = diag(sqrt(powers)) phi diag(mu), with a zero diagonal.

    numpy computes c.T @ c as a symmetric rank-k update: exactly symmetric."""
    c = dec.phi * dec.graph.mu
    c *= np.sqrt(powers)[:, None]
    w = c.T @ c
    np.negative(w, out=w)
    np.fill_diagonal(w, 0.0)
    return w


def spectral_weight_matrix(dec: SpectralDecomposition, s: float) -> np.ndarray:
    """Raw spectral kernel -mu(x)mu(y) sum_i lambda_i^s phi_i(x)phi_i(y), zero diagonal.

    No upper bound on s > 0; 0^s = 0 at lambda_0, and s = 1 recovers w exactly.
    """
    return _assemble_kernel(dec, dec.eigenvalues**s)


def kernel_weights(dec: SpectralDecomposition, s: float) -> np.ndarray:
    """Fractional kernel W_s for s in (0,1); strictly positive off the diagonal.

    Raises PositivityViolation if any off-diagonal entry is NaN or negative beyond
    -1e-12 times the largest entry, which would indicate eigensolver failure.
    """
    if not 0.0 < s < 1.0:
        raise ExponentOutOfRange(f"s = {s}, need 0 < s < 1")
    w = spectral_weight_matrix(dec, s)
    # the diagonal is 0, so extremes over all entries bound the off-diagonal ones
    low = float(np.min(w))
    if not low >= -1e-12 * max(float(np.max(w)), -low):
        raise PositivityViolation(f"min off-diagonal entry {low:.3e} at s={s}")
    return w


def fractional_power_quadrature(lam: float, s: float) -> float:
    """Evaluate s/Gamma(1-s) * int_0^inf (1 - exp(-lam t)) t^(-1-s) dt by quadrature.

    Equals lam^s analytically; computed here without calling the power
    function, so it can serve as an independent oracle.  The substitution
    t = exp(tau) is integrated by composite Simpson; the truncated head and
    tail are added in closed form (leading series term below t0, pure power
    integral above t1, where exp(-lam t) has underflowed).

    The integrand turns from lam t^(-s) to t^(-s) where lam t = 1.  With
    lam = m 2^k and m in [1/2, 1), the grid is tau + k log 2 in [-40, 40], so
    that turn lies within log 2 of mid-grid at every scale; each node still
    evaluates lam t and t^(-s), so no power of lam leaves the integral.  The
    result holds to ~1e-13 relative at lam = 10^j, |j| <= 300.  A node value
    that overflows a float (lam near its largest value, s near 1) and a
    failed grid check raise QuadratureNotConverged.
    """
    if not 0.0 < s < 1.0:
        raise ExponentOutOfRange(f"s = {s}, need 0 < s < 1")
    if lam == 0.0:
        return 0.0
    if not lam > 0.0:
        raise DomainError(f"lam = {lam}, need lam >= 0")
    k = math.frexp(lam)[1]
    lam_k, shift = math.ldexp(lam, -k), k * math.log(2.0)

    def simpson(f: np.ndarray) -> float:
        weights = np.ones(len(f))
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        return float((_TAU_MAX - _TAU_MIN) / (len(f) - 1) / 3.0 * np.dot(weights, f))

    with np.errstate(over="ignore"):
        sigma = np.linspace(_TAU_MIN, _TAU_MAX, _PANELS + 1)  # tau + shift
        f = -np.expm1(-lam_k * np.exp(sigma)) * np.exp(-s * (sigma - shift))
        # the check: the even nodes (half the panels), contiguous so that dot sums as on their grid
        core, coarse = simpson(f), simpson(np.ascontiguousarray(f[::2]))
    # the ends of the shifted grid are t0 2^-k and t1 2^-k, where lam t takes the
    # values lam_k t0 < 4.3e-18 (so the head's next series term is below that share
    # of its first) and lam_k t1, and t^(-s) is 2^(ks) times its value at t0 and t1
    scale = math.exp(s * shift)
    t0 = math.exp(_TAU_MIN)
    head = scale * lam_k * t0 ** (1.0 - s) / (1.0 - s)
    t1 = math.exp(_TAU_MAX)
    tail = scale * t1 ** (-s) / s
    total = s / math.gamma(1.0 - s) * (core + head + tail)
    # an infinite core, and so a NaN difference, fails the check too
    if not (abs(core - coarse) <= _CHECK_TOL * abs(core) and math.isfinite(total)):
        raise QuadratureNotConverged(f"lam={lam}, s={s}")
    return total


def kernel_weights_oracle(dec: SpectralDecomposition, s: float) -> np.ndarray:
    """Fractional kernel via the heat-semigroup integral; oracle for kernel_weights.

    For x != y the completeness relation sum_i phi_i(x)phi_i(y) = 0 lets the
    integrand be written as sum_i (exp(-lambda_i t) - 1) phi_i(x) phi_i(y),
    which is O(t) near 0; integrating term by term on shared quadrature nodes
    reduces the matrix to scalar quadratures, one per eigenvalue.  Only the
    final assembly is shared with the spectral route, not the powers.
    """
    powers = [fractional_power_quadrature(lam, s) for lam in dec.eigenvalues]
    return _assemble_kernel(dec, np.array(powers))
