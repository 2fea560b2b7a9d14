"""Pairwise reference forms of the kernel operators, for tests only.

Each sum over y is evaluated literally from the n x n matrix of differences
u(x) - u(y), as the operators were first written.  The library computes the
same sums from products of W with vertex functions; tests compare the two.
"""

import numpy as np


def _diff_matrix(u):
    """Pairwise differences d[x,y] = u(x) - u(y)."""
    return u[:, None] - u[None, :]


def _regularized_power(g, p, eps_reg):
    if eps_reg > 0:
        return (g**2 + eps_reg**2) ** ((p - 2.0) / 2.0)
    out = np.zeros_like(g)
    pos = g > 0
    out[pos] = g[pos] ** (p - 2.0)
    return out


def gradient_norms(kernel, u):
    d = _diff_matrix(u)
    return np.sqrt((kernel.w * d**2).sum(axis=1) / (2.0 * kernel.graph.mu))


def laplacian(kernel, u):
    return (kernel.w * _diff_matrix(u)).sum(axis=1) / kernel.graph.mu


def p_laplacian(kernel, u, p, eps_reg=0.0):
    if p == 2.0:
        return laplacian(kernel, u)
    gp = _regularized_power(gradient_norms(kernel, u), p, eps_reg)
    factor = 0.5 * (gp[:, None] + gp[None, :])
    return (factor * kernel.w * _diff_matrix(u)).sum(axis=1) / kernel.graph.mu


def dirichlet_p_energy(kernel, u, p):
    return float(np.dot(gradient_norms(kernel, u) ** p, kernel.graph.mu))


def ibp_abs_sum(kernel, u, v, p, eps_reg=0.0):
    """Sum of |summand| over both sides of the identity checked by ibp_residual.

    The sides in pairwise form, with g = |grad^s u|^(p-2): the left sums
    (g(x) + g(y))/2 W(x,y) (u(x) - u(y)) v(x), taken for v - v(0), which
    changes it by v(0) times the integral of (-Delta)_p^s u, that is by
    nothing; the right sums g(x)/2 W(x,y) (u(x) - u(y)) (v(x) - v(y)).
    """
    if p == 2.0:
        gp = np.ones(kernel.n)
    else:
        gp = _regularized_power(gradient_norms(kernel, u), p, eps_reg)
    wdu = kernel.w * np.abs(_diff_matrix(u))
    lhs = 0.5 * (gp[:, None] + gp[None, :]) * wdu * np.abs(v - v[0])[:, None]
    rhs = 0.5 * gp[:, None] * wdu * np.abs(_diff_matrix(v))
    return float(lhs.sum() + rhs.sum())
