"""Closed form of the linear flow, for tests only.

At p = 2 and q = 1 the flow du/dt + (-Delta)^s u = 0 is linear.  With the
mu-orthonormal eigenpairs (lambda_i, phi_i) of -Delta, l_i = lambda_i^s
(0 for lambda_0 = 0) and c_i = <u0, phi_i>_mu:

    u(t)  = sum_i exp(-l_i t) c_i phi_i,
    E(t)  = int |grad^s u(t)|^2 dmu = sum_i l_i c_i^2 exp(-2 l_i t),
    int_0^T int (du/dt)^2 dmu dt    = sum_i l_i c_i^2 (1 - exp(-2 l_i T)) / 2.

All three come from the decomposition the kernel was assembled from, with no
quadrature and no time stepping, so they are exact references for the
stepper, its continuous extension and the audit's integrals.  The powers
l_i are taken here, not through the library's kernel assembly.  The same
eigenbasis gives (-Delta)^s u itself, the reference of the kernel's operator.
"""

import numpy as np


def eigen_powers(dec, s):
    """lambda_i^s, with 0 for lambda_0 = 0."""
    lam = dec.eigenvalues
    powers = np.zeros_like(lam)
    powers[lam > 0] = lam[lam > 0] ** s
    return powers


def fractional_laplacian_spectral(dec, s, u):
    """(-Delta)^s u via the spectral sum sum_i lambda_i^s <u, phi_i>_mu phi_i."""
    coeffs = dec.phi @ (u * dec.graph.mu)
    return (eigen_powers(dec, s) * coeffs) @ dec.phi


class LinearFlow:
    """The p = 2, q = 1 flow of a kernel from u0, in the kernel's eigenbasis."""

    def __init__(self, kernel, u0):
        dec = kernel.dec
        self.powers = eigen_powers(dec, kernel.s)
        self.coeffs = dec.phi @ (u0 * kernel.graph.mu)
        self.phi = dec.phi

    def samples(self, times):
        """u(t) at each time, one row per time."""
        return (np.exp(-np.outer(times, self.powers)) * self.coeffs) @ self.phi

    def energy(self, times):
        """The Dirichlet energy E(t) at each time."""
        return np.exp(-2.0 * np.outer(times, self.powers)) @ (self.powers * self.coeffs**2)

    def dissipation(self, horizon):
        """int_0^T int (du/dt)^2 dmu dt, which equals (E(0) - E(T)) / 2."""
        decay = -np.expm1(-2.0 * self.powers * horizon)
        return float(np.sum(self.powers * self.coeffs**2 * decay)) / 2.0
