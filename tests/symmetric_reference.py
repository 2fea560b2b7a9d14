"""Exact fractional kernels of the cycle and the hypercube, for tests only.

Both graphs have unit weights and mu = 1, so W_s(x, y) = -(L^s)(x, y) off the
diagonal, L = D - A, and L^s is known through the graph's symmetry:

* The cycle C_n, vertices 0..n-1 in order: L has the eigenvalues
  lambda_k = 2 - 2 cos(2 pi k / n) on the Fourier modes, and
      W_s(x, y) = -(1/n) sum_{k=1}^{n-1} lambda_k^s cos(2 pi k (x - y) / n).
* The hypercube Q_d, vertices the d-bit integers, adjacent when they differ
  in one bit: L has the eigenvalue 2j with multiplicity C(d, j), and W_s
  depends on the Hamming distance h alone,
      W_s(h) = -2^-d sum_{j=1}^d (2j)^s K_j(h),
  with the Krawtchouk numbers K_j(h) = sum_i (-1)^i C(h, i) C(d-h, j-i)
  (Delsarte 1973; Brouwer, Cohen and Neumaier, Distance-Regular Graphs, 1989).

The sums are taken in np.longdouble, with every cosine argument reduced to
2 pi j / n, 0 <= j < n, by integer arithmetic and the Krawtchouk numbers as
exact integers.

On Q_d the flow d/dt u^q + (-Delta)_p^s u = 0 from a u0 that depends on the
Hamming weight |x| alone keeps that symmetry: the weight classes form an
equitable partition for any kernel that depends on distance alone.  With u_i
the value on the class |x| = i, the flow is d + 1 ordinary equations
(HypercubeQuotient), whose kernel between classes is

    M[i, j] = sum_{a, b: i - a + b = j} C(i, a) C(d - i, b) W_s(a + b),

for a vertex of weight i has C(i, a) C(d - i, b) neighbours at distance a + b
that clear a of its bits and set b others.  Nothing here calls the library.
"""

from math import comb

import numpy as np


def cycle_weights(n):
    """Unit edge weights of C_n."""
    w = np.zeros((n, n))
    i = np.arange(n)
    w[i, (i + 1) % n] = w[(i + 1) % n, i] = 1.0
    return w


def cycle_kernel(n, s):
    """W_s of C_n in np.longdouble, with a zero diagonal."""
    k = np.arange(1, n)
    angles = 8 * np.arctan(np.longdouble(1)) * np.arange(n) / n  # 2 pi j / n
    lam = (2 * np.sin(angles[k] / 2)) ** 2  # 2 - 2 cos, without its cancellation
    # by_offset[m] = W_s(x, x + m); cos(2 pi k m / n) = cos(angles[k m mod n])
    cosines = np.cos(angles)[np.outer(np.arange(n), k) % n]
    by_offset = -(cosines @ lam ** np.longdouble(s)) / n
    by_offset[0] = 0
    i = np.arange(n)
    return by_offset[(i[None, :] - i[:, None]) % n]


def _hamming(d):
    """The Hamming distances between the vertices of Q_d, as an (n, n) integer array."""
    x = np.arange(2**d)
    z = x[:, None] ^ x[None, :]
    return sum((z >> b) & 1 for b in range(d))


def hypercube_weights(d):
    """Unit edge weights of Q_d."""
    return (_hamming(d) == 1).astype(float)


def _hypercube_by_distance(d, s):
    """W_s(h), h = 0..d, of Q_d in np.longdouble, with W_s(0) = 0."""
    krawtchouk = [[sum((-1) ** i * comb(h, i) * comb(d - h, j - i) for i in range(j + 1))
                   for j in range(1, d + 1)] for h in range(d + 1)]
    powers = np.arange(2, 2 * d + 1, 2, dtype=np.longdouble) ** np.longdouble(s)
    by_distance = -(np.array(krawtchouk, dtype=np.longdouble) @ powers) / 2**d
    by_distance[0] = 0
    return by_distance


def hypercube_kernel(d, s):
    """W_s of Q_d in np.longdouble, with a zero diagonal."""
    return _hypercube_by_distance(d, s)[_hamming(d)]


class HypercubeQuotient:
    """The flow on Q_d, unit weights and mu = 1, on its d + 1 weight classes.

    A class state is a vector u of length d + 1 (or a stack of them, one per
    row); ``lift`` spreads it over the 2^d vertices.
    """

    def __init__(self, d, s, p, q):
        self.p, self.q = p, q
        by_distance = _hypercube_by_distance(d, s)
        m = np.zeros((d + 1, d + 1), dtype=np.longdouble)
        for i in range(d + 1):
            for a in range(i + 1):
                for b in range(d - i + 1):
                    m[i, i - a + b] += comb(i, a) * comb(d - i, b) * by_distance[a + b]
        self.m = m.astype(float)
        self.sizes = np.array([comb(d, i) for i in range(d + 1)], dtype=float)
        self.weights = _hamming(d)[0]  # the class of each vertex

    def _differences(self, u):
        return u[..., :, None] - u[..., None, :]

    def squared_gradients(self, u):
        """g_i^2 = 1/2 sum_j M[i, j] (u_i - u_j)^2."""
        return 0.5 * np.sum(self.m * self._differences(u) ** 2, axis=-1)

    def laplacian(self, u):
        """(-Delta)_p^s u_i = 1/2 sum_j (g_i^(p-2) + g_j^(p-2)) M[i, j] (u_i - u_j),
        with g^(p-2) taken as 0 where g = 0."""
        g2 = self.squared_gradients(u)
        gp = np.power(g2, (self.p - 2.0) / 2.0, out=np.zeros_like(g2), where=g2 > 0)
        factor = gp[..., :, None] + gp[..., None, :]
        return 0.5 * np.sum(factor * self.m * self._differences(u), axis=-1)

    def rhs(self, t, u):
        """du/dt = -(-Delta)_p^s u / (q u^(q-1))."""
        return -self.laplacian(u) / (self.q * u ** (self.q - 1.0))

    def mass(self, u):
        """int u^q dmu over the 2^d vertices."""
        return u**self.q @ self.sizes

    def energy(self, u):
        """int |grad^s u|^p dmu over the 2^d vertices."""
        return self.squared_gradients(u) ** (self.p / 2.0) @ self.sizes

    def steady_state(self, u0):
        """The constant of the same mass."""
        return (self.mass(u0) / np.sum(self.sizes)) ** (1.0 / self.q)

    def lift(self, u):
        """The vertex values of class states u."""
        return u[..., self.weights]
