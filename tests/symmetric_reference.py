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
exact integers.  Nothing here calls the library.
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


def hypercube_kernel(d, s):
    """W_s of Q_d in np.longdouble, with a zero diagonal."""
    krawtchouk = [[sum((-1) ** i * comb(h, i) * comb(d - h, j - i) for i in range(j + 1))
                   for j in range(1, d + 1)] for h in range(d + 1)]
    powers = np.arange(2, 2 * d + 1, 2, dtype=np.longdouble) ** np.longdouble(s)
    by_distance = -(np.array(krawtchouk, dtype=np.longdouble) @ powers) / 2**d
    by_distance[0] = 0
    return by_distance[_hamming(d)]
