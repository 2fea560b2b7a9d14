"""Exact two-valued flows on complete graphs, for tests only.

On K_n with unit weights and mu = 1, -Delta = nI - J has the eigenvalue n on
every non-constant function, so the fractional kernel is the constant
W = n^(s-1) off the diagonal.  Start k vertices at a0 and the other n - k at
b0 < a0.  By symmetry the data stay two-valued, u = a on the first k vertices
and b on the rest, and with the gap d = a - b the gradient lengths are

    |grad^s u|^2 = (n-k) W d^2 / 2  on the a vertices,  k W d^2 / 2  on the b ones.

With sigma(d) = ((n-k) W d^2/2)^((p-2)/2) + (k W d^2/2)^((p-2)/2), the factors
|grad^s u|^(p-2) of both groups summed, the flow is

    q a^(q-1) a' = -(n-k) (W d / 2) sigma(d),    q b^(q-1) b' = k (W d / 2) sigma(d).

The mass k a^q + (n-k) b^q is conserved, so b is a function of d: the root
of one increasing scalar equation, found here by Newton's method.  The gap
obeys the autonomous equation d' = -rate(d), so t(d) = int_d^d0 dx / rate(x),
a smooth integral in log x taken by Gauss-Legendre panels, and d(t) inverts
it.  At q = 1 all of it has a closed form: b = (M - k d)/n,
d' = -n c d^(p-1) with c = (W/2)^(p/2) ((n-k)^((p-2)/2) + k^((p-2)/2)), so
d = d0 exp(-n c t) at p = 2 and d^(2-p) = d0^(2-p) - (2-p) n c t otherwise;
for p < 2 the gap closes at the finite time T* = d0^(2-p) / ((2-p) n c).

The Dirichlet energy is E = (W d^2 / 2)^(p/2) (k (n-k)^(p/2) + (n-k) k^(p/2)),
and the dissipation int_0^T int u^(q-1) (du/dt)^2 dmu dt equals
(E(0) - E(T)) / (pq).  Nothing here calls the library.
"""

import numpy as np

# Gauss-Legendre nodes and weights on [0, 1], per panel of the log-gap table
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)
_NODES, _WEIGHTS = (_NODES + 1.0) / 2.0, _WEIGHTS / 2.0
# the table of t(d) runs from d0 down to d0 * _GAP_FLOOR in _PANELS equal steps of log d
_GAP_FLOOR = 1e-12
_PANELS = 512


class TwoValueFlow:
    """The flow on K_n from k vertices at a0 and n - k at b0 < a0."""

    def __init__(self, n, k, s, p, q, a0, b0, closed_form=True):
        """``closed_form=False`` takes the quadrature path at q = 1 too."""
        if not (0 < k < n and a0 > b0 > 0):
            raise ValueError("need 0 < k < n and a0 > b0 > 0")
        self.n, self.k, self.p, self.q, self.b0 = n, k, p, q, b0
        self.w = float(n) ** (s - 1.0)
        self.d0 = a0 - b0
        self.mass = k * a0**q + (n - k) * b0**q
        self.limit = (self.mass / n) ** (1.0 / q)  # the constant the flow tends to
        self.closed = closed_form and q == 1.0
        self.c = (self.w / 2.0) ** (p / 2.0) * ((n - k) ** (p / 2.0 - 1.0) + k ** (p / 2.0 - 1.0))
        # t at the panel ends of log d, from log d0 (t = 0) downwards
        self._logs = np.log(self.d0) + np.linspace(0.0, np.log(_GAP_FLOOR), _PANELS + 1)
        steps = self._panel_times(self._logs[1:], self._logs[:-1])
        self._times = np.concatenate([[0.0], np.cumsum(steps)])

    def lower(self, d):
        """b at gap d: the root of k (b + d)^q + (n - k) b^q = mass."""
        d = np.asarray(d, dtype=float)
        n, k, q = self.n, self.k, self.q
        if q == 1.0:
            return (self.mass - k * d) / n
        # b(d) >= b0, and Newton's method from the left of the root stays positive
        b = np.full_like(d, self.b0)
        for _ in range(40):
            f = k * (b + d) ** q + (n - k) * b**q - self.mass
            b = b - f / (q * (k * (b + d) ** (q - 1.0) + (n - k) * b ** (q - 1.0)))
        return b

    def _sigma(self, d):
        n, k, w, h = self.n, self.k, self.w, self.p / 2.0 - 1.0
        return ((n - k) * w * d * d / 2.0) ** h + (k * w * d * d / 2.0) ** h

    def velocities(self, d):
        """(a', b') at gap d."""
        b = self.lower(d)
        drive = self.w * d / 2.0 * self._sigma(d) / self.q
        q1 = self.q - 1.0
        return -(self.n - self.k) * drive / (b + d) ** q1, self.k * drive / b**q1

    def rate(self, d):
        """-d'(d) > 0."""
        da, db = self.velocities(d)
        return db - da

    def _panel_times(self, lo, hi):
        """int of dx / rate(x) over x in [e^lo, e^hi], for each pair of log bounds."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ell = lo[..., None] + (hi - lo)[..., None] * _NODES
        x = np.exp(ell)
        return (hi - lo) * ((x / self.rate(x)) @ _WEIGHTS)

    def time_of(self, d):
        """The exact time at which the gap is d (0 < d <= d0)."""
        ell = np.log(np.asarray(d, dtype=float))
        if self.closed:
            return self._closed_time(np.exp(ell))
        j = np.clip(np.searchsorted(-self._logs, -ell) - 1, 0, _PANELS - 1)
        return self._times[j] + self._panel_times(ell, self._logs[j])

    def _closed_time(self, d):
        n, c, p = self.n, self.c, self.p
        if p == 2.0:
            return np.log(self.d0 / d) / (n * c)
        return (self.d0 ** (2.0 - p) - d ** (2.0 - p)) / ((2.0 - p) * n * c)

    def extinction_time(self):
        """T*, when the gap closes (p < 2 only): the table's last time plus the
        tail below its floor, where rate(x) = n c x^(p-1) q^-1 limit^(1-q)."""
        if not self.p < 2.0:
            raise ValueError("the gap closes in finite time only at p < 2")
        if self.closed:
            return self.d0 ** (2.0 - self.p) / ((2.0 - self.p) * self.n * self.c)
        floor = self.d0 * _GAP_FLOOR
        tail_rate = self.n * self.c / (self.q * self.limit ** (self.q - 1.0))
        return self._times[-1] + floor ** (2.0 - self.p) / ((2.0 - self.p) * tail_rate)

    def gap(self, times):
        """d at each time.  Past the end of the table the gap is below d0 * _GAP_FLOOR,
        and off the closed form it is given there as 0."""
        times = np.asarray(times, dtype=float)
        if self.closed:
            n, c, p = self.n, self.c, self.p
            if p == 2.0:
                return self.d0 * np.exp(-n * c * times)
            return np.maximum(self.d0 ** (2.0 - p) - (2.0 - p) * n * c * times, 0.0) ** (
                1.0 / (2.0 - p))
        past = times >= self._times[-1]
        times = np.minimum(times, self._times[-1])
        j = np.clip(np.searchsorted(self._times, times, side="right") - 1, 0, _PANELS - 1)
        t0, t1 = self._times[j], self._times[j + 1]
        ell = self._logs[j] + (self._logs[j + 1] - self._logs[j]) * (times - t0) / (t1 - t0)
        for _ in range(8):  # Newton on t(log d) = times inside each panel
            d = np.exp(ell)
            ell = ell + (self.time_of(d) - times) * self.rate(d) / d
            ell = np.clip(ell, self._logs[j + 1], self._logs[j])
        return np.where(past, 0.0, np.exp(ell))

    def samples(self, times):
        """u at each time, one row per time: a on the first k vertices, b on the rest."""
        d = self.gap(times)
        b = self.lower(d)
        return np.repeat(np.column_stack([b + d, b]), [self.k, self.n - self.k], axis=1)

    def energy_of(self, d):
        """E = int |grad^s u|^p dmu at gap d."""
        n, k, p = self.n, self.k, self.p
        return (self.w * d * d / 2.0) ** (p / 2.0) * (k * (n - k) ** (p / 2.0)
                                                      + (n - k) * k ** (p / 2.0))

    def energy(self, times):
        return self.energy_of(self.gap(times))

    def dissipation_integrand(self, times):
        """int u^(q-1) (du/dt)^2 dmu at each time."""
        d = self.gap(times)
        b = self.lower(d)
        da, db = self.velocities(d)
        q = self.q
        return self.k * (b + d) ** (q - 1.0) * da**2 + (self.n - self.k) * b ** (q - 1.0) * db**2

    def dissipation(self, horizon):
        """(E(0) - E(T)) / (pq), the dissipation integral."""
        drop = self.energy_of(self.d0) - self.energy(horizon)
        return float(drop) / (self.p * self.q)
