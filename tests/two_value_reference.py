"""Exact two-valued flows on complete graphs, for tests only.

Take K_n with unit weights, measure mu_a on k vertices and mu_b on the other
n - k, and volume V = k mu_a + (n - k) mu_b.  -Delta = M^-1 (nI - J) has the
eigenvalue n/mu_a on the functions of the first block with sum 0, n/mu_b on
those of the second, and lam = (n-k)/mu_a + k/mu_b = V/(mu_a mu_b) on the
block-constant functions orthogonal to 1.  Of the eigenfunctions nonzero on
both blocks, the constant has lam^s = 0, so the fractional kernel between the
blocks, -mu(x) mu(y) times the sum of lam_i^s phi_i(x) phi_i(y), is the
constant W = lam^(s-1) = (mu_a mu_b / V)^(1-s), and n^(s-1) at mu = 1.  Start
the k vertices at a0 and the others at b0 < a0.  By symmetry the data stay two-valued, u = a on the
first block and b on the second, and with the gap d = a - b, l_a = (n-k)/mu_a
and l_b = k/mu_b, the gradient lengths are

    |grad^s u|^2 = l_a W d^2 / 2  on the a vertices,  l_b W d^2 / 2  on the b ones.

With sigma(d) = (l_a W d^2/2)^((p-2)/2) + (l_b W d^2/2)^((p-2)/2), the factors
|grad^s u|^(p-2) of both blocks summed, the flow is

    q a^(q-1) a' = -l_a (W d / 2) sigma(d),    q b^(q-1) b' = l_b (W d / 2) sigma(d).

The mass k mu_a a^q + (n-k) mu_b b^q is conserved, so b is a function of d:
the root of one increasing scalar equation, found here by Newton's method.
The gap obeys the autonomous equation d' = -rate(d), so t(d) = int_d^d0 dx /
rate(x), a smooth integral in log x taken by Gauss-Legendre panels, and d(t)
inverts it.  At q = 1 all of it has a closed form: b = (M - k mu_a d)/V,
d' = -lam c d^(p-1) with c = (W/2)^(p/2) (l_a^((p-2)/2) + l_b^((p-2)/2)), so
d = d0 exp(-lam c t) at p = 2 and d^(2-p) = d0^(2-p) - (2-p) lam c t otherwise;
for p < 2 the gap closes at the finite time T* = d0^(2-p) / ((2-p) lam c).

The Dirichlet energy is E = (W d^2 / 2)^(p/2) (k mu_a l_a^(p/2) + (n-k) mu_b
l_b^(p/2)), and the dissipation int_0^T int u^(q-1) (du/dt)^2 dmu dt equals
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
    """The flow on K_n from k vertices at a0 and n - k at b0 < a0, whose measures
    are mu_a and mu_b."""

    def __init__(self, n, k, s, p, q, a0, b0, closed_form=True, mu_a=1.0, mu_b=1.0):
        """``closed_form=False`` takes the quadrature path at q = 1 too."""
        if not (0 < k < n and a0 > b0 > 0 and mu_a > 0 and mu_b > 0):
            raise ValueError("need 0 < k < n, a0 > b0 > 0 and positive measures")
        self.n, self.k, self.p, self.q, self.b0 = n, k, p, q, b0
        self.v_a, self.v_b = k * mu_a, (n - k) * mu_b  # the volumes of the blocks
        self.volume = self.v_a + self.v_b
        self.l_a, self.l_b = (n - k) / mu_a, k / mu_b
        self.lam = self.volume / (mu_a * mu_b)  # the eigenvalue l_a + l_b
        self.w = self.lam ** (s - 1.0)
        self.d0 = a0 - b0
        self.mass = self.v_a * a0**q + self.v_b * b0**q
        self.limit = (self.mass / self.volume) ** (1.0 / q)  # the constant the flow tends to
        self.closed = closed_form and q == 1.0
        h = p / 2.0 - 1.0
        self.c = (self.w / 2.0) ** (p / 2.0) * (self.l_a**h + self.l_b**h)
        # t at the panel ends of log d, from log d0 (t = 0) downwards
        self._logs = np.log(self.d0) + np.linspace(0.0, np.log(_GAP_FLOOR), _PANELS + 1)
        steps = self._panel_times(self._logs[1:], self._logs[:-1])
        self._times = np.concatenate([[0.0], np.cumsum(steps)])

    def lower(self, d):
        """b at gap d: the root of k mu_a (b + d)^q + (n - k) mu_b b^q = mass."""
        d = np.asarray(d, dtype=float)
        q, va, vb = self.q, self.v_a, self.v_b
        if q == 1.0:
            return (self.mass - va * d) / self.volume
        # b(d) >= b0, and Newton's method from the left of the root stays positive
        b = np.full_like(d, self.b0)
        for _ in range(40):
            f = va * (b + d) ** q + vb * b**q - self.mass
            b = b - f / (q * (va * (b + d) ** (q - 1.0) + vb * b ** (q - 1.0)))
        return b

    def _sigma(self, d):
        w, h = self.w, self.p / 2.0 - 1.0
        return (self.l_a * w * d * d / 2.0) ** h + (self.l_b * w * d * d / 2.0) ** h

    def velocities(self, d):
        """(a', b') at gap d."""
        b = self.lower(d)
        drive = self.w * d / 2.0 * self._sigma(d) / self.q
        q1 = self.q - 1.0
        return -self.l_a * drive / (b + d) ** q1, self.l_b * drive / b**q1

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
        lc, p = self.lam * self.c, self.p
        if p == 2.0:
            return np.log(self.d0 / d) / lc
        return (self.d0 ** (2.0 - p) - d ** (2.0 - p)) / ((2.0 - p) * lc)

    def extinction_time(self):
        """T*, when the gap closes (p < 2 only): the table's last time plus the
        tail below its floor, where rate(x) = lam c x^(p-1) q^-1 limit^(1-q)."""
        if not self.p < 2.0:
            raise ValueError("the gap closes in finite time only at p < 2")
        if self.closed:
            return self.d0 ** (2.0 - self.p) / ((2.0 - self.p) * self.lam * self.c)
        floor = self.d0 * _GAP_FLOOR
        tail_rate = self.lam * self.c / (self.q * self.limit ** (self.q - 1.0))
        return self._times[-1] + floor ** (2.0 - self.p) / ((2.0 - self.p) * tail_rate)

    def gap(self, times):
        """d at each time.  Past the end of the table the gap is below d0 * _GAP_FLOOR,
        and off the closed form it is given there as 0."""
        times = np.asarray(times, dtype=float)
        if self.closed:
            lc, p = self.lam * self.c, self.p
            if p == 2.0:
                return self.d0 * np.exp(-lc * times)
            return np.maximum(self.d0 ** (2.0 - p) - (2.0 - p) * lc * times, 0.0) ** (
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
        h = self.p / 2.0
        return (self.w * d * d / 2.0) ** h * (self.v_a * self.l_a**h + self.v_b * self.l_b**h)

    def energy(self, times):
        return self.energy_of(self.gap(times))

    def dissipation_integrand(self, times):
        """int u^(q-1) (du/dt)^2 dmu at each time."""
        d = self.gap(times)
        b = self.lower(d)
        da, db = self.velocities(d)
        q = self.q
        return self.v_a * (b + d) ** (q - 1.0) * da**2 + self.v_b * b ** (q - 1.0) * db**2

    def dissipation(self, horizon):
        """(E(0) - E(T)) / (pq), the dissipation integral."""
        drop = self.energy_of(self.d0) - self.energy(horizon)
        return float(drop) / (self.p * self.q)
