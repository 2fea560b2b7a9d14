"""Time integration of the doubly nonlinear flow  d/dt u^q + (-Delta)_p^s u = 0.

Two solvers:

* evolve_direct: reduce to the ordinary differential system
      du/dt(x) = -(1/(q u(x)^(q-1))) (-Delta)_p^s u(x)
  and integrate with an embedded Dormand-Prince 5(4) pair.  The error test
  alone sets the step size, and the first one comes from two probes of the
  right-hand side (Hairer-Norsett-Wanner I, II.4), so the stepper starts
  near its working step instead of growing into it.  The samples on the
  output grid come from the pair's continuous extension inside each
  accepted step.

* picard_solve: frozen-coefficient iteration.  Each sweep solves the linear-
  in-coefficient flow  a(x,t) du/dt + (-Delta)_p^s u = 0, where the
  coefficient is a function of t: a = q u_prev(t)^(q-1), u_prev the previous
  sweep's continuous extension (the first sweep freezes a at the initial
  datum); sweeps stop once their iteration error is a tenth of the step
  tolerance (picard_solve), or fail after MAX_SWEEPS.  The extension is C^1
  across steps, so a sweep steps on the error test alone, as evolve_direct does.

Both preserve mass int u^q dmu and obey the maximum principle
min u_0 <= u(x,t) <= max u_0 up to solver tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BoundViolation,
    DomainError,
    ExponentOutOfRange,
    NonPositiveState,
    PicardNotConverged,
    StepBudgetExceeded,
    StepSizeUnderflow,
)
from .graph import Graph, _check_length, integrate
from .operators import FractionalKernel, _row_blocks, frac_p_laplacian

__all__ = [
    "FlowConfig",
    "StepStats",
    "Trajectory",
    "rhs_direct",
    "evolve_direct",
    "picard_solve",
    "steady_state",
]

# Dormand-Prince 5(4) tableau.  Row i of _DP_A combines stages 0..i-1 into
# the argument of stage i; its last row is the 5th-order weights, so the
# last stage is the derivative at the new state (FSAL).
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_A[6] - _DP_B4
# Free 4th-order continuous extension (Shampine 1986; Hairer-Norsett-Wanner I,
# II.6): u(t + x h) = u(t) + h * sum_ij _DP_P[i, j] x^(j+1) k_i, from the seven
# stages k_i of the step.
_DP_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])

# Largest number of values, samples x vertices, one run stores: 128 MiB of floats.
MAX_SAMPLE_VALUES = 2**24
# Largest number of steps, accepted plus rejected, of one solve, the sweeps of a
# Picard solve together; the most that a direct solve of a test or a benchmark
# takes is 778, and that a Picard solve in the tests takes, 2230 over 11 sweeps.
MAX_STEPS = 10_000
MAX_SWEEPS = 100  # most sweeps of a Picard solve; the tests take at most 14
# How far a trajectory may leave [min u0, max u0] before it violates the
# maximum principle; the solvers enforce it and verify reports it.
MAX_PRINCIPLE_SLACK = 1e-9

_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 5.0
_ORDER_EXP = 0.2  # 1/5 for a 5(4) pair


@dataclass(frozen=True)
class FlowConfig:
    """All solver parameters of a flow run; atol and rtol also set Picard's stop."""

    s: float
    p: float
    q: float
    T: float
    dt_out: float | None = None
    atol: float = 1e-9
    rtol: float = 1e-9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # bool is a numbers.Real: without this a JSON true would read as 1
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Real) or f.name == "dt_out" and value is None):
                raise DomainError(f"{f.name} = {value!r} is not a number")
        # every check is written so that NaN fails it; `< inf` rejects inf
        if not 0.0 < self.s < 1.0:
            raise ExponentOutOfRange(f"s = {self.s}, need 0 < s < 1")
        if not 1.0 < self.p < math.inf:
            raise ExponentOutOfRange(f"p = {self.p}, need finite p > 1")
        if not 0.0 < self.q < math.inf:
            raise ExponentOutOfRange(f"q = {self.q}, need finite q > 0")
        if not 0.0 < self.T < math.inf:
            raise DomainError(f"T = {self.T}, need finite T > 0")
        if self.dt_out is None:
            object.__setattr__(self, "dt_out", self.T / 200.0)
        if not (0.0 < self.dt_out < math.inf and 0.0 < self.atol < math.inf
                and 0.0 <= self.rtol < math.inf):
            raise DomainError("dt_out and atol must be positive, rtol nonnegative, all finite")
        if not (intervals := self.T / self.dt_out) < math.inf:
            raise DomainError(f"T/dt_out = {intervals:g} output intervals, need a finite count")
        self._require_size(2)  # a graph has at least 2 vertices

    def _samples(self) -> int:
        """Number of output times, both ends included."""
        return max(1, round(self.T / self.dt_out)) + 1

    def output_times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self._samples())

    def _require_size(self, n: int) -> "FlowConfig":
        """This config, if its samples on n vertices hold at most MAX_SAMPLE_VALUES values."""
        if (values := float(self._samples()) * n) > MAX_SAMPLE_VALUES:  # exact below 2^53
            raise DomainError(f"{values:.15g} output values, at most {MAX_SAMPLE_VALUES} allowed")
        return self

    def _require_kernel(self, kernel: FractionalKernel) -> "FlowConfig":
        """This config, if its s is the kernel's and its samples fit the kernel's graph."""
        if self.s != kernel.s:
            raise DomainError(f"config s = {self.s}, but the kernel's s = {kernel.s}")
        return self._require_size(kernel.n)

    def _step_tolerance(self, u_max: float) -> float:
        """atol + rtol max|u| of a positive state u whose largest value is u_max."""
        return self.atol + self.rtol * u_max


@dataclass
class StepStats:
    """What one solve did; a Picard solve's sweeps count into one record.

    A step is rejected for a failed error test or for a lost positivity (a
    trial state or a stage argument not positive).  A steady-state snap records
    its time, the spread max u - min u of the state it replaced, and the step
    tolerance that spread was judged against; all three are None without one.
    """

    accepted: int = 0
    rejected_error: int = 0
    rejected_positivity: int = 0
    rhs_evals: int = 0
    h_min: float = math.inf
    h_max: float = 0.0
    snap_time: float | None = None
    snap_spread: float | None = None
    snap_tolerance: float | None = None

    @property
    def rejected(self) -> int:
        """Rejected steps of both kinds."""
        return self.rejected_error + self.rejected_positivity


@dataclass(frozen=True)
class Trajectory:
    """Solution sampled on the uniform output grid.

    A sample is the accepted state when a step ends on its time, and the
    stepper's continuous extension inside the step otherwise.
    """

    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)
    stats: StepStats

    @property
    def u0(self) -> np.ndarray:
        return self.values[0]

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def _span(states: np.ndarray) -> tuple[float, float]:
    """The smallest and the largest value of states."""
    return float(np.min(states)), float(np.max(states))


def _band_excess(band: tuple[float, float], span: tuple[float, float]) -> float:
    """How far states of span (min, max) leave band (lo, hi); not positive inside it."""
    return max(span[1] - band[1], band[0] - span[0])


def _check_state(graph: Graph, u0: np.ndarray, q: float) -> np.ndarray:
    """A u0 the flow at q can start from: right length, finite, positive, no overflow.

    Every state lies in [min u0, max u0] (maximum principle), so the flow does
    not overflow when the rate's divisor q u^(q-1) is finite and positive, and the
    bounds vol u^q and vol u^(q+1) of the mass and energy integrands finite, at both.
    """
    u0 = _check_length(graph, u0, "u0")
    if not np.isfinite(u0).all():
        raise DomainError("u0 has non-finite entries")
    if np.min(u0) <= 0.0:
        raise NonPositiveState(f"min u0 = {np.min(u0)}")
    ends = np.array(_span(u0))
    with np.errstate(over="ignore"):
        divisor = q * ends ** (q - 1.0)
        integrals = graph.volume() * np.concatenate([ends**q, ends ** (q + 1.0)])
    if not (np.isfinite(integrals).all() and np.isfinite(divisor).all() and divisor.min() > 0):
        raise DomainError(f"the flow from [min u0, max u0] = [{ends[0]:.6g}, {ends[1]:.6g}] "
                          f"at q = {q:g} overflows a float")
    return u0


def rhs_direct(
    kernel: FractionalKernel,
    u: np.ndarray,
    p: float,
    q: float,
    eps_reg: float = 0.0,
) -> np.ndarray:
    """Right-hand side of the ODE reduction: -(-Delta)_p^s u / (q u^(q-1)).

    A stack u (m, n) gives the right-hand side at each of its rows.
    """
    lap = frac_p_laplacian(kernel, u, p, eps_reg)  # checks the shape of u
    u = np.asarray(u, dtype=float)
    if (low := u.min()) <= 0.0:
        raise NonPositiveState(f"min u = {low}")
    return -lap / (q * u ** (q - 1.0))


def _trial_step(f, t: float, u: np.ndarray, h: float, f0: np.ndarray):
    """One Dormand-Prince 5(4) attempt; returns (u5, err_vec, stages).

    The stages form a (7, n) array; the last one is the derivative at u5.
    """
    k = np.empty((7, len(u)))
    k[0] = f0
    for i in range(1, 7):
        ui = u + h * (_DP_A[i, :i] @ k[:i])
        k[i] = f(t + _DP_C[i] * h, ui)
    return ui, h * (_DP_E @ k), k


def _dense_output(u: np.ndarray, h: float, k: np.ndarray, x: np.ndarray) -> np.ndarray:
    """States at the fractions x in [0, 1] of the step of size h from u."""
    powers = x[:, None] ** np.arange(1, 5)  # x, x^2, x^3, x^4
    return u + h * (powers @ _DP_P.T @ k)


def _initial_step(f, t: float, u0: np.ndarray, f0: np.ndarray, tol: float,
                  h_max: float) -> float:
    """Starting step from two probes of the right-hand side, at most h_max.

    Hairer-Norsett-Wanner I, II.4, normed like the controller (sup norm over
    tol): an explicit Euler step h0 = 0.01 |u0| / |f0| probes f once more,
    and the step is sized so that h^5 max(|f0|, |f1 - f0| / h0) is 0.01 of
    tol.  A probe state that is not positive leaves h0.
    """
    d0 = float(np.max(np.abs(u0))) / tol
    d1 = float(np.max(np.abs(f0))) / tol
    if d1 == 0.0:
        return h_max
    h0 = min(h_max, 0.01 * d0 / d1 if d0 >= 1e-5 and d1 >= 1e-5 else 1e-6)
    if not h0 > 0.0:  # an infinite rate; the controller raises StepSizeUnderflow
        return h0
    try:
        f1 = f(t + h0, u0 + h0 * f0)
    except NonPositiveState:
        return h0
    d2 = float(np.max(np.abs(f1 - f0))) / tol / h0
    rate = max(d1, d2)
    h1 = (0.01 / rate) ** _ORDER_EXP if rate > 1e-15 else max(1e-6, 1e-3 * h0)
    return min(100.0 * h0, h1, h_max)


def _accept_step(f, t: float, u: np.ndarray, f0: np.ndarray, h: float, tol: float,
                 stats: StepStats):
    """The step controller: retry a step of size h from (t, u) until one is accepted.

    A trial that loses positivity (its state, or a stage argument that raises
    NonPositiveState) halves h; the error test against tol rescales it.  A step
    that is not positive or below 1e-14 max(|t|, h), h as given (~45 ulps of t),
    raises StepSizeUnderflow.  Returns the accepted h, state, span (min, max) and
    stages, and the next h; counts every trial in ``stats``.
    """
    h_floor = 1e-14 * max(abs(t), h)
    while True:
        if not (h > 0.0 and h >= h_floor):  # a NaN h fails too
            raise StepSizeUnderflow(f"dt = {h:.3e} at t = {t:.6g}")
        try:
            u_new, err_vec, k = _trial_step(f, t, u, h, f0)
            lost_positivity = (low := float(np.min(u_new))) <= 0.0
        except NonPositiveState:
            lost_positivity = True
        if lost_positivity:
            stats.rejected_positivity += 1
            h *= 0.5
            continue
        err_norm = float(np.max(np.abs(err_vec))) / tol
        factor = _SAFETY * err_norm ** -_ORDER_EXP if err_norm > 0 else _GROW
        if not math.isfinite(err_norm):  # a NaN state must end in StepSizeUnderflow
            factor = _SHRINK
        h_next = h * min(_GROW, max(_SHRINK, factor))
        if err_norm <= 1.0:
            stats.accepted += 1
            stats.h_min, stats.h_max = min(stats.h_min, h), max(stats.h_max, h)
            return h, u_new, (low, float(np.max(u_new))), k, h_next
        stats.rejected_error += 1
        h = h_next


def _integrate(f, u0: np.ndarray, config: FlowConfig, graph: Graph,
               steps: list | None = None, stats: StepStats | None = None) -> Trajectory:
    """The Trajectory of du/dt = f(t, u) on config.output_times() from an admitted u0.

    The error test alone sets the step size (``_accept_step``), except that
    no step passes the horizon T, which the last step ends on exactly.  An
    output time inside an accepted step is sampled, a row block at a time, from
    the pair's continuous extension; one that a step ends on gets the accepted
    state.  Each accepted step (t, h, u, stages) is appended to ``steps`` when a
    list is given.  The run counts into ``stats``, a new record if none is given,
    whose snap record becomes this run's.  StepBudgetExceeded ends the run once the
    record holds MAX_STEPS steps, accepted plus rejected, so the sweeps of a
    Picard solve, which share one record, take MAX_STEPS in all.

    Every accepted state and the samples that each step makes must lie
    in [min u0, max u0] up to MAX_PRINCIPLE_SLACK, else BoundViolation ends the
    run; the snap's constant, a power mean of such a state, lies there too.

    Steady-state snap: once max(u) - min(u) falls below 10 (p >= 2) or 1000
    (p < 2) local step tolerances, the state is replaced by its mass-consistent
    constant and held for the rest of the horizon.  The maximum principle
    (restarted at that instant) confines the exact solution to the collapsed
    band, so the error committed is below the spread.  Without the snap, the
    factor g^(p-2), unbounded at p < 2 as the spread collapses, makes that
    phase stiff for an explicit pair; at p >= 2 the pair stays cheap there,
    so the snap waits until its error is a few step tolerances.
    """
    times = config.output_times()
    t, horizon = 0.0, float(times[-1])
    stats = StepStats() if stats is None else stats
    stats.snap_time = stats.snap_spread = stats.snap_tolerance = None
    lo, hi = band = span = _span(u0)

    def check_band(span):
        if (excess := _band_excess(band, span)) > MAX_PRINCIPLE_SLACK:
            raise BoundViolation(f"trajectory leaves [{lo:.6g}, {hi:.6g}] by {excess:.3e}")

    def counted(ti, ui):
        stats.rhs_evals += 1
        return f(ti, ui)

    out = np.empty((len(times), len(u0)))
    out[0] = u0
    filled = 1  # samples out[:filled] are done
    u = u0.copy()
    f_cur = counted(t, u)
    h = _initial_step(counted, t, u, f_cur, config._step_tolerance(hi), horizon - t)

    while t < horizon:
        if stats.accepted + stats.rejected >= MAX_STEPS:
            raise StepBudgetExceeded(f"{MAX_STEPS} steps reached t = {t:.6g} of {horizon:.6g}")
        tol = config._step_tolerance(span[1])
        if (spread := span[1] - span[0]) <= (10.0 if config.p >= 2.0 else 1e3) * tol:
            out[filled:] = steady_state(graph, u, config.q)
            stats.snap_time, stats.snap_spread, stats.snap_tolerance = t, spread, tol
            break
        h, u_new, span, k, h_next = _accept_step(counted, t, u, f_cur, min(h, horizon - t),
                                                 tol, stats)
        check_band(span)
        t_new = t + h
        if horizon - t_new <= 1e-12 * horizon:  # land exactly on the horizon
            t_new = horizon
        if steps is not None:
            steps.append((t, h, u, k))
        end = int(np.searchsorted(times, t_new, side="right"))
        if end > filled:
            for block in _row_blocks(end, filled):
                out[block] = _dense_output(u, h, k, (times[block] - t) / h)
            if times[end - 1] == t_new:
                out[end - 1] = u_new
            check_band(_span(out[filled:end]))
            filled = end
        t, u, f_cur, h = t_new, u_new, k[6], h_next
    return Trajectory(times=times, values=out, stats=stats)


def evolve_direct(kernel: FractionalKernel, u0: np.ndarray, config: FlowConfig) -> Trajectory:
    """Integrate the nonlinear flow directly; enforces the max-principle band.

    A u0 whose flow overflows a float is a DomainError, raised before any step.
    """
    u0 = _check_state(kernel.graph, u0, config._require_kernel(kernel).q)
    p, q = config.p, config.q
    return _integrate(lambda t, u: rhs_direct(kernel, u, p, q), u0, config, kernel.graph)


def _swept_coefficient(steps: list, q: float):
    """a(t) = q u_prev(t)^(q-1) on a sweep's accepted steps (t, h, u, stages).

    u_prev(t) is the continuous extension of the step that contains t, and
    past the last step its end state, which also covers a steady-state snap.
    """
    starts = np.array([t for t, *_ in steps])

    def a(t):
        k = max(0, int(np.searchsorted(starts, t, side="right")) - 1)
        t0, h, u, stages = steps[k]
        u_t = _dense_output(u, h, stages, np.array([min(1.0, (t - t0) / h)]))[0]
        return q * u_t ** (q - 1.0)

    return a


def picard_solve(
    kernel: FractionalKernel,
    u0: np.ndarray,
    config: FlowConfig,
):
    """Frozen-coefficient iteration toward the nonlinear flow.

    Returns (trajectory, iteration count, sup-distance history).  The first
    sweep freezes the coefficient at the initial datum; at q = 1 the
    coefficient does not depend on the iterate, so one sweep is exact.  Sweep k
    is d_k from the last in the sup norm (the first from the constant u0), and
    from the third, with theta_k = d_k/d_(k-1), the solve stops once
    theta_k/(1-theta_k) d_k <= 0.1 (atol + rtol max u0) (simplified Newton's
    test, Hairer-Wanner II, IV.8); MAX_SWEEPS sweeps raise PicardNotConverged.  The
    sweeps count into one stats record, the trajectory's: it holds the work of
    the whole solve and the last sweep's snap record, and MAX_STEPS bounds all
    sweeps together.  A sweep holds three output grids as it takes its distance,
    and both sweeps' accepted steps, 8n floats each, at most MAX_STEPS in all.
    A u0 whose flow overflows a float is a DomainError, raised before any sweep.
    At q = 3 its error is up to 14x evolve_direct's at one tolerance; ROADMAP item 8 mends it.
    """
    u0 = _check_state(kernel.graph, u0, config._require_kernel(kernel).q)
    p, q = config.p, config.q
    a0 = q * u0 ** (q - 1.0)
    a, prev = (lambda t: a0), u0
    tol = 0.1 * config._step_tolerance(float(np.max(u0)))
    history: list[float] = []
    stats = StepStats()
    for it in range(1, MAX_SWEEPS + 1):
        steps: list = []
        traj = _integrate(lambda t, u: -frac_p_laplacian(kernel, u, p) / a(t), u0, config,
                          kernel.graph, steps, stats)
        diff = traj.values - prev
        dist = float(max(np.max(diff), -np.min(diff)))
        del diff  # so that the next sweep does not hold it
        history.append(dist)
        # a sweep that snaps before its first step does not depend on a
        if q == 1.0 or not steps or it >= 3 and dist * dist <= tol * (history[-2] - dist):
            return traj, it, history
        a, prev = _swept_coefficient(steps, q), traj.values
    raise PicardNotConverged(history)


def steady_state(graph: Graph, u0: np.ndarray, q: float) -> float:
    """Long-time constant limit c = ( int u0^q dmu / int 1 dmu )^(1/q).

    Mass int u^q dmu is conserved, and the only zeros of (-Delta)_p^s on a
    connected graph are constants, which pins the limit.  A u0 whose flow
    overflows is a DomainError.
    """
    if not 0.0 < q < math.inf:
        raise ExponentOutOfRange(f"q = {q}, need finite q > 0")
    u0 = _check_state(graph, u0, q)
    return (integrate(graph, u0**q) / graph.volume()) ** (1.0 / q)
