"""Time integration of the doubly nonlinear flow  d/dt u^q + (-Delta)_p^s u = 0.

Two solvers:

* evolve_direct: reduce to the ordinary differential system
      du/dt(x) = -(1/(q u(x)^(q-1))) (-Delta)_p^s u(x)
  and integrate with an embedded Dormand-Prince 5(4) pair.

* picard_solve: frozen-coefficient iteration.  Each sweep solves the linear-
  in-coefficient flow  a(x,t) du/dt + (-Delta)_p^s u = 0  with
  a = q u_prev^(q-1) built from the previous iterate's trajectory (the first
  sweep freezes at the initial datum); sweeps stop when consecutive
  trajectories agree in the sup norm.

Both preserve mass int u^q dmu and obey the maximum principle
min u_0 <= u(x,t) <= max u_0 up to solver tolerance.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    BoundViolation,
    DomainError,
    ExponentOutOfRange,
    NonPositiveState,
    PicardNotConverged,
    StepSizeUnderflow,
)
from .graph import Graph, _check_length, integrate
from .operators import FractionalKernel, frac_p_laplacian

__all__ = [
    "FlowConfig",
    "FlowState",
    "StepStats",
    "Trajectory",
    "FrozenCoefficient",
    "rhs_direct",
    "step",
    "evolve_direct",
    "solve_frozen",
    "picard_solve",
    "steady_state",
]

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)
_DP_E = _DP_B5 - _DP_B4

# Largest number of output intervals T/dt_out; each sample stores a state.
MAX_OUTPUT_INTERVALS = 10**7

_SAFETY = 0.9
_SHRINK = 0.2
_GROW = 5.0
_ORDER_EXP = 0.2  # 1/5 for a 5(4) pair


@dataclass(frozen=True)
class FlowConfig:
    """All solver parameters of a flow run."""

    s: float
    p: float
    q: float
    T: float
    dt_out: float | None = None
    atol: float = 1e-9
    rtol: float = 1e-9
    eps_reg: float = 1e-12
    picard_tol: float = 1e-10
    picard_max: int = 100

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) or f.name == "dt_out" and value is None):
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
        if not (0.0 <= self.eps_reg < math.inf and 0.0 < self.picard_tol < math.inf
                and 1 <= self.picard_max < math.inf):
            raise DomainError("bad regularization or Picard parameters")
        intervals = self.T / self.dt_out
        if not intervals < math.inf or round(intervals) > MAX_OUTPUT_INTERVALS:
            raise DomainError(f"T/dt_out = {intervals:g} output intervals, "
                              f"at most {MAX_OUTPUT_INTERVALS} allowed")

    def output_times(self) -> np.ndarray:
        n_out = max(1, round(self.T / self.dt_out))
        return np.linspace(0.0, self.T, n_out + 1)


@dataclass(frozen=True)
class FlowState:
    """Vertex function u at time t."""

    t: float
    u: np.ndarray


@dataclass
class StepStats:
    accepted: int = 0
    rejected: int = 0
    max_error: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Solution sampled on the uniform output grid."""

    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)
    stats: StepStats = field(default_factory=StepStats)

    def state(self, k: int) -> FlowState:
        return FlowState(t=float(self.times[k]), u=self.values[k])

    @property
    def u0(self) -> np.ndarray:
        return self.values[0]

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


@dataclass(frozen=True)
class FrozenCoefficient:
    """Time-dependent coefficient a(x,t), linearly interpolated between samples.

    Built from a previous iterate as a = q u_prev^(q-1); values stay inside
    (0, q * max(max u0^(q-1), min u0^(q-1))] by the maximum principle.
    """

    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)

    @classmethod
    def from_trajectory(cls, traj: Trajectory, q: float) -> "FrozenCoefficient":
        return cls(times=traj.times, values=q * traj.values ** (q - 1.0))

    @classmethod
    def constant(cls, times: np.ndarray, u_ref: np.ndarray, q: float) -> "FrozenCoefficient":
        a = q * u_ref ** (q - 1.0)
        return cls(times=times, values=np.tile(a, (len(times), 1)))

    def __call__(self, t: float) -> np.ndarray:
        times = self.times
        if t <= times[0]:
            return self.values[0]
        if t >= times[-1]:
            return self.values[-1]
        k = int(np.searchsorted(times, t) - 1)
        frac = (t - times[k]) / (times[k + 1] - times[k])
        return (1.0 - frac) * self.values[k] + frac * self.values[k + 1]


def _check_state(graph: Graph, u: np.ndarray, name: str) -> np.ndarray:
    """A state the flow can start from: right length, finite, positive."""
    u = _check_length(graph, u, name)
    if not np.isfinite(u).all():
        raise DomainError(f"{name} has non-finite entries")
    if np.min(u) <= 0.0:
        raise NonPositiveState(f"min {name} = {np.min(u)}")
    return u


def rhs_direct(
    kernel: FractionalKernel,
    u: np.ndarray,
    p: float,
    q: float,
    eps_reg: float = 0.0,
) -> np.ndarray:
    """Right-hand side of the ODE reduction: -(-Delta)_p^s u / (q u^(q-1))."""
    u = _check_length(kernel.graph, u, "u")
    if np.min(u) <= 0.0:
        raise NonPositiveState(f"min u = {np.min(u)}")
    return -frac_p_laplacian(kernel, u, p, eps_reg) / (q * u ** (q - 1.0))


def _trial_step(f, t: float, u: np.ndarray, h: float, f0: np.ndarray):
    """One Dormand-Prince 5(4) attempt; returns (u5, err_vec, f_new).

    FSAL: the last stage evaluation is the derivative at the accepted point.
    """
    k = [f0]
    for i in range(1, 6):
        ui = u + h * sum(a * ki for a, ki in zip(_DP_A[i], k))
        k.append(f(t + _DP_C[i] * h, ui))
    u5 = u + h * sum(a * ki for a, ki in zip(_DP_A[6], k))
    k.append(f(t + h, u5))
    err = h * sum(e * ki for e, ki in zip(_DP_E, k))
    return u5, err, k[6]


def _initial_step(f0: np.ndarray, u0: np.ndarray, atol: float, rtol: float, h_max: float) -> float:
    scale = atol + rtol * float(np.max(np.abs(u0)))
    rate = float(np.max(np.abs(f0)))
    if rate == 0.0:
        return h_max
    return min(h_max, 0.01 * scale ** _ORDER_EXP / rate)


def _steady_constant(graph: Graph, u: np.ndarray, q: float) -> float:
    return (integrate(graph, u**q) / graph.volume()) ** (1.0 / q)


def _integrate(f, u0: np.ndarray, times: np.ndarray, config: FlowConfig, graph: Graph):
    """Adaptive integration hitting every output time exactly.

    Steps are clamped to output-grid boundaries, so grid samples are accepted
    Runge-Kutta states rather than interpolants.  A step is rejected (and dt
    halved) if the trial state loses positivity, or if a stage evaluation
    raises NonPositiveState.

    Steady-state snap: once max(u) - min(u) falls below 1000x the local step
    tolerance, the state is replaced by its mass-consistent constant and held
    for the rest of the horizon.  The maximum principle (restarted at that
    instant) confines the exact solution to the collapsed band, so the error
    committed is below the spread, itself far below every diagnostic
    tolerance.  Without the snap, the regularized degenerate factor (p < 2)
    makes the post-collapse phase artificially stiff for an explicit pair.
    """
    atol, rtol, horizon = config.atol, config.rtol, float(times[-1])
    h_floor = 1e-14 * horizon
    stats = StepStats()
    out = np.empty((len(times), len(u0)))
    out[0] = u0

    t, u = float(times[0]), u0.copy()
    f_cur = f(t, u)
    h = _initial_step(f_cur, u, atol, rtol, config.dt_out)

    for k in range(1, len(times)):
        t_target = float(times[k])
        while t < t_target:
            snap_tol = 1e3 * (atol + rtol * float(np.max(np.abs(u))))
            if float(np.max(u)) - float(np.min(u)) <= snap_tol:
                out[k:] = _steady_constant(graph, u, config.q)
                return out, stats
            h = min(h, t_target - t)
            if h < h_floor:
                raise StepSizeUnderflow(f"dt = {h:.3e} at t = {t:.6g}")
            try:
                u_new, err, f_new = _trial_step(f, t, u, h, f_cur)
                reject_positivity = bool(np.min(u_new) <= 0.0)
            except NonPositiveState:
                u_new, err, f_new = None, None, None
                reject_positivity = True
            if reject_positivity:
                stats.rejected += 1
                h *= 0.5
                continue
            tol = atol + rtol * float(np.max(np.abs(u)))
            err_norm = float(np.max(np.abs(err))) / tol
            if err_norm <= 1.0:
                stats.accepted += 1
                stats.max_error = max(stats.max_error, err_norm * tol)
                t_new = t + h
                # land exactly on the grid point when this step reaches it
                t = t_target if t_target - t_new <= 1e-12 * horizon else t_new
                u, f_cur = u_new, f_new
            else:
                stats.rejected += 1
            factor = _SAFETY * err_norm ** -_ORDER_EXP if err_norm > 0 else _GROW
            if not math.isfinite(err_norm):  # a NaN state must end in StepSizeUnderflow
                factor = _SHRINK
            h *= min(_GROW, max(_SHRINK, factor))
        out[k] = u
    return out, stats


def step(
    kernel: FractionalKernel,
    state: FlowState,
    dt: float,
    config: FlowConfig,
    frozen: FrozenCoefficient | None = None,
):
    """One accepted embedded 5(4) step starting from the suggested dt.

    Returns (new state, local error estimate).  The suggested dt is halved on
    positivity loss and shrunk on error-test failure until acceptance.
    """
    f = _make_rhs(kernel, config, frozen)
    t, u = state.t, _check_state(kernel.graph, state.u, "u")
    f_cur = f(t, u)
    h = dt
    h_floor = 1e-14 * max(config.T, dt)
    while True:
        if not h >= h_floor:  # a NaN dt fails too
            raise StepSizeUnderflow(f"dt = {h:.3e} at t = {t:.6g}")
        try:
            u_new, err, _ = _trial_step(f, t, u, h, f_cur)
        except NonPositiveState:
            h *= 0.5
            continue
        if np.min(u_new) <= 0.0:
            h *= 0.5
            continue
        tol = config.atol + config.rtol * float(np.max(np.abs(u)))
        err_inf = float(np.max(np.abs(err)))
        if err_inf <= tol:
            return FlowState(t=t + h, u=u_new), err_inf
        h *= min(1.0, max(_SHRINK, _SAFETY * (tol / err_inf) ** _ORDER_EXP))


def _make_rhs(kernel: FractionalKernel, config: FlowConfig, frozen: FrozenCoefficient | None):
    p, q, eps = config.p, config.q, config.eps_reg
    if frozen is None:
        def f(t, u):
            return rhs_direct(kernel, u, p, q, eps)
    else:
        def f(t, u):
            return -frac_p_laplacian(kernel, u, p, eps) / frozen(t)
    return f


def _check_bounds(values: np.ndarray, u0: np.ndarray, slack: float = 1e-9):
    lo, hi = float(np.min(u0)), float(np.max(u0))
    excess = max(float(np.max(values)) - hi, lo - float(np.min(values)))
    if excess > slack:
        raise BoundViolation(
            f"trajectory leaves [{lo:.6g}, {hi:.6g}] by {excess:.3e}"
        )


def evolve_direct(kernel: FractionalKernel, u0: np.ndarray, config: FlowConfig) -> Trajectory:
    """Integrate the nonlinear flow directly; enforces the max-principle band."""
    u0 = _check_state(kernel.graph, u0, "u0")
    times = config.output_times()
    values, stats = _integrate(_make_rhs(kernel, config, None), u0, times, config, kernel.graph)
    _check_bounds(values, u0)
    return Trajectory(times=times, values=values, stats=stats)


def solve_frozen(
    kernel: FractionalKernel,
    a: FrozenCoefficient,
    u0: np.ndarray,
    config: FlowConfig,
) -> Trajectory:
    """Integrate the frozen-coefficient flow  a(x,t) du/dt + (-Delta)_p^s u = 0."""
    u0 = _check_state(kernel.graph, u0, "u0")
    if np.min(a.values) <= 0.0:
        raise NonPositiveState(f"min a = {np.min(a.values)}")
    times = config.output_times()
    values, stats = _integrate(_make_rhs(kernel, config, a), u0, times, config, kernel.graph)
    _check_bounds(values, u0)
    return Trajectory(times=times, values=values, stats=stats)


def picard_solve(
    kernel: FractionalKernel,
    u0: np.ndarray,
    config: FlowConfig,
):
    """Frozen-coefficient iteration toward the nonlinear flow.

    Returns (trajectory, iteration count, sup-distance history).  The first
    sweep freezes the coefficient at the initial datum; at q = 1 the
    coefficient does not depend on the iterate, so one sweep is exact.
    """
    u0 = _check_state(kernel.graph, u0, "u0")
    times = config.output_times()
    prev = Trajectory(times=times, values=np.tile(u0, (len(times), 1)))
    history: list[float] = []
    for it in range(1, config.picard_max + 1):
        a = FrozenCoefficient.from_trajectory(prev, config.q)
        traj = solve_frozen(kernel, a, u0, config)
        dist = float(np.max(np.abs(traj.values - prev.values)))
        history.append(dist)
        if config.q == 1.0 or dist < config.picard_tol:
            return traj, it, history
        prev = traj
    raise PicardNotConverged(history)


def steady_state(graph: Graph, u0: np.ndarray, q: float) -> float:
    """Long-time constant limit c = ( int u0^q dmu / int 1 dmu )^(1/q).

    Mass int u^q dmu is conserved, and the only zeros of (-Delta)_p^s on a
    connected graph are constants, which pins the limit.
    """
    u0 = _check_state(graph, u0, "u0")
    if not 0.0 < q < math.inf:
        raise ExponentOutOfRange(f"q = {q}, need finite q > 0")
    return (integrate(graph, u0**q) / graph.volume()) ** (1.0 / q)
