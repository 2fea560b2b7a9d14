"""Quantitative checks along computed trajectories.

Verifies, with explicit tolerances, the structural facts of the flow:
mass conservation, the maximum principle, the energy identity

    q/(q+1) int u(T)^(q+1) dmu + int_0^T int |grad^s u|^p dmu dt
        = q/(q+1) int u_0^(q+1) dmu,

the dissipation bound

    int_0^T int (u^((q-1)/2) du/dt)^2 dmu dt <= 1/(pq) int |grad^s u_0|^p dmu,

and the decay of the Dirichlet energy toward the constant steady state.
Time derivatives are reconstructed by re-applying the right-hand side at the
stored samples (never by differencing the trajectory), and time integrals use
the composite trapezoid rule on the uniform output grid.  The dissipation
integral is truncated at the horizon, which only weakens its left-hand side
because the integrand is nonnegative.

The samples are the solver's accepted states or its continuous extension
between them, accurate to about the step tolerance.  Per-sample quantities
are computed for a block of samples at a time, the row blocks of
operators._row_blocks, with one matrix product with the kernel per block, so
memory does not grow with the number of samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveState
from .flow import (MAX_PRINCIPLE_SLACK, FlowConfig, Trajectory, _band_excess, _span,
                   rhs_direct, steady_state)
from .graph import Graph, _check_length, integrate
from .operators import FractionalKernel, _row_blocks, dirichlet_p_energy

__all__ = [
    "Check",
    "DiagnosticsReport",
    "mass",
    "energy_identity_residual",
    "dissipation_check",
    "max_principle_check",
    "time_derivative_sup",
    "build_report",
]


@dataclass(frozen=True)
class Check:
    """One row of a report's check table: it passes when measured <= threshold."""

    name: str
    measured: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.measured <= self.threshold


@dataclass(frozen=True)
class DiagnosticsReport:
    energy_identity_residual: float
    dissipation_lhs: float
    dissipation_rhs: float
    mass_drift: float
    bound_violation: float
    final_gradient_energy: float
    initial_gradient_energy: float
    steady_state_error: float
    final_time_derivative_sup: float
    check_table: tuple[Check, ...]


def mass(graph: Graph, u: np.ndarray, q: float) -> float | np.ndarray:
    """int u^q dmu, conserved along the flow; for a stack u (m, n), the m masses
    of its rows, each a compensated sum as ``integrate`` takes it."""
    u = _check_length(graph, u, "u", stack=True)
    if np.min(u) <= 0.0 and not float(q).is_integer():
        raise NonPositiveState(f"min u = {np.min(u)} with non-integer q = {q}")
    rows = u.reshape(-1, graph.n)
    masses = np.empty(len(rows))
    for block in _row_blocks(len(rows)):
        masses[block] = [math.fsum(r) for r in (rows[block] ** q * graph.mu).tolist()]
    return float(masses[0]) if u.ndim == 1 else masses


def _energy_identity_residual(
    traj: Trajectory, graph: Graph, energies: np.ndarray, q: float
) -> float:
    lhs = (q / (q + 1.0) * integrate(graph, traj.final ** (q + 1.0))
           + float(np.trapezoid(energies, traj.times)))
    rhs = q / (q + 1.0) * integrate(graph, traj.u0 ** (q + 1.0))
    return abs(lhs - rhs) / (abs(rhs) + 1.0)


def energy_identity_residual(
    traj: Trajectory, kernel: FractionalKernel, p: float, q: float
) -> float:
    """Scaled residual |LHS - RHS| / (|RHS| + 1) of the energy identity."""
    energies = dirichlet_p_energy(kernel, traj.values, p)
    return _energy_identity_residual(traj, kernel.graph, energies, q)


def _dissipation_pass(traj: Trajectory, kernel: FractionalKernel, p: float,
                      q: float) -> tuple[float, np.ndarray]:
    """The truncated dissipation integral of int u^(q-1) (du/dt)^2 dmu, and du/dt
    at the final sample (the last row of the last block)."""
    mu, values = kernel.graph.mu, traj.values
    integrand = np.empty(len(values))
    for block in _row_blocks(len(values)):
        u = values[block]
        dudt = rhs_direct(kernel, u, p, q)
        integrand[block] = (u ** (q - 1.0) * dudt**2) @ mu
    return float(np.trapezoid(integrand, traj.times)), dudt[-1]


def dissipation_check(
    traj: Trajectory,
    kernel: FractionalKernel,
    p: float,
    q: float,
    slack: float = 1e-6,
):
    """Truncated dissipation integral against its initial-energy bound.

    Returns (lhs, rhs, satisfied) with satisfied = lhs <= rhs + slack*(rhs+1).
    """
    lhs, _ = _dissipation_pass(traj, kernel, p, q)
    rhs = dirichlet_p_energy(kernel, traj.u0, p) / (p * q)
    return lhs, rhs, lhs <= rhs + slack * (rhs + 1.0)


def max_principle_check(traj: Trajectory, u0: np.ndarray | None = None) -> float:
    """Largest excursion outside [min u0, max u0] over the whole grid (0 if none)."""
    return max(_band_excess(_span(traj.u0 if u0 is None else u0), _span(traj.values)), 0.0)


def time_derivative_sup(traj: Trajectory, kernel: FractionalKernel, p: float, q: float) -> float:
    """max_x |du/dt(x, T)| reconstructed from the right-hand side at the final state."""
    return float(np.max(np.abs(rhs_direct(kernel, traj.final, p, q))))


def build_report(
    traj: Trajectory, kernel: FractionalKernel, config: FlowConfig
) -> DiagnosticsReport:
    """Run every check on a finished trajectory."""
    p, q, graph = config._require_kernel(kernel).p, config.q, kernel.graph
    masses = mass(graph, traj.values, q)
    mass0 = float(masses[0])
    drift = float(np.max(np.abs(masses - mass0)))
    # one pass each for du/dt and the energy at every sample; the final du/dt
    # and the initial energy come from those passes
    lhs, dudt_final = _dissipation_pass(traj, kernel, p, q)
    energies = dirichlet_p_energy(kernel, traj.values, p)
    energy0, energy_final = float(energies[0]), float(energies[-1])
    rhs = energy0 / (p * q)
    # widen the dissipation slack by the trapezoid error budget of the output grid
    slack = 1e-6 + 10.0 * float(traj.times[1] - traj.times[0]) ** 2
    residual = _energy_identity_residual(traj, graph, energies, q)
    excursion = max_principle_check(traj)
    return DiagnosticsReport(
        energy_identity_residual=residual, dissipation_lhs=lhs, dissipation_rhs=rhs,
        mass_drift=drift, bound_violation=excursion,
        final_gradient_energy=energy_final, initial_gradient_energy=energy0,
        steady_state_error=float(np.max(np.abs(traj.final - steady_state(graph, traj.u0, q)))),
        final_time_derivative_sup=float(np.max(np.abs(dudt_final))),
        check_table=(
            Check("max_principle", excursion, MAX_PRINCIPLE_SLACK),
            Check("mass_conservation", drift, 1e-8 * abs(mass0)),
            Check("dissipation_bound", lhs, rhs + slack * (rhs + 1.0)),
            Check("energy_identity", residual, max(1e-8, 10.0 * config.dt_out**2)),
            Check("gradient_decay", energy_final, energy0 * (1 + 1e-8) + 1e-12),
        ),
    )
