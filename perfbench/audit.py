"""Correctness gate: checks every solve's output against the paper's identities.

Each check is reported as a ratio of a measured value to its threshold (at
most 1 on a pass); the largest ratio of a run is `worst_check_ratio`.  The
thresholds are those `fracgraph verify` applies:

* energy-identity residual against max(1e-8, 10 dt_out^2);
* mass drift against 1e-8 * mass0;
* max-principle excursion against 1e-9;
* for audits, the dissipation excess lhs - rhs against its slack
  (1e-6 + 10 dt^2) * (rhs + 1).

Audits are judged from the exit code and `report.json`, by the comparisons
`fracgraph verify` makes; mass0 is recomputed here from the graph and the
initial data.  Sweep solves are judged from the exit status the CLI prints
and from `trajectory.csv`, whose columns are re-integrated here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MASS_TOL = 1e-8
BOUND_TOL = 1e-9


@dataclass
class Solve:
    """Outcome of one (graph, s, p, q, u0) solve."""

    label: str
    ok: bool = False
    # False when the program reported success on output that fails a check,
    # or when its own verdicts disagree with the recomputed ones.
    consistent: bool = True
    ratios: dict = field(default_factory=dict)
    # Checks the solve failed; empty when it failed without reaching them
    # (crash, timeout, unreadable output, or a FAIL status alone).
    failed_checks: tuple = ()
    reason: str = ""


def energy_tol(dt_out: float) -> float:
    return max(1e-8, 10.0 * dt_out**2)


def mass(mu: np.ndarray, u: np.ndarray, q: float) -> float:
    """The sum fracgraph.mass computes, in the same order."""
    return math.fsum(u**q * mu)


def check_audit(label: str, out: Path, exit_code: int, mu: np.ndarray,
                u0: np.ndarray, s: float, p: float, q: float, T: float,
                dt_out: float) -> Solve:
    """Judge one `verify` solve by its exit code and every check in report.json."""
    solve = Solve(label)
    try:
        report = json.loads((out / "report.json").read_text())
    except (OSError, ValueError) as exc:
        solve.reason = f"exit {exit_code}, no report.json ({exc})"
        return solve
    mass0 = mass(mu, u0, q)
    times = np.linspace(0.0, T, max(1, round(T / dt_out)) + 1)
    slack = 1e-6 + 10.0 * float(times[1] - times[0]) ** 2
    lhs, rhs = report["dissipation_lhs"], report["dissipation_rhs"]
    solve.ratios = {
        "energy_identity": report["energy_identity_residual"] / energy_tol(dt_out),
        "mass_conservation": report["mass_drift"] / (MASS_TOL * abs(mass0)),
        "max_principle": report["bound_violation"] / BOUND_TOL,
        "dissipation_bound": (lhs - rhs) / (slack * (rhs + 1.0)),
    }
    # The verdicts repeat the comparisons `fracgraph verify` makes, term for
    # term, so a ratio within round-off of 1 cannot make the two disagree.
    verdict = {
        "max_principle": report["bound_violation"] <= BOUND_TOL,
        "mass_conservation": report["mass_drift"] <= MASS_TOL * abs(mass0),
        "dissipation_bound": lhs <= rhs + slack * (rhs + 1.0),
        "energy_identity": report["energy_identity_residual"] <= energy_tol(dt_out),
        "gradient_decay": report["final_gradient_energy"]
        <= report["initial_gradient_energy"] * (1 + 1e-8) + 1e-12,
    }
    claimed = report.get("checks", {})
    solve.consistent = claimed == verdict and (exit_code == 0) == all(verdict.values())
    solve.ok = solve.consistent and all(verdict.values())
    solve.failed_checks = tuple(name for name, passed in verdict.items() if not passed)
    if not solve.ok:
        solve.reason = f"exit {exit_code}, failed {list(solve.failed_checks)}" + (
            "" if solve.consistent else f", program claimed {claimed}")
    return solve


def check_trajectory(label: str, out: Path, status_ok: bool, mu: np.ndarray,
                     u0: np.ndarray, q: float, T: float, dt_out: float) -> Solve:
    """Judge one `evolve` solve by trajectory.csv, recomputing its invariants."""
    solve = Solve(label)
    try:
        summary = json.loads((out / "summary.json").read_text())
        table = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        solve.reason = f"status {'ok' if status_ok else 'FAIL'}, unreadable output ({exc})"
        solve.consistent = not status_ok
        return solve
    n = len(mu)
    t, u = table[:, 0], table[:, 1:n + 1]
    min_u, max_u, energy = table[:, n + 1], table[:, n + 2], table[:, n + 4]
    n_out = max(1, round(T / dt_out))
    shape_ok = (
        table.shape == (n_out + 1, n + 5)
        and np.array_equal(u[0], u0)
        and np.allclose(t, np.linspace(0.0, T, n_out + 1), rtol=0, atol=1e-12 * T)
        and np.array_equal(min_u, u.min(axis=1))
        and np.array_equal(max_u, u.max(axis=1))
        and "error" not in summary
    )
    if not shape_ok:
        solve.reason = "trajectory.csv does not match its inputs or its own columns"
        solve.consistent = not status_ok
        return solve
    m0 = mass(mu, u0, q)
    drift = max(abs(mass(mu, row, q) - m0) for row in u)
    excursion = max(float(u.max()) - float(u0.max()), float(u0.min()) - float(u.min()), 0.0)
    c = q / (q + 1.0)
    lhs = c * mass(mu, u[-1], q + 1.0) + float(np.trapezoid(energy, t))
    rhs = c * mass(mu, u0, q + 1.0)
    residual = abs(lhs - rhs) / (abs(rhs) + 1.0)
    solve.ratios = {
        "energy_identity": residual / energy_tol(dt_out),
        "mass_conservation": drift / (MASS_TOL * abs(m0)),
        "max_principle": excursion / BOUND_TOL,
    }
    passed = all(r <= 1.0 for r in solve.ratios.values())
    solve.ok = status_ok and passed
    solve.consistent = passed or not status_ok
    solve.failed_checks = tuple(name for name, r in solve.ratios.items() if r > 1.0)
    if not solve.ok:
        solve.reason = (f"status {'ok' if status_ok else 'FAIL'}, "
                        f"failed {list(solve.failed_checks)}")
    return solve
