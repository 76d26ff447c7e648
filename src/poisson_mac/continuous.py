"""
Continuous-time reference channel and dead-time convergence studies.

As the dead time shrinks, the per-slot information rate I/tau of the
photon-counting receiver converges pointwise to the continuous-time Poisson
expression built from phi(x) = x ln x:

    R(mu1, mu2) = mu1 mu2 phi(a1+a2+l0) + (1-mu1) mu2 phi(a2+l0)
                + mu1 (1-mu2) phi(a1+l0) + (1-mu1)(1-mu2) phi(l0)
                - phi(mu1 a1 + mu2 a2 + l0),

and the stationarity curves of the finite-tau solver converge to closed
forms: the affine curve tends to slope a1/a2 with a phi-expression intercept,
and the convex curve to an exponential form.  The continuous optimum is
located by grid search with local refinement, by the same maximiser as the
grid oracle of gridsearch.py; it serves as the reference against which
finite-tau capacities are gapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, DutyPair, _require_finite, phi
from .gridsearch import GridSpec, _grid_max
from .siso import SolveReport, solve

__all__ = [
    "ContinuousParams",
    "ConvergenceRow",
    "cont_mutual_info_rate",
    "cont_f",
    "cont_g",
    "cont_capacity",
    "convergence_report",
]


@dataclass(frozen=True)
class ContinuousParams:
    """Peak and background rates of the zero-dead-time reference channel."""

    a1: float
    a2: float
    lambda0: float

    def __post_init__(self) -> None:
        _require_finite(self, ("a1", "a2", "lambda0"))
        for name in ("a1", "a2", "lambda0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def cont_mutual_info_rate(cp: ContinuousParams, duty: DutyPair) -> float:
    """Continuous-channel information rate in nats per unit time."""
    m1, m2 = duty.mu1, duty.mu2
    return (
        m1 * m2 * phi(cp.a1 + cp.a2 + cp.lambda0)
        + (1.0 - m1) * m2 * phi(cp.a2 + cp.lambda0)
        + m1 * (1.0 - m2) * phi(cp.a1 + cp.lambda0)
        + (1.0 - m1) * (1.0 - m2) * phi(cp.lambda0)
        - phi(m1 * cp.a1 + m2 * cp.a2 + cp.lambda0)
    )


def cont_f(cp: ContinuousParams, mu1: float) -> float:
    """Zero-dead-time limit of the affine stationarity curve."""
    a1, a2, l0 = cp.a1, cp.a2, cp.lambda0
    slope = a1 / a2
    den = phi(l0) - phi(a2 + l0) - phi(a1 + l0) + phi(a1 + a2 + l0)
    num = phi(l0) - phi(a1 + l0) - slope * (phi(l0) - phi(a2 + l0))
    return slope * mu1 + num / den


def cont_g(cp: ContinuousParams, mu1: float) -> float:
    """Zero-dead-time limit of the convex stationarity curve."""
    a1, a2, l0 = cp.a1, cp.a2, cp.lambda0
    expo = (
        -1.0
        - (
            mu1 * (phi(a1 + l0) - phi(a1 + a2 + l0))
            + (1.0 - mu1) * (phi(l0) - phi(a2 + l0))
        )
        / a2
    )
    return math.exp(expo) / a2 - (mu1 * a1 + l0) / a2


def _rate_grid(cp: ContinuousParams, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    def phi_arr(x: np.ndarray | float) -> np.ndarray | float:
        return np.where(x > 0.0, x * np.log(np.maximum(x, 1e-300)), 0.0)

    mean = m1 * cp.a1 + m2 * cp.a2 + cp.lambda0
    return (
        m1 * m2 * phi(cp.a1 + cp.a2 + cp.lambda0)
        + (1.0 - m1) * m2 * phi(cp.a2 + cp.lambda0)
        + m1 * (1.0 - m2) * phi(cp.a1 + cp.lambda0)
        + (1.0 - m1) * (1.0 - m2) * phi(cp.lambda0)
        - phi_arr(mean)
    )


def cont_capacity(
    cp: ContinuousParams, step: float = 1e-3, refine_rounds: int = 3
) -> tuple[float, DutyPair]:
    """Continuous optimum by full grid search plus tenfold local refinements
    (gridsearch._grid_max, the search behind grid_capacity).

    Defaults refine the duty resolution from 1e-3 down to 1e-6; the reference
    is an oracle, not a solver, so plain search is deliberate.  step and
    refine_rounds must satisfy GridSpec's bounds.
    """
    return _grid_max(lambda m1, m2: _rate_grid(cp, m1, m2), GridSpec(step, refine_rounds))


@dataclass(frozen=True)
class ConvergenceRow:
    """One dead-time point of a convergence study."""

    tau: float
    capacity: float
    duty: DutyPair
    cont_capacity: float
    cont_duty: DutyPair
    gap: float
    rel_gap: float
    report: SolveReport


def convergence_report(
    a1: float,
    a2: float,
    lambda0: float,
    taus: Sequence[float],
    *,
    grid_step: float = 1e-3,
    grid_refine: int = 3,
) -> tuple[ConvergenceRow, ...]:
    """Solve at each dead time and gap the capacity against the continuous reference."""
    cp = ContinuousParams(a1, a2, lambda0)
    ref_capacity, ref_duty = cont_capacity(cp, step=grid_step, refine_rounds=grid_refine)
    rows = []
    for tau in taus:
        report = solve(ChannelParams(a1, a2, lambda0, tau))
        gap = ref_capacity - report.capacity
        rows.append(
            ConvergenceRow(
                tau=tau,
                capacity=report.capacity,
                duty=report.optimum,
                cont_capacity=ref_capacity,
                cont_duty=ref_duty,
                gap=gap,
                rel_gap=gap / ref_capacity,
                report=report,
            )
        )
    return tuple(rows)
