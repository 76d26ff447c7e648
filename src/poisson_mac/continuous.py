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
and the convex curve to an exponential form.  R is concave in mu2 (affine
terms minus phi of an affine mean), with that convex curve as its maximiser,
so the continuous optimum is the maximum of a profile over mu1, found by
siso._profile_max as in solve's out-of-regime check.  It is the reference
against which finite-tau capacities are gapped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, DutyPair, _require_finite, phi
from .siso import SolveReport, _profile_max, solve

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
    return float(_rate_grid(cp, duty.mu1, duty.mu2))


def cont_f(cp: ContinuousParams, mu1: float) -> float:
    """Zero-dead-time limit of the affine stationarity curve."""
    a1, a2, l0 = cp.a1, cp.a2, cp.lambda0
    slope = a1 / a2
    den = phi(l0) - phi(a2 + l0) - phi(a1 + l0) + phi(a1 + a2 + l0)
    num = phi(l0) - phi(a1 + l0) - slope * (phi(l0) - phi(a2 + l0))
    return slope * mu1 + num / den


def cont_g(cp: ContinuousParams, mu1: float | np.ndarray) -> float | np.ndarray:
    """Zero-dead-time limit of the convex stationarity curve, elementwise."""
    a1, a2, l0 = cp.a1, cp.a2, cp.lambda0
    mix = mu1 * (phi(a1 + l0) - phi(a1 + a2 + l0)) + (1.0 - mu1) * (phi(l0) - phi(a2 + l0))
    return np.exp(-1.0 - mix / a2) / a2 - (mu1 * a1 + l0) / a2


def _rate_grid(cp: ContinuousParams, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """cont_mutual_info_rate over broadcastable duty arrays."""
    mean = m1 * cp.a1 + m2 * cp.a2 + cp.lambda0  # at least lambda0 > 0
    return (
        m1 * m2 * phi(cp.a1 + cp.a2 + cp.lambda0)
        + (1.0 - m1) * m2 * phi(cp.a2 + cp.lambda0)
        + m1 * (1.0 - m2) * phi(cp.a1 + cp.lambda0)
        + (1.0 - m1) * (1.0 - m2) * phi(cp.lambda0)
        - mean * np.log(mean)
    )


def cont_capacity(cp: ContinuousParams) -> tuple[float, DutyPair]:
    """Continuous optimum: the largest rate over mu1 of the profile that sets
    mu2 = clip(cont_g(mu1), 0, 1), by siso._profile_max (mu1 resolution 1e-9)."""

    def profile(mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu2 = np.clip(cont_g(cp, mu1), 0.0, 1.0)
        return _rate_grid(cp, mu1, mu2), mu2

    return _profile_max(profile)


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
) -> tuple[ConvergenceRow, ...]:
    """Solve at each dead time and gap the capacity against the continuous reference."""
    ref_capacity, ref_duty = cont_capacity(ContinuousParams(a1, a2, lambda0))
    rows = []
    for tau in taus:
        report = solve(ChannelParams(a1, a2, lambda0, tau))
        gap = ref_capacity - report.capacity
        row = (tau, report.capacity, report.optimum, ref_capacity, ref_duty, gap, gap / ref_capacity, report)
        rows.append(ConvergenceRow(*row))
    return tuple(rows)
