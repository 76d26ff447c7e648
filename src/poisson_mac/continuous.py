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
so the continuous optimum is the maximum of a profile over mu1, found for
many a2 at once (cont_capacity_many) by siso._profile_max_many, as in
solve's out-of-regime check.  It is the reference against which finite-tau
capacities are gapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Sequence

from ._numpy import np
from .channel import ChannelParams, DutyPair, _require_finite, phi
from .siso import SolveReport, _profile_max_many, solve

__all__ = [
    "ContinuousParams",
    "ConvergenceRow",
    "cont_mutual_info_rate",
    "cont_f",
    "cont_g",
    "cont_capacity",
    "cont_capacity_many",
    "convergence_report",
]

LANE_BLOCK = 64  # lanes per profile pass, ~64k samples: the fastest of 8 to 512


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
    a1, a2, _, p12, p2, p1, p0, _, _ = _levels(cp.a1, cp.a2, cp.lambda0)
    slope = a1 / a2
    return slope * mu1 + (p0 - p1 - slope * (p0 - p2)) / (p0 - p2 - p1 + p12)


def _levels(a1: float, a2: float, l0: float) -> tuple[float, ...]:
    """The rates and phi terms of cont_f, cont_g and _rate_grid, by the scalar phi."""
    p12, p2, p1, p0 = phi(a1 + a2 + l0), phi(a2 + l0), phi(a1 + l0), phi(l0)
    return a1, a2, l0, p12, p2, p1, p0, p1 - p12, p0 - p2


def cont_g(cp: ContinuousParams, mu1: float | np.ndarray) -> float | np.ndarray:
    """Zero-dead-time limit of the convex stationarity curve, elementwise."""
    return _g(_levels(cp.a1, cp.a2, cp.lambda0), mu1)


def _g(levels: Sequence, mu1: np.ndarray) -> np.ndarray:
    a1, a2, l0, _, _, _, _, d1, d0 = levels
    mix = mu1 * d1 + (1.0 - mu1) * d0
    return np.exp(-1.0 - mix / a2) / a2 - (mu1 * a1 + l0) / a2


def _rate_grid(cp: ContinuousParams, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """cont_mutual_info_rate over broadcastable duty arrays."""
    return _rate(_levels(cp.a1, cp.a2, cp.lambda0), m1, m2)


def _rate(levels: Sequence, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    a1, a2, l0, p12, p2, p1, p0, _, _ = levels
    n1, n2 = 1.0 - m1, 1.0 - m2
    mean = m1 * a1 + m2 * a2 + l0  # at least lambda0 > 0
    return m1 * m2 * p12 + n1 * m2 * p2 + m1 * n2 * p1 + n1 * n2 * p0 - mean * np.log(mean)


def _rounding_floor(a1: float, a2: float, l0: float, m1: float, m2: float) -> float:
    """Bound on the rounding error of _rate_grid at duty (m1, m2).  Its phi
    terms cancel to the rate, and each is off by a few ulps of w (|phi(x)| +
    x), x ln x rounded and x itself rounded; the floor is 16 ulps of their sum."""
    terms = ((m1 * m2, a1 + a2 + l0), ((1.0 - m1) * m2, a2 + l0), (m1 * (1.0 - m2), a1 + l0))
    terms += (((1.0 - m1) * (1.0 - m2), l0), (1.0, m1 * a1 + m2 * a2 + l0))
    return 16.0 * math.ulp(1.0) * sum(w * (abs(phi(x)) + x) for w, x in terms)


def _profile(levels: Sequence, mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rate, mu2) with mu2 = clip(cont_g(mu1), 0, 1), on one row of mu1 per lane of levels."""
    mu2 = np.clip(_g(levels, mu1), 0.0, 1.0)
    return _rate(levels, mu1, mu2), mu2


def cont_capacity(cp: ContinuousParams) -> tuple[float, DutyPair]:
    """Continuous optimum, one row of cont_capacity_many: the largest rate
    over mu1 (resolution 1e-9) of the profile with mu2 = clip(cont_g(mu1), 0,
    1).  ArithmeticError if that rate is not above the rounding floor of its
    terms: for peaks far below the background it is cancellation noise."""
    (rate,), (mu1,), (mu2,) = cont_capacity_many(cp.a1, [cp.a2], cp.lambda0)
    return rate, DutyPair(mu1, mu2)


def cont_capacity_many(a1: float, a2_values: Sequence[float], lambda0: float) -> tuple[list[float], ...]:
    """cont_capacity of (a1, a2, lambda0) for each a2, as lists of the rate,
    mu1 and mu2, bit for bit, solved as lanes LANE_BLOCK at a time.  Raises
    the first failing row's error, as row by row: a row's ValueError (of
    ContinuousParams) comes after the ArithmeticErrors of earlier rows."""
    valid = 0.0 < a1 < math.inf and 0.0 < lambda0 < math.inf  # as ContinuousParams checks
    n = next((i for i, a2 in enumerate(a2_values) if not (valid and 0.0 < a2 < math.inf)), len(a2_values))
    out: tuple[list[float], ...] = ([], [], [])
    for lo in range(0, n, LANE_BLOCK):
        a2s = a2_values[lo : min(lo + LANE_BLOCK, n)]
        levels = [_levels(a1, a2, lambda0) for a2 in a2s]
        # One lane keeps floats, which numpy broadcasts faster than (1, 1) columns.
        levels = levels[0] if len(a2s) == 1 else np.array(levels).T[:, :, None]
        with np.errstate(all="ignore"):  # as in solve: a lane's overflow shows as no finite rate
            finite, *block = (v.tolist() for v in _profile_max_many(partial(_profile, levels), len(a2s)))
        for a2, has_rate, rate, mu1, mu2 in zip(a2s, finite, *block):
            if not has_rate:
                raise ArithmeticError("the profile has no finite rate")
            if not rate > (floor := _rounding_floor(a1, a2, lambda0, mu1, mu2)):
                message = f"the continuous rate {rate:.3g} is not above its rounding floor {floor:.3g}"
                raise ArithmeticError(message)
        for v, b in zip(out, block):
            v += b
    if n < len(a2_values):
        ContinuousParams(a1, a2_values[n], lambda0)  # raises
    return out


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
