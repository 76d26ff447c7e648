"""
Continuous-time reference channel and dead-time convergence studies.

As the dead time shrinks, the per-slot information rate I/tau of the
photon-counting receiver converges pointwise to the continuous-time Poisson
expression built from phi(x) = x ln x:

    R(mu1, mu2) = mu1 mu2 phi(a1+a2+l0) + (1-mu1) mu2 phi(a2+l0)
                + mu1 (1-mu2) phi(a1+l0) + (1-mu1)(1-mu2) phi(l0)
                - phi(mu1 a1 + mu2 a2 + l0),

and the stationarity curves of the finite-tau solver converge to closed
forms: the affine curve to a line of slope a1/a2 (cont_f), and the convex
curve to cont_g, the exponential of an affine function of mu1 minus an
affine one, at which R, concave in mu2, peaks.  So cont_g - cont_f is
strictly convex at every a1, a2 and lambda0, not only in a regime, and
siso._intersections finds its at most two roots: the interior stationary
pairs.  With each user's closed-form solo duty, cont_g at 0 (user 2) and its
label swap (user 1), clipped to [0, 1] with the other user silent, they are
the at-most-four candidates, and the best of them is the continuous optimum
(cont_capacity).  It is the reference against which finite-tau capacities
are gapped.
"""

from __future__ import annotations

import math
from types import ModuleType
from typing import NamedTuple, Sequence

from ._numpy import np
from .channel import ChannelParams, DutyPair, _require_duty, _require_positive, phi
from .siso import SolveReport, _intersections, solve

__all__ = [
    "ContinuousParams",
    "ConvergenceRow",
    "cont_mutual_info_rate",
    "cont_f",
    "cont_g",
    "cont_capacity",
    "convergence_report",
]


class _ContinuousFields(NamedTuple):
    a1: float
    a2: float
    lambda0: float


class ContinuousParams(_ContinuousFields):
    """Peak and background rates of the zero-dead-time reference channel."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, a1: float, a2: float, lambda0: float) -> ContinuousParams:
        _require_positive(("a1", "a2", "lambda0"), (a1, a2, lambda0))
        return tuple.__new__(cls, (a1, a2, lambda0))


def cont_mutual_info_rate(cp: ContinuousParams, duty: DutyPair) -> float:
    """Continuous-channel information rate in nats per unit time."""
    return _rate(_levels(cp.a1, cp.a2, cp.lambda0), duty.mu1, duty.mu2)


def cont_f(cp: ContinuousParams, mu1: float) -> float:
    """Zero-dead-time limit of the affine stationarity curve."""
    _require_duty("mu1", mu1)
    slope, intercept = _line(_levels(cp.a1, cp.a2, cp.lambda0))
    return slope * mu1 + intercept


def _levels(a1: float, a2: float, l0: float) -> tuple[float, ...]:
    """The rates and phi terms of _line, _g and _rate, by the scalar phi."""
    p12, p2, p1, p0 = phi(a1 + a2 + l0), phi(a2 + l0), phi(a1 + l0), phi(l0)
    return a1, a2, l0, p12, p2, p1, p0, p1 - p12, p0 - p2


def _line(levels: Sequence[float]) -> tuple[float, float]:
    """Slope and intercept of cont_f; the intercept is NaN where its divisor
    rounds to 0, as for peaks far below the background."""
    a1, a2, _, p12, p2, p1, p0, _, _ = levels
    slope, den = a1 / a2, p0 - p2 - p1 + p12
    return slope, (p0 - p1 - slope * (p0 - p2)) / den if den else math.nan


def cont_g(cp: ContinuousParams, mu1: float | np.ndarray) -> float | np.ndarray:
    """Zero-dead-time limit of the convex stationarity curve, elementwise."""
    for mu in np.ravel(mu1).tolist():  # every duty, the first outside [0, 1] named
        _require_duty("mu1", mu)
    return _g(_levels(cp.a1, cp.a2, cp.lambda0), mu1, np)


def _g(levels: Sequence, mu1, xp: ModuleType = math):
    """cont_g on xp's exp: math for one float, numpy for arrays."""
    a1, a2, l0, _, _, _, _, d1, d0 = levels
    mix = mu1 * d1 + (1.0 - mu1) * d0
    return xp.exp(-1.0 - mix / a2) / a2 - (mu1 * a1 + l0) / a2


def _rate(levels: Sequence, m1, m2, xp: ModuleType = math):
    """R at (m1, m2) on xp's log: math for floats, numpy for arrays."""
    a1, a2, l0, p12, p2, p1, p0, _, _ = levels
    n1, n2 = 1.0 - m1, 1.0 - m2
    mean = m1 * a1 + m2 * a2 + l0  # at least lambda0 > 0
    return m1 * m2 * p12 + n1 * m2 * p2 + m1 * n2 * p1 + n1 * n2 * p0 - mean * xp.log(mean)


def _rounding_floor(a1: float, a2: float, l0: float, m1: float, m2: float) -> float:
    """Bound on the rounding error of _rate at duty (m1, m2).  Its phi terms
    cancel to the rate, and each is off by a few ulps of w (|phi(x)| + x),
    x ln x rounded and x itself rounded; the floor is 16 ulps of their sum."""
    terms = ((m1 * m2, a1 + a2 + l0), ((1.0 - m1) * m2, a2 + l0), (m1 * (1.0 - m2), a1 + l0))
    terms += (((1.0 - m1) * (1.0 - m2), l0), (1.0, m1 * a1 + m2 * a2 + l0))
    return 16.0 * math.ulp(1.0) * sum(w * (abs(phi(x)) + x) for w, x in terms)


def cont_capacity(cp: ContinuousParams) -> tuple[float, DutyPair]:
    """Continuous optimum: the best of the interior stationary pairs and the
    two solo duties (see the module docstring); of equal rates the first in
    that order wins.  ArithmeticError if no candidate rate is finite, or if
    the best is not above the rounding floor of its terms: for peaks far
    below the background it is cancellation noise."""
    a1, a2, l0 = cp.a1, cp.a2, cp.lambda0
    levels = _levels(a1, a2, l0)
    slope, intercept = _line(levels)
    duties: list[tuple[float, float]] = []
    try:
        if math.isfinite(slope) and math.isfinite(intercept):  # else no line, so no interior pair
            points, _ = _intersections(lambda x: _g(levels, x), lambda x: _g(levels, x) - (slope * x + intercept))
            duties += [(pt.mu1, pt.mu2) for pt in points]
        # cont_g at 0 is user 2's solo duty in closed form; with the labels swapped, user 1's.
        solo2, solo1 = _g(levels, 0.0), _g(_levels(a2, a1, l0), 0.0)
    except OverflowError as exc:  # the exponent is ~ln of a rate: only rounding noise passes exp's range
        raise ArithmeticError("the exponent of cont_g overflows: its phi terms are rounding noise") from exc
    duties += [(0.0, min(max(solo2, 0.0), 1.0)), (min(max(solo1, 0.0), 1.0), 0.0)]
    finite = [(r, m1, m2) for m1, m2 in duties if math.isfinite(r := _rate(levels, m1, m2))]
    if not finite:
        raise ArithmeticError("the continuous reference has no finite rate")
    rate, mu1, mu2 = max(finite, key=lambda c: c[0])  # the first of equal rates
    if not rate > (floor := _rounding_floor(a1, a2, l0, mu1, mu2)):
        raise ArithmeticError(f"the continuous rate {rate:.3g} is not above its rounding floor {floor:.3g}")
    return rate, DutyPair(mu1, mu2)


class ConvergenceRow(NamedTuple):
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
