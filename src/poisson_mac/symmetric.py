"""
Equal-peak specialization: majorization structure and the unique optimum.

When both users share a peak rate a, the objective is symmetric in the duty
pair and its behaviour under majorization is governed by a single log-odds
level

    flip = (2 h(p2) - h(p1) - h(p4)) / (2 p2 - p1 - p4),

the ratio of second differences of binary entropy over the three hit levels
(both on / one on / both off).  Wherever the slot log-odds ln((1-p̂)/p̂)
exceeds this level the objective is Schur-convex (spreading duty to one user
helps); below it, Schur-concave (balancing helps).  Because the level falls
as a grows while the log-odds at the all-off corner is fixed, there is a peak
threshold below which the whole unit square is on the concave side and the
balanced pair always wins.  The search for it runs on one closure of the
level over a (_flip_of), which flip_log_odds calls once.

Above the threshold the critical set p̂ = 1/(1+e^flip) is a short curve near
the origin.  Writing lines of constant duty sum mu1 + mu2 = 2*s, the curve
spans sums between two closed-form endpoints:

* axis_half_sum   - half the sum where the curve meets the mu2 = 0 axis,
* diagonal_half_sum - the sum coordinate where it meets the diagonal,

with axis_half_sum <= diagonal_half_sum (the sum grows along the curve since
the implicit slope d mu1/d mu2 lies in [-1, 0)).  Lines below the axis value
sit wholly on the convex side, so their maximum is the one-user split
(2s, 0); lines above the diagonal value sit wholly on the concave side and
the balanced (s, s) wins; in the sliver between, both ends compete.

The balanced optimum itself is the unique fixed point mu = g(mu) of the
convex curve from the general solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .channel import (
    ChannelParams,
    DutyPair,
    binary_entropy,
    entropy_slope,
    hit_prob,
    hit_probs,
    _mutual_info,
)
from .siso import _bisect_root, _curves_of

__all__ = [
    "SchurRegion",
    "SchurMode",
    "ThresholdSearch",
    "BoundaryHalfSums",
    "SymmetricReport",
    "flip_log_odds",
    "peak_threshold",
    "boundary_half_sums",
    "schur_classify",
    "symmetric_fixed_point",
    "line_constrained_max",
    "solve_symmetric",
]

FIXED_POINT_TOL = 1e-12


class SchurRegion(Enum):
    """Majorization behaviour at one duty pair."""

    GLOBAL = "Global"
    CONCAVE_SIDE = "ConcaveSide"
    CONVEX_SIDE = "ConvexSide"


class SchurMode(Enum):
    """Overall shape of the instance: one Schur-concave region or a split."""

    GLOBALLY_SCHUR_CONCAVE = "GloballySchurConcave"
    SPLIT_REGIONS = "SplitRegions"


@dataclass(frozen=True)
class ThresholdSearch:
    """Outcome of the peak-threshold root search.

    value is +inf when no sign change occurs below the in-regime cap
    (found=False), which also covers the tau -> 0 behaviour where the
    threshold escapes to infinity.
    """

    value: float
    found: bool
    search_cap: float
    residual: float


@dataclass(frozen=True)
class BoundaryHalfSums:
    """Duty-sum endpoints (as half-sums) of the critical curve; axis <= diagonal."""

    axis: float
    diagonal: float


@dataclass(frozen=True)
class SymmetricReport:
    a: float
    lambda0: float
    tau: float
    flip_level: float
    threshold: ThresholdSearch
    boundary: BoundaryHalfSums | None
    fixed_point: float
    capacity: float
    schur_mode: SchurMode


def flip_log_odds(a: float, lambda0: float, tau: float) -> float:
    """Log-odds level at which the majorization direction flips (_flip_of)."""
    if not a >= 0.0:
        raise ValueError(f"a must be nonnegative, got {a}")
    return _flip_of(lambda0, tau)(a)


def _flip_of(lambda0: float, tau: float) -> Callable[[float], float]:
    """a -> flip level for peaks a >= 0: p4 and h(p4) once, then the operations
    of hit_prob and binary_entropy (h(0) = h(1) = 0) inline, in their order."""
    p4 = hit_prob(lambda0, tau)
    h4 = binary_entropy(p4)

    def flip(a: float) -> float:
        p1 = -math.expm1(-(2.0 * a + lambda0) * tau)
        p2 = -math.expm1(-(a + lambda0) * tau)
        h1 = 0.0 if p1 == 0.0 or p1 == 1.0 else -p1 * math.log(p1) - (1.0 - p1) * math.log1p(-p1)
        h2 = 0.0 if p2 == 0.0 or p2 == 1.0 else -p2 * math.log(p2) - (1.0 - p2) * math.log1p(-p2)
        return (2.0 * h2 - h1 - h4) / (2.0 * p2 - p1 - p4)

    return flip


def peak_threshold(
    lambda0: float, tau: float, search_cap: float | None = None
) -> ThresholdSearch:
    """Peak rate at which the flip level meets the all-off log-odds.

    The bracket grows geometrically from a = lambda0 and is capped at the
    in-regime bound a <= (ln2/tau - lambda0)/2, further limited by an
    explicit search_cap when one is given; if the flip level is still above
    the target at the cap, the threshold lies outside the searched regime
    and value is reported as +inf.  The threshold grows without bound as
    tau shrinks, so any fixed search_cap is eventually exceeded.
    """
    p4 = hit_prob(lambda0, tau)
    target = entropy_slope(p4)
    flip = _flip_of(lambda0, tau)
    cap = (math.log(2.0) / tau - lambda0) / 2.0
    if search_cap is not None:
        cap = min(cap, search_cap)
    if cap <= 0.0:
        return ThresholdSearch(value=math.inf, found=False, search_cap=cap, residual=math.nan)

    def delta(a: float) -> float:
        return flip(a) - target

    lo = min(lambda0, cap)
    while delta(lo) < 0.0 and lo > 1e-300:
        lo /= 2.0
    hi = lo
    while hi < cap:
        hi = min(hi * 2.0, cap)
        if delta(hi) < 0.0:
            break
    if delta(hi) >= 0.0:
        return ThresholdSearch(value=math.inf, found=False, search_cap=cap, residual=math.nan)
    value = _bisect_root(delta, lo, hi)
    return ThresholdSearch(
        value=value, found=True, search_cap=cap, residual=abs(delta(value))
    )


def boundary_half_sums(
    a: float,
    lambda0: float,
    tau: float,
    threshold: ThresholdSearch | None = None,
) -> BoundaryHalfSums | None:
    """Half-sum endpoints of the critical curve, or None below the threshold.

    axis is half the mu1-axis crossing of the curve; diagonal is the stable
    small root of the quadratic met on mu1 = mu2.  Both closed forms share the
    numerator level - p4, and diagonal >= axis always (the quadratic term is
    positive), so the one-user split is optimal for half-sums up to axis and
    the balanced pair from diagonal on.
    """
    if threshold is None:
        threshold = peak_threshold(lambda0, tau)
    if a < threshold.value:
        return None
    hp = hit_probs(ChannelParams(a, a, lambda0, tau))
    level = 1.0 / (1.0 + math.exp(flip_log_odds(a, lambda0, tau)))
    c = level - hp.p4
    b = hp.p2 - hp.p4
    q = 2.0 * hp.p2 - hp.p1 - hp.p4
    disc = b * b - q * c
    if disc < 0.0:
        raise ArithmeticError(
            f"level curve discriminant unexpectedly negative: {disc}"
        )
    return BoundaryHalfSums(axis=c / (2.0 * b), diagonal=c / (b + math.sqrt(disc)))


def schur_classify(
    a: float,
    lambda0: float,
    tau: float,
    duty: DutyPair,
    threshold: ThresholdSearch | None = None,
) -> SchurRegion:
    """Majorization behaviour at one duty pair of the symmetric instance."""
    if threshold is None:
        threshold = peak_threshold(lambda0, tau)
    if a < threshold.value:
        return SchurRegion.GLOBAL
    hp = hit_probs(ChannelParams(a, a, lambda0, tau))
    w11 = duty.mu1 * duty.mu2
    w00 = (1.0 - duty.mu1) * (1.0 - duty.mu2)
    ph = w11 * hp.p1 + (duty.mu1 + duty.mu2 - 2.0 * w11) * hp.p2 + w00 * hp.p4
    level = 1.0 / (1.0 + math.exp(flip_log_odds(a, lambda0, tau)))
    return SchurRegion.CONCAVE_SIDE if ph >= level else SchurRegion.CONVEX_SIDE


def symmetric_fixed_point(a: float, lambda0: float, tau: float) -> float:
    """The unique mu in (0, 1) with mu = g(mu); the balanced optimum coordinate.

    Existence and uniqueness follow from g(0) > 0, g(1) < 1 and convexity;
    solved by bisection to a residual below 1e-12.
    """
    params = ChannelParams(a, a, lambda0, tau)
    g = _curves_of(hit_probs(params))[0]

    def resid(mu: float) -> float:
        return mu - g(mu)

    mu = _bisect_root(resid, 0.0, 1.0)
    if abs(resid(mu)) > FIXED_POINT_TOL:
        raise ArithmeticError(
            f"fixed-point residual {resid(mu):.3e} above {FIXED_POINT_TOL}"
        )
    return mu


def line_constrained_max(
    a: float,
    lambda0: float,
    tau: float,
    half_sum: float,
    step: float = 1e-4,
) -> tuple[float, DutyPair]:
    """Grid maximum of the objective on the segment mu1 + mu2 = 2*half_sum.

    Verification utility for the split-region dichotomy; a plain grid with
    the given step over the mu1 >= mu2 half of the segment.
    """
    hp = hit_probs(ChannelParams(a, a, lambda0, tau))
    lo = max(half_sum, 2.0 * half_sum - 1.0)
    hi = min(1.0, 2.0 * half_sum)
    n = max(1, int(round((hi - lo) / step)))
    best_val, best_mu1 = -math.inf, lo
    for i in range(n + 1):
        mu1 = min(lo + i * (hi - lo) / n, hi)
        val = _mutual_info(hp, mu1, 2.0 * half_sum - mu1)
        if val > best_val:
            best_val, best_mu1 = val, mu1
    return best_val, DutyPair(best_mu1, 2.0 * half_sum - best_mu1)


def solve_symmetric(a: float, lambda0: float, tau: float) -> SymmetricReport:
    """Full symmetric-instance report: flip level, threshold, boundary, optimum."""
    threshold = peak_threshold(lambda0, tau)
    boundary = boundary_half_sums(a, lambda0, tau, threshold)
    mu = symmetric_fixed_point(a, lambda0, tau)
    capacity = _mutual_info(hit_probs(ChannelParams(a, a, lambda0, tau)), mu, mu) / tau
    mode = (
        SchurMode.GLOBALLY_SCHUR_CONCAVE
        if a < threshold.value
        else SchurMode.SPLIT_REGIONS
    )
    return SymmetricReport(
        a=a,
        lambda0=lambda0,
        tau=tau,
        flip_level=flip_log_odds(a, lambda0, tau),
        threshold=threshold,
        boundary=boundary,
        fixed_point=mu,
        capacity=capacity,
        schur_mode=mode,
    )
