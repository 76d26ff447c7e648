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
balanced pair always wins.

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
curve g: f is the diagonal to the bit, so it is solve's interior root.

Each function checks its rates, named a, lambda0 and tau, before it computes:
_channel checks (a, lambda0, tau) and builds the channel, whose hit levels
each caller takes, and _flip_of checks (lambda0, tau) and closes the flip
level over a.  solve_symmetric runs every core on one of each.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple

from .channel import (
    ChannelParams,
    DutyPair,
    HitProbs,
    _require_positive,
    binary_entropy,
    entropy_slope,
    hit_prob,
    hit_probs,
    _rate,
)
from .siso import _root, _search

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
# Largest |flip - target| / |target| at a threshold root: genuine roots keep ~1e-14; below tau ~ 1e-10
# the flip level's second differences cancel, and roots of that noise keep ~1e13.
THRESHOLD_RTOL = 1e-9
LINE_STEP = 1e-4  # line_constrained_max's grid step


class SchurRegion(Enum):
    """Majorization behaviour at one duty pair."""

    GLOBAL = "Global"
    CONCAVE_SIDE = "ConcaveSide"
    CONVEX_SIDE = "ConvexSide"


class SchurMode(Enum):
    """Overall shape of the instance: one Schur-concave region or a split."""

    GLOBALLY_SCHUR_CONCAVE = "GloballySchurConcave"
    SPLIT_REGIONS = "SplitRegions"


class ThresholdSearch(NamedTuple):
    """Outcome of the peak-threshold root search.

    value is +inf when no sign change occurs below the in-regime cap
    (found=False), which also covers the tau -> 0 behaviour where the
    threshold escapes to infinity.
    """

    value: float
    found: bool
    search_cap: float
    residual: float


class BoundaryHalfSums(NamedTuple):
    """Duty-sum endpoints (as half-sums) of the critical curve; axis <= diagonal."""

    axis: float
    diagonal: float


class SymmetricReport(NamedTuple):
    a: float
    lambda0: float
    tau: float
    flip_level: float
    threshold: ThresholdSearch
    boundary: BoundaryHalfSums | None
    fixed_point: float
    capacity: float
    schur_mode: SchurMode


def _channel(a: float, lambda0: float, tau: float) -> ChannelParams:
    """The equal-peak channel, once a, lambda0 and tau pass the check under their own names."""
    dark = "; for a dark-current-free study use lambda0 = 2e-9 * a"
    _require_positive(("a", "lambda0", "tau"), (a, lambda0, tau), lambda0_hint=dark)
    return ChannelParams(a, a, lambda0, tau)


def flip_log_odds(a: float, lambda0: float, tau: float) -> float:
    """Log-odds level at which the majorization direction flips (_flip_of)."""
    if not 0.0 <= a < math.inf:
        raise ValueError(f"a must be {'finite' if a == math.inf else 'nonnegative'}, got {a}")
    return _flip_of(lambda0, tau)(a)


def _flip_of(lambda0: float, tau: float) -> Callable[[float], float]:
    """a -> flip level for peaks a >= 0, lambda0 and tau checked: p4 and h(p4) once, then the
    operations of hit_prob and binary_entropy (h(0) = h(1) = 0) inline, in their order."""
    _require_positive(("lambda0", "tau"), (lambda0, tau))
    p4 = hit_prob(lambda0, tau)
    h4 = binary_entropy(p4)

    def flip(a: float) -> float:
        p1 = -math.expm1(-(2.0 * a + lambda0) * tau)
        p2 = -math.expm1(-(a + lambda0) * tau)
        h1 = 0.0 if p1 == 0.0 or p1 == 1.0 else -p1 * math.log(p1) - (1.0 - p1) * math.log1p(-p1)
        h2 = 0.0 if p2 == 0.0 or p2 == 1.0 else -p2 * math.log(p2) - (1.0 - p2) * math.log1p(-p2)
        try:
            return (2.0 * h2 - h1 - h4) / (2.0 * p2 - p1 - p4)
        except ZeroDivisionError:  # the second differences cancel at weak signals
            msg = f"the flip level's denominator 2 p2 - p1 - p4 rounds to 0 at a = {a:.6g}, "
            raise ArithmeticError(msg + f"lambda0 = {lambda0:.6g}, tau = {tau:.6g}") from None

    return flip


def peak_threshold(lambda0: float, tau: float) -> ThresholdSearch:
    """Peak rate at which the flip level meets the all-off log-odds.

    The bracket grows geometrically from a = lambda0 up to the in-regime cap
    a <= (ln2/tau - lambda0)/2, and siso._root finds the root in it from the
    values at both ends; if the flip level is still
    above the target at the cap, the threshold lies outside the searched
    regime and value is reported as +inf.  A dark slot whose hit
    probability underflows to 0 below a positive cap is an ArithmeticError,
    as are a flip level already below the target where the bracket starts
    and a root whose residual is above THRESHOLD_RTOL of the target.
    """
    return _threshold(_flip_of(lambda0, tau), lambda0, tau)


def _threshold(flip: Callable[[float], float], lambda0: float, tau: float) -> ThresholdSearch:
    # First the cap: p4 rounds to 1 only where lambda0 * tau > ln 2, at a cap <= 0.
    cap = (math.log(2.0) / tau - lambda0) / 2.0
    if cap <= 0.0:
        return ThresholdSearch(value=math.inf, found=False, search_cap=cap, residual=math.nan)
    p4 = hit_prob(lambda0, tau)
    if p4 == 0.0:
        raise ArithmeticError(f"the dark-slot hit probability underflows to 0 at lambda0 {lambda0}, tau {tau}")
    target = entropy_slope(p4)

    def delta(a: float) -> float:
        return flip(a) - target

    # The flip level lies ~1/p4 above the target at small a and falls as a
    # grows, so one already below it where the bracket starts is rounding noise.
    lo = min(lambda0, cap)
    if (d_lo := delta(lo)) < 0.0:
        msg = f"the flip level {flip(lo):.6g} at a = {lo:.6g} is already below the target {target:.6g}"
        raise ArithmeticError(msg + ": it is rounding noise")
    hi, d_hi = lo, d_lo
    while hi < cap:
        hi = min(hi * 2.0, cap)
        if (d_hi := delta(hi)) < 0.0:
            break
    if d_hi >= 0.0:
        return ThresholdSearch(value=math.inf, found=False, search_cap=cap, residual=math.nan)
    value = _root(delta, lo, hi, d_lo, d_hi)
    residual = abs(delta(value))
    if not residual <= THRESHOLD_RTOL * abs(target):
        msg = f"peak-threshold residual {residual:.3e} above {THRESHOLD_RTOL} of the target {target:.6g}"
        raise ArithmeticError(msg + ": the flip level is rounding noise")
    return ThresholdSearch(value=value, found=True, search_cap=cap, residual=residual)


def boundary_half_sums(
    a: float, lambda0: float, tau: float, threshold: ThresholdSearch
) -> BoundaryHalfSums | None:
    """Half-sum endpoints of the critical curve, or None below the threshold.

    axis is half the mu1-axis crossing of the curve; diagonal is the stable
    small root of the quadratic met on mu1 = mu2.  Both closed forms share the
    numerator level - p4, and diagonal >= axis always (the quadratic term is
    positive), so the one-user split is optimal for half-sums up to axis and
    the balanced pair from diagonal on.
    """
    hp = hit_probs(_channel(a, lambda0, tau))
    if a < threshold.value:
        return None
    return _half_sums(hp, flip_log_odds(a, lambda0, tau))


def _half_sums(hp: HitProbs, flip_level: float) -> BoundaryHalfSums:
    level = 1.0 / (1.0 + math.exp(flip_level))
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
    a: float, lambda0: float, tau: float, duty: DutyPair, threshold: ThresholdSearch
) -> SchurRegion:
    """Majorization behaviour at one duty pair of the symmetric instance."""
    hp = hit_probs(_channel(a, lambda0, tau))
    if a < threshold.value:
        return SchurRegion.GLOBAL
    w11 = duty.mu1 * duty.mu2
    w00 = (1.0 - duty.mu1) * (1.0 - duty.mu2)
    ph = w11 * hp.p1 + (duty.mu1 + duty.mu2 - 2.0 * w11) * hp.p2 + w00 * hp.p4
    level = 1.0 / (1.0 + math.exp(flip_log_odds(a, lambda0, tau)))
    return SchurRegion.CONCAVE_SIDE if ph >= level else SchurRegion.CONVEX_SIDE


def symmetric_fixed_point(a: float, lambda0: float, tau: float) -> float:
    """The unique mu in (0, 1) with mu = g(mu), the balanced optimum: solve's interior
    root, the first in-box point of siso._search at every tau, whose mu1 - mu2
    (mu - g(mu), as f is the diagonal) is within FIXED_POINT_TOL."""
    return _fixed_point(hit_probs(_channel(a, lambda0, tau)))


def _fixed_point(hp: HitProbs) -> float:
    points = _search(hp)[0]
    resid = points[0].mu1 - points[0].mu2 if points else math.nan
    if not abs(resid) <= FIXED_POINT_TOL:
        raise ArithmeticError(f"fixed-point residual {resid:.3e} above {FIXED_POINT_TOL}")
    return points[0].mu1


def line_constrained_max(a: float, lambda0: float, tau: float, half_sum: float) -> tuple[float, DutyPair]:
    """Grid maximum of the objective on the segment mu1 + mu2 = 2*half_sum.

    Verification utility for the split-region dichotomy; a plain grid with
    step LINE_STEP over the mu1 >= mu2 half of the segment.
    """
    hp = hit_probs(_channel(a, lambda0, tau))
    if not 0.0 <= half_sum <= 1.0:
        raise ValueError(f"half_sum must lie in [0, 1], got {half_sum}")
    p, h = hp, hp.entropies
    lo = max(half_sum, 2.0 * half_sum - 1.0)
    hi = min(1.0, 2.0 * half_sum)
    n = max(1, int(round((hi - lo) / LINE_STEP)))
    best_val, best_mu1 = -math.inf, lo
    for i in range(n + 1):
        mu1 = min(lo + i * (hi - lo) / n, hi)
        val = _rate(p, h, mu1, 2.0 * half_sum - mu1)
        if val > best_val:
            best_val, best_mu1 = val, mu1
    return best_val, DutyPair(best_mu1, 2.0 * half_sum - best_mu1)


def solve_symmetric(a: float, lambda0: float, tau: float) -> SymmetricReport:
    """Full symmetric-instance report: flip level, threshold, boundary, optimum.
    The inputs are checked first; then the cores run in the public helpers'
    order, so each valid input raises what they would."""
    hp = hit_probs(_channel(a, lambda0, tau))
    flip = _flip_of(lambda0, tau)
    threshold = _threshold(flip, lambda0, tau)
    below = a < threshold.value
    # flip(a) runs once, where the helpers first read it: before the half-sums, else after the fixed point.
    boundary = None if below else _half_sums(hp, flip_level := flip(a))
    mu = _fixed_point(hp)
    if below:
        flip_level = flip(a)
    if (rate := _rate(hp, hp.entropies, mu, mu)) < 0.0:
        raise ArithmeticError(f"the balanced rate {rate:.3g} is rounding noise below zero")
    mode = SchurMode.GLOBALLY_SCHUR_CONCAVE if below else SchurMode.SPLIT_REGIONS
    return SymmetricReport(a, lambda0, tau, flip_level, threshold, boundary, mu, rate / tau, mode)
