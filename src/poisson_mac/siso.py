"""
Exact sum-rate solver for the two-user single-antenna channel.

The per-slot objective I(mu1, mu2) is smooth but not concave, so the optimum
is found by enumerating the stationary candidates of the box-constrained
problem:

* interior stationary points have both partials zero.  Eliminating the common
  log-odds factor between the two partial-derivative equations leaves an
  affine relation mu1*u - mu2*v + w = 0 (curve ``f``); the second partial
  alone solves to a closed form mu2 = g(mu1) that is strictly convex whenever
  tau <= ln2/(a1+a2+lambda0).  An affine curve meets a strictly convex one at
  most twice, so any point where g - f <= 0 lies between the two meetings: a
  golden-section pass towards the minimum of g - f ends at its first such
  sample, and one bracketed root search (_root: regula falsi with the
  Anderson-Bjorck weight and a bisection safeguard) on each side finds every
  interior candidate, both on one closure d (_curves_of), g - f to the last
  bit in one Python call a step.
* the two edge candidates put one user at its closed-form solo duty cycle and
  silence the other.

In tie order (interior points, user 2 alone, user 1 alone), the first candidate
rated >= 0 and within TIE_TOL of the best is the capacity; if every rate is
below zero (rounding noise), solve raises ArithmeticError.  Out of the stated
regime the convexity guarantee lapses and g - f may have more roots, so it is
scanned at SCAN_POINTS equispaced points, one root search per sign change, and
the report is flagged.  The enumeration still holds there: at every tau the
hit probability and the entropy mixture are affine in each duty, so I(mu1, .)
and I(., mu2) are each concave, and the maximum over the box is an interior
root of g - f or the best point of one of its four edges, each a one-user
problem with a closed-form duty.  Two edges are the solo candidates; on the
other two one user is always on, and its light is noise independent of the
other's input (a slot is a hit when any photon arrives), so by data
processing neither is above its solo edge.  solve keeps a coarse grid
witness.  The continuous reference (continuous.cont_capacity) runs the
in-regime search: its g - f is convex at every parameter, so _intersections
enumerates its candidates.

solve builds a channel's set-up once for private cores; find_intersections,
single_user_duty and the equal-peak fixed point call the same cores (the curve
search is _search).  The strategy screens are sufficiency_tests' alone: they
settle the strategy without the solve.

solve_many runs the same enumeration over arrays of channels at once, with
results identical to solve lane by lane, because its in-regime lanes call the
math module lane by lane for every exp and log.  The sweeps pass it their cells
as arrays, and their --strict runs its one lane check, _checked_lanes.
"""

from __future__ import annotations

import math
from enum import Enum
from types import ModuleType
from typing import Any, Callable, NamedTuple, Sequence

from ._numpy import np
from .channel import (
    ChannelParams,
    DutyPair,
    HitProbs,
    binary_entropy,
    hit_prob,
    hit_probs,
    _grad,
    _rate,
    _require_duty,
    _require_positive,
)

__all__ = [
    "Strategy",
    "LineCoefficients",
    "Candidate",
    "SufficiencyRecord",
    "IntersectionSearch",
    "SolveReport",
    "SolveBatch",
    "uvw",
    "f_mac",
    "g_mac",
    "find_intersections",
    "single_user_duty",
    "sufficiency_tests",
    "solve",
    "solve_many",
    "sweep_strategy_region",
]

TIE_TOL = 1e-12
SCAN_POINTS = 33  # equispaced samples of g - f on [0, 1] out of regime
EXP_CAP = 700.0  # caps every exponent of g and the solo duty: saturated hit levels can pass exp's range
BOX_SLACK = 1e-12  # a root's mu2 this far outside [0, 1] still counts as in the box


class Strategy(Enum):
    """Which users transmit at the optimum."""

    ONLY_USER1 = "OnlyUser1"
    ONLY_USER2 = "OnlyUser2"
    BOTH_ACTIVE = "BothActive"


# Deterministic tie-break: prefer both-active, then user 2, then user 1.  A
# strategy's rank is also its code in SolveBatch.
_BY_RANK = (Strategy.BOTH_ACTIVE, Strategy.ONLY_USER2, Strategy.ONLY_USER1)


class LineCoefficients(NamedTuple):
    """Coefficients of the affine stationarity locus mu1*u - mu2*v + w = 0.

    Signs follow the chord-difference forms, which make u and v positive for
    every channel and give w the sign of a2 - a1.
    """

    u: float
    v: float
    w: float


class Candidate(NamedTuple):
    """One evaluated optimum candidate; solve lists them in tie order."""

    duty: DutyPair
    strategy: Strategy
    rate: float


class SufficiencyRecord(NamedTuple):
    """Outcomes of the cheap strategy screens.

    single_user_sufficient: g stays below f across [0, 1], so no interior
        stationary point exists and a single user is optimal.
    adding_user2_helps: the objective increases in mu2 at the solo-user-1
        optimum, so silencing user 2 is not optimal.
    adding_user1_helps: symmetric screen at the solo-user-2 optimum.
    """

    single_user_sufficient: bool
    adding_user2_helps: bool
    adding_user1_helps: bool


class IntersectionSearch(NamedTuple):
    """Roots of g - f on [0, 1].  points carry the in-box stationary pairs;
    rejected carries roots whose mu2 coordinate left the unit interval.
    reliable is False out of regime, where g may fail to be convex."""

    points: tuple[DutyPair, ...]
    rejected: tuple[DutyPair, ...]
    reliable: bool


class SolveReport(NamedTuple):
    capacity: float
    optimum: DutyPair
    strategy: Strategy
    candidates: tuple[Candidate, ...]
    near_ties: tuple[Candidate, ...]
    regime_ok: bool
    # The curve intersections behind the interior candidates; empty for
    # saturated out-of-regime channels, where the curve algebra is undefined.
    search: IntersectionSearch
    grid_checked: bool = False


class SolveBatch(NamedTuple):
    """Per-channel results of solve_many, as parallel arrays.  code holds the
    strategy's tie-break rank; strategies() maps it back."""

    capacity: np.ndarray
    mu1: np.ndarray
    mu2: np.ndarray
    code: np.ndarray
    regime_ok: np.ndarray

    def strategies(self) -> list[Strategy]:
        return [_BY_RANK[c] for c in self.code.tolist()]


def uvw(params: ChannelParams) -> LineCoefficients:
    """Line coefficients of the both-active stationarity locus."""
    hp = hit_probs(params)
    return LineCoefficients(*_line(hp, hp.entropies))


def _line(p: tuple, h: tuple) -> tuple:
    """u, v, w from the four hit probabilities and their entropies, as
    floats or as arrays of channels."""
    p1, p2, p3, p4 = p
    h1, h2, h3, h4 = h
    return (
        (p1 - p2) * (h3 - h4) - (p3 - p4) * (h1 - h2),
        (p1 - p3) * (h2 - h4) - (p2 - p4) * (h1 - h3),
        (p2 - p4) * (h3 - h4) - (p3 - p4) * (h2 - h4),
    )


def f_mac(params: ChannelParams, mu1: float) -> float:
    """mu2 on the affine stationarity line at the given mu1."""
    _require_duty("mu1", mu1)
    hp = hit_probs(params)
    u, v, w = _line(hp, hp.entropies)
    return _named_zero_division(hp, lambda: (u / v) * mu1 + w / v)


def g_mac(params: ChannelParams, mu1: float) -> float:
    """mu2 solving d I/d mu2 = 0 at the given mu1; strictly convex in regime."""
    _require_duty("mu1", mu1)
    hp = hit_probs(params)
    return _named_zero_division(hp, lambda: _curves_of(hp)[0](mu1))


def _curves_of(hp: HitProbs) -> tuple[Callable[[float], float], Callable[[], Callable[[float], float]]]:
    """g, and a maker of d = g - f, on one set-up of both curves' coefficients.
    d repeats g's operations inline, so d(x) is g(x) - f(x) to the last bit,
    NaN too (cap if cap < e else e is min(e, cap)).  It is made on
    demand: f divides by the line's v, which is 0 where g is still defined."""
    (h1, h2, h3, h4), p1, p2, p3, p4 = hp.entropies, hp.p1, hp.p2, hp.p3, hp.p4
    dp_13, dp_24, dh_13, dh_24 = p1 - p3, p2 - p4, h1 - h3, h2 - h4

    def g(mu1: float) -> float:
        den = mu1 * dp_13 + (1.0 - mu1) * dp_24
        a_m = math.exp(min((mu1 * dh_13 + (1.0 - mu1) * dh_24) / den, EXP_CAP))
        return (1.0 / (a_m + 1.0) - (mu1 * p3 + (1.0 - mu1) * p4)) / den

    def make_d() -> Callable[[float], float]:
        u, v, w = _line((p1, p2, p3, p4), (h1, h2, h3, h4))
        slope, intercept, cap = u / v, w / v, EXP_CAP

        def d(mu1: float) -> float:
            nu1 = 1.0 - mu1
            den = mu1 * dp_13 + nu1 * dp_24
            e = (mu1 * dh_13 + nu1 * dh_24) / den
            mu2 = (1.0 / (math.exp(cap if cap < e else e) + 1.0) - (mu1 * p3 + nu1 * p4)) / den
            return mu2 - (slope * mu1 + intercept)

        return d

    return g, make_d


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn: Callable, lo: float, hi: float, tol: float) -> tuple[float, float | None]:
    """The first sample of a golden-section pass towards the minimum of a
    strictly unimodal fn on [lo, hi] with fn <= 0, and its value, else the
    midpoint of the final bracket and None.  Past the first, a sample counts
    only if the width test after it passes, as in _golden_min_many."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc = fn(c)
    if fc <= 0.0:
        return c, fc
    x, fx = d, fn(d)  # the newest sample
    fd = fx
    while b - a > tol:
        if fx <= 0.0:
            return x, fx
        if fc < fd:
            b, d, fd = d, c, fc
            x = c = b - _INV_GOLDEN * (b - a)
            fx = fc = fn(c)
        else:
            a, c, fc = c, d, fd
            x = d = a + _INV_GOLDEN * (b - a)
            fx = fd = fn(d)
    return 0.5 * (a + b), None


_REL_WIDTH = 4.5e-16  # a bracket this narrow, relative to its upper end, is ~2 ulps wide


def _root(fn: Callable[[float], float], lo: float, hi: float, flo: float, fhi: float) -> float:
    """Root of a continuous function on [lo, hi], 0 <= lo < hi, with flo = fn(lo) and fhi =
    fn(hi) finite (a NaN bracket never ends) and of opposite signs: regula falsi with the
    Anderson-Bjorck weight, the midpoint when the secant point is off the
    bracket or three steps have not halved it, and a step of at least ~1 ulp
    from each end, without which a secant point beside a root one ulp from an
    end rounds onto that end.  Ends at an exact zero, or at the midpoint of a
    bracket ~2 ulps wide or whose midpoint rounds onto an end."""
    if flo == 0.0 or fhi == 0.0:
        return lo if flo == 0.0 else hi
    x0, f0, x1, f1, width, stale = lo, flo, hi, fhi, hi - lo, 0  # x1 is the newest point
    while True:
        a, b = min(x0, x1), max(x0, x1)
        mid = 0.5 * (a + b)
        if b - a <= _REL_WIDTH * b or mid == a or mid == b:
            return mid
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        tiny = 0.5 * _REL_WIDTH * b
        x = min(max(x, a + tiny), b - tiny) if stale < 3 and a <= x <= b else mid
        if (fx := fn(x)) == 0.0:
            return x
        if (fx < 0.0) == (f1 < 0.0):
            m = 1.0 - fx / f1
            f0 *= m if m > 0.0 else 0.5
        else:
            x0, f0 = x1, f1
        x1, f1 = x, fx
        halved = abs(x1 - x0) <= 0.5 * width
        width, stale = (abs(x1 - x0), 0) if halved else (width, stale + 1)


def find_intersections(params: ChannelParams) -> IntersectionSearch:
    """All stationary pairs where the affine and convex curves meet on [0, 1].

    Exploits strict convexity of g - f: golden-section samples towards its
    minimum until one sample is <= 0, then one _root search per side.  Out of
    regime g - f is scanned at SCAN_POINTS points instead, one _root search
    per sign change, and the result is flagged unreliable.
    """
    return _search(hit_probs(params), params.in_regime)


def _search(hp: HitProbs, reliable: bool) -> IntersectionSearch:
    """_intersections on one set-up of the curves: the search of solve,
    find_intersections and the equal-peak fixed point."""
    g, make_d = _curves_of(hp)
    return _named_zero_division(hp, lambda: _intersections(g, make_d(), reliable))


def _named_zero_division(hp: HitProbs, compute: Callable[[], Any]) -> Any:
    """compute(), with a division by a hit-level difference that rounds to 0 named."""
    try:
        return compute()
    except ZeroDivisionError:
        levels = ", ".join(f"{x:.6g}" for x in hp)
        msg = "g - f divides by a hit-level difference that rounds to 0"
        raise ArithmeticError(f"{msg} at the hit levels {levels}") from None


def _intersections(g: Callable, d: Callable, reliable: bool) -> IntersectionSearch:
    roots: list[float] = []
    if reliable:  # d is convex
        m_star, d_m = _golden_min(d, 0.0, 1.0, 1e-14)
        d_m = d(m_star) if d_m is None else d_m
        if d_m <= 0.0:
            if (d_0 := d(0.0)) >= 0.0:
                roots.append(_root(d, 0.0, m_star, d_0, d_m))
            if (d_1 := d(1.0)) >= 0.0:
                roots.append(_root(d, m_star, 1.0, d_m, d_1))
        if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-9:
            roots = roots[:1]
    else:
        xs = [i / (SCAN_POINTS - 1) for i in range(SCAN_POINTS)]
        ds = [d(x) for x in xs]
        if any(v != v for v in ds):
            raise ArithmeticError("g - f is NaN at a scan point")
        for i, (x, v) in enumerate(zip(xs, ds)):
            if v == 0.0:
                roots.append(x)
            elif i + 1 < SCAN_POINTS and (v < 0.0) != (ds[i + 1] < 0.0) and ds[i + 1] != 0.0:
                roots.append(_root(d, x, xs[i + 1], v, ds[i + 1]))

    points: list[DutyPair] = []
    rejected: list[DutyPair] = []
    for r in roots:
        mu2 = g(r)
        kept = points if -BOX_SLACK <= mu2 <= 1.0 + BOX_SLACK else rejected
        kept.append(DutyPair(min(max(r, 0.0), 1.0), min(max(mu2, 0.0), 1.0)))
    return IntersectionSearch(points=tuple(points), rejected=tuple(rejected), reliable=reliable)


def single_user_duty(a: float, lambda0: float, tau: float) -> float:
    """Closed-form optimal duty cycle when one user at peak rate a transmits alone.
    ArithmeticError if rounding puts it outside [0, 1]."""
    _require_positive(("a", "lambda0", "tau"), (a, lambda0, tau))
    p_on, p_off = hit_prob(a + lambda0, tau), hit_prob(lambda0, tau)
    return _solo_duty(p_on, p_off, binary_entropy(p_on), binary_entropy(p_off))


def _solo_duty(p_on: float, p_off: float, h_on: float, h_off: float) -> float:
    if p_on == p_off:
        return 0.0  # the hit levels saturate alike: every duty has rate 0
    chord = (h_on - h_off) / (p_on - p_off)
    duty = (1.0 / (1.0 + math.exp(min(chord, EXP_CAP))) - p_off) / (p_on - p_off)
    if not 0.0 <= duty <= 1.0:  # peaks far below the background: both differences cancel
        raise ArithmeticError(f"the single-user duty {duty:.3g} is outside [0, 1]: its entropy chord cancelled")
    return duty


def sufficiency_tests(params: ChannelParams) -> SufficiencyRecord:
    """Screens that settle the transmission strategy without the full solve."""
    hp = hit_probs(params)
    d = _named_zero_division(hp, _curves_of(hp)[1])
    p, h = hp, hp.entropies
    mu1_solo, mu2_solo = _solo_duty(p[2], p[3], h[2], h[3]), _solo_duty(p[1], p[3], h[1], h[3])
    return SufficiencyRecord(
        single_user_sufficient=d(0.0) < 0.0 and d(1.0) < 0.0,  # g < f, as d = g - f exactly
        adding_user2_helps=_grad(hp, mu1_solo, 0.0)[1] > 0.0,
        adding_user1_helps=_grad(hp, 0.0, mu2_solo)[0] > 0.0,
    )


def _strategy_at(duty: DutyPair) -> Strategy:
    """Who transmits at a duty pair; the grid's lattice reaches 0 exactly."""
    if duty.mu1 == 0.0:
        return Strategy.ONLY_USER2
    return Strategy.ONLY_USER1 if duty.mu2 == 0.0 else Strategy.BOTH_ACTIVE


def solve(params: ChannelParams) -> SolveReport:
    """Sum-rate capacity with the optimal duty pair and strategy.

    In regime the enumeration is exact.  Out of regime the report carries
    regime_ok=False, the interior roots come from the scan of g - f, and the
    enumerated result gives way to one unrefined step-1e-2 pass of
    gridsearch.grid_capacity only when that is higher by more than TIE_TOL.
    The grid is a brute-force witness that rates its 101x101 cells on duty
    weights built once per process.  Every rate is on math's exp and logs
    but the grid's, which are on numpy's and can differ in the last bit; a
    lattice point away from the optimum wins only by a real margin.
    """
    hp = hit_probs(params)
    try:
        inter = _search(hp, params.in_regime)
    except (ArithmeticError, ValueError):
        # Saturated hit levels break the curve algebra; that only happens far
        # out of regime, where the solo candidates and the grid below carry the result.
        if params.in_regime:
            raise
        inter = IntersectionSearch(points=(), rejected=(), reliable=False)

    # In tie order: the in-box interior points, then user 2 alone, then user 1 alone.
    p, h = hp, hp.entropies
    candidates = [Candidate(pt, Strategy.BOTH_ACTIVE, _rate(p, h, pt.mu1, pt.mu2) / params.tau) for pt in inter.points]
    mu1_solo, mu2_solo = _solo_duty(p[2], p[3], h[2], h[3]), _solo_duty(p[1], p[3], h[1], h[3])
    solos = ((DutyPair(0.0, mu2_solo), Strategy.ONLY_USER2), (DutyPair(mu1_solo, 0.0), Strategy.ONLY_USER1))
    for duty, strategy in solos:
        candidates.append(Candidate(duty, strategy, _rate(p, h, duty.mu1, duty.mu2) / params.tau))

    best_rate = max(c.rate for c in candidates)
    if not math.isfinite(best_rate):  # an overflowed or NaN rate leaves no candidate near it
        raise ArithmeticError(f"the best candidate rate is {best_rate}, not a finite number")
    near = [c for c in candidates if c.rate >= 0.0 and best_rate - c.rate <= TIE_TOL]
    if not near:  # the best rate itself is below zero
        raise ArithmeticError(f"every candidate rate is rounding noise below zero (the best is {best_rate:.3g})")

    capacity, optimum, strategy = near[0].rate, near[0].duty, near[0].strategy
    grid_checked = False

    if not params.in_regime:
        from .gridsearch import GridSpec, grid_capacity

        grid = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=0))
        grid_checked = True
        if grid.capacity > capacity + TIE_TOL:
            capacity, optimum, strategy = grid.capacity, grid.duty, _strategy_at(grid.duty)

    near_ties = tuple(near) if len(near) > 1 else ()
    return SolveReport(capacity, optimum, strategy, tuple(candidates), near_ties, params.in_regime, inter, grid_checked)


# Batched enumeration.  Every helper below repeats, lane by lane, the
# arithmetic of its scalar counterpart above, in the same order, and calls the
# math module lane by lane for every exp and log (numpy's vectorised ones
# differ from it in the last bit for a few percent of arguments).  So each
# lane runs the same IEEE operations as the scalar code, and its result is bit
# for bit the scalar one.  A lane skips only work whose result solve never
# reads: the golden-section pass where g - f < 0 at both ends of [0, 1], and
# any step after the one that fixes a pass's result (in the golden-section
# pass, its first sample with g - f <= 0), where the lane leaves it.
# g and the entropy take xp, the module of their exp and logs (math by
# default, see _call); the grid and MISO oracles and the tests' profile pass numpy.
# The rate is channel._rate, on the entropy it is given.


def _lanes(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _call(xp: ModuleType, name: str, x: np.ndarray) -> np.ndarray:
    """xp's function name over x: the math module's lane by lane, or numpy's ufunc."""
    fn = getattr(xp, name)
    return _lanes(fn, x) if xp is math else fn(x)


def _entropy_many(q: np.ndarray, xp: ModuleType = math) -> np.ndarray:
    """binary_entropy over an array, on xp's logs (see _call); nan outside [0, 1]."""
    if q.size and q.min() > 0.0 and q.max() < 1.0:  # nothing to mask
        return -q * _call(xp, "log", q) - (1.0 - q) * _call(xp, "log1p", -q)
    inside = (q > 0.0) & (q < 1.0)
    q_in = np.where(inside, q, 0.5)
    h = -q_in * _call(xp, "log", q_in) - (1.0 - q_in) * _call(xp, "log1p", -q_in)
    return np.where(inside, h, np.where((q == 0.0) | (q == 1.0), 0.0, np.nan))


class _CurvesMany(NamedTuple):
    """Coefficients of f and g for many channels (see _curves_of)."""

    slope: np.ndarray
    intercept: np.ndarray
    dp_13: np.ndarray
    dp_24: np.ndarray
    dh_13: np.ndarray
    dh_24: np.ndarray
    p3: np.ndarray
    p4: np.ndarray

    def take(self, lanes: np.ndarray) -> "_CurvesMany":
        return _CurvesMany(*(x[lanes] for x in self))

    def g(self, mu1: np.ndarray, xp: ModuleType = math) -> np.ndarray:
        nu1 = 1.0 - mu1  # the scalar g rounds 1 - mu1 alike at each of its three uses
        den = mu1 * self.dp_13 + nu1 * self.dp_24
        a_m = _call(xp, "exp", np.minimum((mu1 * self.dh_13 + nu1 * self.dh_24) / den, EXP_CAP))
        return (1.0 / (a_m + 1.0) - (mu1 * self.p3 + nu1 * self.p4)) / den

    def d(self, mu1: np.ndarray) -> np.ndarray:
        """g - f at mu1."""
        return self.g(mu1) - (self.slope * mu1 + self.intercept)


def _curves_many(p: tuple[np.ndarray, ...], h: tuple[np.ndarray, ...]) -> _CurvesMany:
    p1, p2, p3, p4 = p
    h1, h2, h3, h4 = h
    u, v, w = _line(p, h)
    return _CurvesMany(u / v, w / v, p1 - p3, p2 - p4, h1 - h3, h2 - h4, p3, p4)


def _solo_duty_many(p_on: np.ndarray, p_off: np.ndarray, h_on: np.ndarray, h_off: np.ndarray) -> np.ndarray:
    """_solo_duty lane by lane, without its p_on == p_off shortcut."""
    chord = (h_on - h_off) / (p_on - p_off)
    return (1.0 / (1.0 + _lanes(math.exp, np.minimum(chord, EXP_CAP))) - p_off) / (p_on - p_off)


def _golden_min_many(curves: _CurvesMany, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """_golden_min of g - f on [0, 1] per lane, as arrays (NaN for None).  A
    lane leaves at its first sample with g - f <= 0, else at the width test (a
    NaN width fails it too), without the scalar loop's last evaluation, which
    its result never reads.  The other lanes evaluate their pending point."""
    n = curves.slope.size
    m_star, d_m, lane = np.empty(n), np.full(n, np.nan), np.arange(n)
    a, b = np.zeros(n), np.ones(n)
    # s is the interior point the bracket keeps, x the one still to be
    # evaluated; x is c (and s is d) where lt, else x is d (and s is c).
    s = b - _INV_GOLDEN * (b - a)
    fs, x, lt = curves.d(s), a + _INV_GOLDEN * (b - a), np.zeros(n, bool)
    new, f_new = s, fs  # the newest sample
    while True:
        low = f_new <= 0.0
        stay = ~low & (b - a > tol)
        if not stay.all():
            m_star[lane[~stay]] = np.where(low, new, 0.5 * (a + b))[~stay]
            d_m[lane[low]] = f_new[low]
            lane, a, b, s, fs, x, lt = (v[stay] for v in (lane, a, b, s, fs, x, lt))
            curves = curves.take(stay)
        if not lane.size:
            return m_star, d_m
        new, f_new = x, curves.d(x)
        c, fc, d, fd = np.where(lt, x, s), np.where(lt, f_new, fs), np.where(lt, s, x), np.where(lt, fs, f_new)
        lt = fc < fd
        b = np.where(lt, d, b)
        a = np.where(lt, a, c)
        s, fs = np.where(lt, c, d), np.where(lt, fc, fd)
        x = np.where(lt, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))


def _root_many(curves: _CurvesMany, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray, fhi: np.ndarray) -> np.ndarray:
    """_root of g - f per lane, given its values at lo and hi.  A lane leaves
    at the step where the scalar loop returns, so g - f is evaluated only at
    the points that loop evaluates."""
    root = np.where(flo == 0.0, lo, hi)  # where an end is a zero
    lane = np.flatnonzero((flo != 0.0) & (fhi != 0.0))
    curves, x0, f0, x1, f1 = curves.take(lane), lo[lane], flo[lane], hi[lane], fhi[lane]
    width, stale = x1 - x0, np.zeros(lane.size, int)
    while True:
        a, b = np.minimum(x0, x1), np.maximum(x0, x1)
        mid = 0.5 * (a + b)
        done = (b - a <= _REL_WIDTH * b) | (mid == a) | (mid == b)
        if done.any():
            root[lane[done]] = mid[done]
            state = (lane, x0, f0, x1, f1, width, stale, a, b, mid)
            lane, x0, f0, x1, f1, width, stale, a, b, mid = (v[~done] for v in state)
            curves = curves.take(~done)
        if not lane.size:
            return root
        x = x1 - f1 * (x1 - x0) / (f1 - f0)
        tiny = 0.5 * _REL_WIDTH * b
        x = np.where((stale < 3) & (a <= x) & (x <= b), np.minimum(np.maximum(x, a + tiny), b - tiny), mid)
        fx = curves.d(x)
        m = 1.0 - fx / f1
        same = (fx < 0.0) == (f1 < 0.0)
        f0 = np.where(same, f0 * np.where(m > 0.0, m, 0.5), f1)
        x0, x1, f1 = np.where(same, x0, x1), x, fx
        halved = np.abs(x1 - x0) <= 0.5 * width
        width, stale = np.where(halved, np.abs(x1 - x0), width), np.where(halved, 0, stale + 1)
        x0[fx == 0.0] = x[fx == 0.0]  # a zero ends the lane at x: its bracket is [x, x]


def _enumerate_many(
    a1: np.ndarray, a2: np.ndarray, lambda0: np.ndarray, tau: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The four-candidate enumeration of solve for in-regime lanes.

    Returns capacity, mu1, mu2, strategy code and a mask of the lanes whose
    algebra stayed finite; the others carry no result.
    """
    n = tau.size
    zeros, ones = np.zeros(n), np.ones(n)
    p = tuple(-_lanes(math.expm1, -x * tau) for x in (a1 + a2 + lambda0, a2 + lambda0, a1 + lambda0, lambda0))
    h = tuple(_entropy_many(q) for q in p)
    curves = _curves_many(p, h)

    # find_intersections keeps a root only where g - f >= 0 at mu1 = 0 or at
    # mu1 = 1, so only those lanes need the minimum m* and its value d_m.
    d_0, d_1 = curves.d(zeros), curves.d(ones)
    ends = np.flatnonzero((d_0 >= 0.0) | (d_1 >= 0.0))
    m_star, d_m = np.full(n, np.nan), np.full(n, np.nan)
    m_star[ends], d_m[ends] = _golden_min_many(curves.take(ends), 1e-14)
    full = ends[np.isnan(d_m[ends])]  # lanes with no sample <= 0 ran the whole pass
    d_m[full] = curves.take(full).d(m_star[full])
    crosses = d_m <= 0.0
    left = np.flatnonzero(crosses & (d_0 >= 0.0))
    right = np.flatnonzero(crosses & (d_1 >= 0.0))
    # Both sides in one pass: left roots on [0, m*], right roots on [m*, 1].
    roots = _root_many(
        curves.take(np.concatenate((left, right))),
        np.concatenate((zeros[left], m_star[right])),
        np.concatenate((m_star[left], ones[right])),
        np.concatenate((d_0[left], d_m[right])),
        np.concatenate((d_m[left], d_1[right])),
    )
    root_l, root_r = np.full(n, np.nan), np.full(n, np.nan)
    root_l[left], root_r[right] = roots[: left.size], roots[left.size :]
    has_l, has_r = ~np.isnan(root_l), ~np.isnan(root_r)
    has_r &= ~(has_l & (np.abs(root_l - root_r) < 1e-9))

    mu2_l, mu2_r = curves.g(root_l), curves.g(root_r)
    solo1 = _solo_duty_many(p[2], p[3], h[2], h[3])
    solo2 = _solo_duty_many(p[1], p[3], h[1], h[3])
    # solve's candidates in its tie order, a row each: mu1, mu2, rank in
    # _BY_RANK, and a mask.  A root whose mu2 leaves the box rates -inf.
    in_l, in_r = ((-BOX_SLACK <= mu2) & (mu2 <= 1.0 + BOX_SLACK) for mu2 in (mu2_l, mu2_r))
    table = (
        (np.clip(root_l, 0.0, 1.0), np.clip(mu2_l, 0.0, 1.0), 0, has_l & in_l),
        (np.clip(root_r, 0.0, 1.0), np.clip(mu2_r, 0.0, 1.0), 0, has_r & in_r),
        (zeros, solo2, 1, True),
        (solo1, zeros, 2, True),
    )
    rates = [np.where(mask, _rate(p, h, m1, m2, _entropy_many) / tau, -np.inf) for m1, m2, _, mask in table]

    # Tie rule of solve: the first non-negative rate within TIE_TOL of the
    # best, in table order.  A lane with none keeps code -1 and NaN.
    best = np.max(rates, axis=0)
    near = [(r >= 0.0) & (best - r <= TIE_TOL) for r in rates]
    mu1s, mu2s, ranks, _ = zip(*table)
    capacity, mu1, mu2 = (np.select(near, x, np.nan) for x in (rates, mu1s, mu2s))
    code = np.select(near, ranks, -1)
    finite = np.isfinite(d_0) & np.isfinite(d_1) & np.isfinite(capacity)
    finite[ends] &= np.isfinite(d_m[ends])  # a finite capacity leaves no NaN or +inf rate
    finite &= (0.0 <= solo1) & (solo1 <= 1.0) & (0.0 <= solo2) & (solo2 <= 1.0)
    return capacity, mu1, mu2, code, finite


def solve_many(
    a1: np.typing.ArrayLike, a2: np.typing.ArrayLike, lambda0: np.typing.ArrayLike, tau: np.typing.ArrayLike
) -> SolveBatch:
    """solve over arrays of channels, with the same results lane by lane.

    Inputs broadcast against each other.  In-regime lanes run the enumeration
    and solve's tie rule as array operations: one golden-section pass over the
    lanes where g - f >= 0 at an end of [0, 1], and one root pass over the
    lanes with a root.  Lanes out of regime, whose curve algebra is not
    finite, or with no candidate rate >= 0 go through solve() one at a time,
    which keeps the scan, the grid witness and the errors in one place.
    An invalid input raises the ValueError of ChannelParams for its first lane.
    """
    (a1, a2, lambda0, tau), regime = _checked_lanes(a1, a2, lambda0, tau)
    capacity, mu1, mu2 = (np.full(tau.size, np.nan) for _ in range(3))
    code = np.full(tau.size, -1)
    fast = np.flatnonzero(regime)
    if fast.size:  # an empty enumeration still costs ~1 ms of array set-up
        with np.errstate(all="ignore"):
            cap, m1, m2, cd, finite = _enumerate_many(a1[fast], a2[fast], lambda0[fast], tau[fast])
        fast = fast[finite]
        capacity[fast], mu1[fast], mu2[fast], code[fast] = cap[finite], m1[finite], m2[finite], cd[finite]
    for i in np.flatnonzero(code < 0).tolist():
        report = solve(ChannelParams(float(a1[i]), float(a2[i]), float(lambda0[i]), float(tau[i])))
        capacity[i], mu1[i], mu2[i] = report.capacity, report.optimum.mu1, report.optimum.mu2
        code[i] = _BY_RANK.index(report.strategy)
    return SolveBatch(capacity, mu1, mu2, code, regime)


def _checked_lanes(*channels: np.typing.ArrayLike) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The lane check of solve_many and the sweeps' --strict: (a1, a2, lambda0, tau) broadcast and
    flattened to float lanes, with the mask of those in regime, tau <= ln2/(a1 + a2 + lambda0).  An
    invalid input raises the ValueError of ChannelParams for its first lane."""
    a1, a2, lambda0, tau = lanes = tuple(np.ravel(x).astype(float) for x in np.broadcast_arrays(*channels))
    valid = np.logical_and.reduce([np.isfinite(x) & (x > 0.0) for x in lanes])
    if not valid.all():
        ChannelParams(*(float(x[np.argmin(valid)]) for x in lanes))  # raises
    with np.errstate(over="ignore"):  # a1 + a2 + lambda0 = inf puts the lane out of regime
        return lanes, tau <= math.log(2.0) / (a1 + a2 + lambda0)


def sweep_strategy_region(
    a1_grid: Sequence[float], a2_grid: Sequence[float], lambda0: float, tau: float | np.ndarray
) -> list[list[Strategy]]:
    """Optimal-strategy label for every (a1, a2) cell, solved as one batch; tau
    is one dead time, or an array of shape (len(a1_grid), len(a2_grid)), one a cell."""
    n1, n2 = len(a1_grid), len(a2_grid)
    if np.ndim(tau) and np.shape(tau) != (n1, n2):
        raise ValueError(f"tau must be one dead time or one per cell, of shape {(n1, n2)}, got shape {np.shape(tau)}")
    labels = solve_many(np.reshape(a1_grid, (n1, 1)), a2_grid, lambda0, tau).strategies()  # a column and a row
    return [labels[i * n2 : (i + 1) * n2] for i in range(n1)]
