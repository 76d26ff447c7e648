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
  most twice, so one golden-section pass locating the minimum of g - f plus a
  bisection on each side finds every interior candidate.  Both run on one
  closure d (_curves_of), g - f to the last bit in one Python call a step.
* the two edge candidates put one user at its closed-form solo duty cycle and
  silence the other.

The best of the at-most-four candidates is the capacity.  Out of the stated
regime the convexity guarantee lapses; the solver still runs but flags the
report and checks the candidates against the profile maximum and a coarse
grid.  At every tau and mu1, the hit probability and the entropy mixture are
affine in mu2, so I(mu1, .) is concave and peaks at clip(g(mu1), 0, 1): the
capacity is the maximum over mu1 of that profile (one numpy kernel with
numpy's exp, log and log1p, _profile_of), found by _profile_max_many, which
maximises lanes of profiles at once: solve runs one lane, and
continuous.cont_capacity_many runs a lane per continuous row.

solve builds a channel's set-up once for private cores; find_intersections,
sufficiency_tests and single_user_duty are wrappers over the same cores.

solve_many runs the same enumeration over arrays of channels at once, with
results identical to solve lane by lane, because its in-regime lanes call the
math module lane by lane for every exp and log; the sweeps are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from ._numpy import np
from .channel import (
    ChannelParams,
    DutyPair,
    HitProbs,
    binary_entropy,
    hit_prob,
    hit_probs,
    _grad,
    _mutual_info,
)

__all__ = [
    "Strategy",
    "Scenario",
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
    "regime_fraction_rule",
]

TIE_TOL = 1e-12
TOP_CELLS = 5  # incumbents refined by _profile_max and gridsearch._grid_max


class Strategy(Enum):
    """Which users transmit at the optimum."""

    ONLY_USER1 = "OnlyUser1"
    ONLY_USER2 = "OnlyUser2"
    BOTH_ACTIVE = "BothActive"


class Scenario(Enum):
    """Origin of a candidate: first/second interior stationary point or an edge."""

    BOTH_ACTIVE_1 = "BothActive1"
    BOTH_ACTIVE_2 = "BothActive2"
    ONLY_USER1 = "OnlyUser1"
    ONLY_USER2 = "OnlyUser2"


_STRATEGY_OF_SCENARIO = {
    Scenario.BOTH_ACTIVE_1: Strategy.BOTH_ACTIVE,
    Scenario.BOTH_ACTIVE_2: Strategy.BOTH_ACTIVE,
    Scenario.ONLY_USER1: Strategy.ONLY_USER1,
    Scenario.ONLY_USER2: Strategy.ONLY_USER2,
}

# Deterministic tie-break: prefer both-active, then user 2, then user 1.  A
# strategy's rank is also its code in SolveBatch.
_BY_RANK = (Strategy.BOTH_ACTIVE, Strategy.ONLY_USER2, Strategy.ONLY_USER1)
_TIE_RANK = {s: rank for rank, s in enumerate(_BY_RANK)}


@dataclass(frozen=True)
class LineCoefficients:
    """Coefficients of the affine stationarity locus mu1*u - mu2*v + w = 0.

    Signs follow the chord-difference forms, which make u and v positive for
    every channel and give w the sign of a2 - a1.
    """

    u: float
    v: float
    w: float


@dataclass(frozen=True)
class Candidate:
    """One evaluated optimum candidate.  Interior points that fall outside the
    unit square are recorded as the conventional placeholder (0, 0) with
    valid=False and rate 0."""

    duty: DutyPair
    scenario: Scenario
    rate: float
    valid: bool


@dataclass(frozen=True)
class SufficiencyRecord:
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


@dataclass(frozen=True)
class IntersectionSearch:
    """Roots of g - f on [0, 1].  points carry the in-box stationary pairs;
    rejected carries roots whose mu2 coordinate left the unit interval.
    reliable is False out of regime, where g may fail to be convex."""

    points: tuple[DutyPair, ...]
    rejected: tuple[DutyPair, ...]
    reliable: bool


@dataclass(frozen=True)
class SolveReport:
    capacity: float
    optimum: DutyPair
    strategy: Strategy
    candidates: tuple[Candidate, ...]
    near_ties: tuple[Candidate, ...]
    regime_ok: bool
    # None only for saturated out-of-regime channels where the screens'
    # curve algebra is undefined.
    sufficiency: SufficiencyRecord | None
    # The curve intersections behind the interior candidates; empty for the
    # saturated channels above.
    search: IntersectionSearch
    grid_checked: bool = False


@dataclass(frozen=True)
class SolveBatch:
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
    return LineCoefficients(*_line((hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies))


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
    line = uvw(params)
    return (line.u / line.v) * mu1 + line.w / line.v


def g_mac(params: ChannelParams, mu1: float) -> float:
    """mu2 solving d I/d mu2 = 0 at the given mu1; strictly convex in regime."""
    return _curves_of(hit_probs(params))[0](mu1)


def _curves_of(hp: HitProbs) -> tuple[Callable[[float], float], Callable[[], Callable[[float], float]]]:
    """g, and a maker of d = g - f, on one set-up of both curves' coefficients.
    d repeats g's operations inline, so d(x) is g(x) - f(x) to the last bit,
    NaN too (700.0 if 700.0 < e else e is min(e, 700.0)).  It is made on
    demand: f divides by the line's v, which is 0 where g is still defined."""
    (h1, h2, h3, h4), p1, p2, p3, p4 = hp.entropies, hp.p1, hp.p2, hp.p3, hp.p4
    dp_13, dp_24, dh_13, dh_24 = p1 - p3, p2 - p4, h1 - h3, h2 - h4

    def g(mu1: float) -> float:
        den = mu1 * dp_13 + (1.0 - mu1) * dp_24
        # Exponent capped: far out of regime the hit levels saturate and the
        # chord ratio can exceed the double-precision exp range.
        a_m = math.exp(min((mu1 * dh_13 + (1.0 - mu1) * dh_24) / den, 700.0))
        return (1.0 / (a_m + 1.0) - (mu1 * p3 + (1.0 - mu1) * p4)) / den

    def make_d() -> Callable[[float], float]:
        u, v, w = _line((p1, p2, p3, p4), (h1, h2, h3, h4))
        slope, intercept = u / v, w / v

        def d(mu1: float) -> float:
            nu1 = 1.0 - mu1
            den = mu1 * dp_13 + nu1 * dp_24
            e = (mu1 * dh_13 + nu1 * dh_24) / den
            mu2 = (1.0 / (math.exp(700.0 if 700.0 < e else e) + 1.0) - (mu1 * p3 + nu1 * p4)) / den
            return mu2 - (slope * mu1 + intercept)

        return d

    return g, make_d


def _profile_of(hp: HitProbs, tau: float) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """mu1 -> (I/tau at (mu1, mu2), mu2) with mu2 = clip(g(mu1), 0, 1), over an array:
    the operations of _curves_of's g and _mutual_info in their order, with numpy's exp and logs."""
    (h1, h2, h3, h4), p1, p2, p3, p4 = hp.entropies, hp.p1, hp.p2, hp.p3, hp.p4
    dp_13, dp_24, dh_13, dh_24 = p1 - p3, p2 - p4, h1 - h3, h2 - h4

    def profile(mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        nu1 = 1.0 - mu1
        den = mu1 * dp_13 + nu1 * dp_24
        a_m = np.exp(np.minimum((mu1 * dh_13 + nu1 * dh_24) / den, 700.0))
        g = (1.0 / (a_m + 1.0) - (mu1 * p3 + nu1 * p4)) / den
        mu2 = np.fmin(np.fmax(g, 0.0), 1.0)  # 0 where g is NaN: den = 0, and I is flat in mu2
        w0, w1, w2, w3 = mu1 * mu2, nu1 * mu2, mu1 * (1.0 - mu2), nu1 * (1.0 - mu2)
        ph = w0 * p1 + w1 * p2 + w2 * p3 + w3 * p4
        h = -ph * np.log(ph) - (1.0 - ph) * np.log1p(-ph)  # NaN outside [0, 1]
        if not (ph.min() > 0.0 and ph.max() < 1.0):
            h = np.where((ph == 0.0) | (ph == 1.0), 0.0, h)
        return (h - (w0 * h1 + w1 * h2 + w2 * h3 + w3 * h4)) / tau, mu2

    return profile


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(fn: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    """Abscissa of the minimum of a strictly unimodal function on [lo, hi]."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b)


def _bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a continuous function with fn(lo) >= 0 >= fn(hi) (or reversed)."""
    flo = fn(lo)
    if flo == 0.0:
        return lo
    sign_lo = flo > 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # no step can shrink the bracket or move mid again
            return mid
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == sign_lo:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return 0.5 * (lo + hi)


def find_intersections(params: ChannelParams) -> IntersectionSearch:
    """All stationary pairs where the affine and convex curves meet on [0, 1].

    Exploits strict convexity of g - f: golden-section locates its minimum,
    then one bisection per side recovers each sign change.  Out of regime the
    search still runs but the result is flagged unreliable.
    """
    g, make_d = _curves_of(hit_probs(params))
    return _intersections(g, make_d(), params.in_regime)


def _intersections(g: Callable, d: Callable, reliable: bool) -> IntersectionSearch:
    m_star = _golden_min(d, 0.0, 1.0, 1e-14)
    roots: list[float] = []
    if d(m_star) <= 0.0:
        if d(0.0) >= 0.0:
            roots.append(_bisect_root(d, 0.0, m_star))
        if d(1.0) >= 0.0:
            roots.append(_bisect_root(d, m_star, 1.0))
    if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-9:
        roots = roots[:1]

    points: list[DutyPair] = []
    rejected: list[DutyPair] = []
    for r in roots:
        mu2 = g(r)
        if -1e-12 <= mu2 <= 1.0 + 1e-12:
            points.append(DutyPair(min(max(r, 0.0), 1.0), min(max(mu2, 0.0), 1.0)))
        else:
            rejected.append(DutyPair(min(max(r, 0.0), 1.0), min(max(mu2, 0.0), 1.0)))
    return IntersectionSearch(points=tuple(points), rejected=tuple(rejected), reliable=reliable)


def single_user_duty(a: float, lambda0: float, tau: float) -> float:
    """Closed-form optimal duty cycle when one user at peak rate a transmits alone.
    ArithmeticError if rounding puts it outside [0, 1]."""
    p_on, p_off = hit_prob(a + lambda0, tau), hit_prob(lambda0, tau)
    return _solo_duty(p_on, p_off, binary_entropy(p_on), binary_entropy(p_off))


def _solo_duty(p_on: float, p_off: float, h_on: float, h_off: float) -> float:
    if p_on == p_off:
        return 0.0  # the hit levels saturate alike: every duty has rate 0
    chord = (h_on - h_off) / (p_on - p_off)
    duty = (1.0 / (1.0 + math.exp(min(chord, 700.0))) - p_off) / (p_on - p_off)
    if not 0.0 <= duty <= 1.0:  # peaks far below the background: both differences cancel
        raise ArithmeticError(f"the single-user duty {duty:.3g} is outside [0, 1]: its entropy chord cancelled")
    return duty


def sufficiency_tests(params: ChannelParams) -> SufficiencyRecord:
    """Screens that settle the transmission strategy without the full solve."""
    hp = hit_probs(params)
    d = _curves_of(hp)[1]()
    mu1_solo = single_user_duty(params.a1, params.lambda0, params.tau)
    return _sufficiency(hp, d, mu1_solo, single_user_duty(params.a2, params.lambda0, params.tau))


def _sufficiency(hp: HitProbs, d: Callable, mu1_solo: float, mu2_solo: float) -> SufficiencyRecord:
    return SufficiencyRecord(
        single_user_sufficient=d(0.0) < 0.0 and d(1.0) < 0.0,  # g < f, as d = g - f exactly
        adding_user2_helps=_grad(hp, mu1_solo, 0.0)[1] > 0.0,
        adding_user1_helps=_grad(hp, 0.0, mu2_solo)[0] > 0.0,
    )


def _strategy_at(duty: DutyPair) -> Strategy:
    """Who transmits at a duty pair; the profile and the grid reach 0 exactly."""
    if duty.mu1 == 0.0:
        return Strategy.ONLY_USER2
    return Strategy.ONLY_USER1 if duty.mu2 == 0.0 else Strategy.BOTH_ACTIVE


def _profile_max_many(profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], lanes: int) -> tuple:
    """Largest rate over mu1 in [0, 1] of each lane (row) of profile(mu1) ->
    (rate, mu2) on a (lanes, n) mu1 array, where mu2 is the inner maximiser:
    per-lane arrays of whether any rate was finite (if none was, the rest is
    meaningless), the rate, mu1 and mu2.  One pass at step 1e-3 keeps
    TOP_CELLS incumbents per lane at least three steps apart, so close rival
    maxima cannot shake the search off the global one.  Six rounds each scan
    1.5 old steps around every incumbent (all in one call) at a tenth of the
    step, down to 1e-9; an incumbent moves only to a strictly better point,
    a NaN rate never wins, and of equal final values the earliest wins."""
    step, x, offsets = 1e-3, np.arange(1001) * 1e-3, np.arange(-15, 16) / 10.0  # x is linspace(0, 1, 1001)
    rate, mu2 = profile(x[None].repeat(lanes, 0))
    finite = np.isfinite(rate).any(axis=1)
    rate = np.fmax(rate, -np.inf)  # a NaN rate never wins
    masked, picks = rate.copy(), np.empty((lanes, TOP_CELLS), dtype=np.intp)
    for c in range(TOP_CELLS):
        pick = picks[:, c] = masked.argmax(axis=1)
        np.putmask(masked, np.abs(x - x[pick, None]) < 3.0 * step, -np.inf)
    # The incumbents of all lanes as flat rows, lane by lane.
    lane = np.arange(lanes)[:, None]
    best, mu1, mu2 = rate[lane, picks].ravel(), x[picks].ravel(), mu2[lane, picks].ravel()
    rows = np.arange(best.size)
    for _ in range(6):
        window = np.minimum(np.maximum(mu1[:, None] + offsets * step, 0.0), 1.0)
        rate, inner = (v.reshape(window.shape) for v in profile(window.reshape(lanes, -1)))
        k = np.argmax(np.fmax(rate, -np.inf), axis=1)
        top = rate[rows, k]
        better = top > best
        best = np.where(better, top, best)
        mu1 = np.where(better, window[rows, k], mu1)
        mu2 = np.where(better, inner[rows, k], mu2)
        step /= 10.0
    k = np.argmax(best.reshape(lanes, TOP_CELLS), axis=1) + np.arange(0, best.size, TOP_CELLS)
    return finite, best[k], mu1[k], mu2[k]


def _profile_max(profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> tuple[float, DutyPair]:
    """_profile_max_many on one lane; ArithmeticError if no rate is finite."""
    (finite,), (rate,), (mu1,), (mu2,) = (v.tolist() for v in _profile_max_many(profile, 1))
    if not finite:
        raise ArithmeticError("the profile has no finite rate")
    return rate, DutyPair(mu1, mu2)


def solve(params: ChannelParams) -> SolveReport:
    """Sum-rate capacity with the optimal duty pair and strategy.

    In regime the enumeration is exact.  Out of regime the report carries
    regime_ok=False, and the enumerated result gives way to the profile
    maximum (see _profile_max) and then to one unrefined step-1e-2 pass of
    gridsearch.grid_capacity, each only when higher by more than TIE_TOL.
    The profile takes numpy's exp, log and log1p (_profile_of), which can
    differ from math's in the last bit.  On one x86-64 host (AVX-512, numpy
    2.4), 3,000 random out-of-regime channels with peaks up to 100 kept every
    bit they had with math's.  At capacities in the thousands, where TIE_TOL
    is a few ulps, the profile can win by rounding noise, and its duty then
    rests on those last bits; another CPU may differ there.
    """
    hp = hit_probs(params)
    g, make_d = _curves_of(hp)
    d = None  # make_d raises where the line's v is 0, and again for the screens below
    try:
        d = make_d()
        inter = _intersections(g, d, params.in_regime)
    except (ArithmeticError, ValueError):
        # Saturated hit levels break the curve algebra; that only happens far
        # out of regime, where the profile below carries the result.
        if params.in_regime:
            raise
        inter = IntersectionSearch(points=(), rejected=(), reliable=False)

    candidates: list[Candidate] = []
    both_scen = (Scenario.BOTH_ACTIVE_1, Scenario.BOTH_ACTIVE_2)
    for slot in range(2):
        if slot < len(inter.points):
            pt = inter.points[slot]
            rate = _mutual_info(hp, pt.mu1, pt.mu2) / params.tau
            candidates.append(Candidate(pt, both_scen[slot], rate, valid=True))
        else:
            candidates.append(
                Candidate(DutyPair(0.0, 0.0), both_scen[slot], 0.0, valid=False)
            )
    p, h = (hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies
    mu1_solo, mu2_solo = _solo_duty(p[2], p[3], h[2], h[3]), _solo_duty(p[1], p[3], h[1], h[3])
    solos = {Scenario.ONLY_USER1: DutyPair(mu1_solo, 0.0), Scenario.ONLY_USER2: DutyPair(0.0, mu2_solo)}
    for scenario, duty in solos.items():
        rate = _mutual_info(hp, duty.mu1, duty.mu2) / params.tau
        candidates.append(Candidate(duty, scenario, rate, valid=True))

    best_rate = max(c.rate for c in candidates)
    near = [c for c in candidates if c.valid and best_rate - c.rate <= TIE_TOL]
    winner = min(near, key=lambda c: _TIE_RANK[_STRATEGY_OF_SCENARIO[c.scenario]])

    capacity = winner.rate
    optimum = winner.duty
    strategy = _STRATEGY_OF_SCENARIO[winner.scenario]
    grid_checked = False

    if not params.in_regime:
        # Convexity of g may fail here, so the enumeration can miss the
        # optimum.  The profile cannot; the grid is a brute-force witness.
        from .gridsearch import GridSpec, grid_capacity

        with np.errstate(all="ignore"):
            peak = _profile_max(_profile_of(hp, params.tau))
        grid = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=0))
        grid_checked = True
        for rate, duty in (peak, (grid.capacity, grid.duty)):
            if rate > capacity + TIE_TOL:
                capacity, optimum, strategy = rate, duty, _strategy_at(duty)

    try:
        sufficiency = _sufficiency(hp, d or make_d(), mu1_solo, mu2_solo)
    except (ArithmeticError, ValueError):
        if params.in_regime:
            raise
        sufficiency = None

    return SolveReport(
        capacity=capacity,
        optimum=optimum,
        strategy=strategy,
        candidates=tuple(candidates),
        near_ties=tuple(near) if len(near) > 1 else (),
        regime_ok=params.in_regime,
        sufficiency=sufficiency,
        search=inter,
        grid_checked=grid_checked,
    )


# Batched enumeration.  Every helper below repeats, lane by lane, the
# arithmetic of its scalar counterpart above, in the same order, and calls the
# math module lane by lane for every exp and log (numpy's vectorised ones
# differ from it in the last bit for a few percent of arguments).  So each
# lane runs the same IEEE operations as the scalar code, and its result is bit
# for bit the scalar one.  A lane skips only work whose result solve never
# reads: the golden-section pass where g - f < 0 at both ends of [0, 1], and
# any step after the one that fixes a pass's result, where the lane leaves it.


def _lanes(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _entropy_many(q: np.ndarray) -> np.ndarray:
    """binary_entropy lane by lane; nan outside [0, 1]."""
    inside = (q > 0.0) & (q < 1.0)
    q_in = np.where(inside, q, 0.5)
    h = -q_in * _lanes(math.log, q_in) - (1.0 - q_in) * _lanes(math.log1p, -q_in)
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

    def g(self, mu1: np.ndarray) -> np.ndarray:
        nu1 = 1.0 - mu1  # the scalar g rounds 1 - mu1 alike at each of its three uses
        den = mu1 * self.dp_13 + nu1 * self.dp_24
        a_m = _lanes(math.exp, np.minimum((mu1 * self.dh_13 + nu1 * self.dh_24) / den, 700.0))
        return (1.0 / (a_m + 1.0) - (mu1 * self.p3 + nu1 * self.p4)) / den

    def d(self, mu1: np.ndarray) -> np.ndarray:
        """g - f at mu1."""
        return self.g(mu1) - (self.slope * mu1 + self.intercept)


def _curves_many(p: tuple[np.ndarray, ...], h: tuple[np.ndarray, ...]) -> _CurvesMany:
    p1, p2, p3, p4 = p
    h1, h2, h3, h4 = h
    u, v, w = _line(p, h)
    return _CurvesMany(u / v, w / v, p1 - p3, p2 - p4, h1 - h3, h2 - h4, p3, p4)


def _rate_many(
    p: tuple[np.ndarray, ...], h: tuple[np.ndarray, ...], tau: np.ndarray, mu1: np.ndarray, mu2: np.ndarray
) -> np.ndarray:
    """_mutual_info / tau lane by lane."""
    w0, w1, w2, w3 = mu1 * mu2, (1.0 - mu1) * mu2, mu1 * (1.0 - mu2), (1.0 - mu1) * (1.0 - mu2)
    ph = w0 * p[0] + w1 * p[1] + w2 * p[2] + w3 * p[3]
    return (_entropy_many(ph) - (w0 * h[0] + w1 * h[1] + w2 * h[2] + w3 * h[3])) / tau


def _solo_duty_many(p_on: np.ndarray, p_off: np.ndarray, h_on: np.ndarray, h_off: np.ndarray) -> np.ndarray:
    """_solo_duty lane by lane, without its p_on == p_off shortcut."""
    chord = (h_on - h_off) / (p_on - p_off)
    return (1.0 / (1.0 + _lanes(math.exp, np.minimum(chord, 700.0))) - p_off) / (p_on - p_off)


def _golden_min_many(curves: _CurvesMany, tol: float) -> np.ndarray:
    """_golden_min of g - f on [0, 1] per lane.  Each step starts with the
    scalar loop's width test: a lane whose b - a is not above tol (a NaN
    width too) leaves with its result, without the scalar loop's last
    evaluation, which that result never reads.  The other lanes evaluate
    their pending point and step on."""
    n = curves.slope.size
    m_star, lane = np.empty(n), np.arange(n)
    a, b = np.zeros(n), np.ones(n)
    # s is the interior point the bracket keeps, x the one still to be
    # evaluated; x is c (and s is d) where lt, else x is d (and s is c).
    s = b - _INV_GOLDEN * (b - a)
    fs, x, lt = curves.d(s), a + _INV_GOLDEN * (b - a), np.zeros(n, bool)
    while True:
        wide = b - a > tol
        if not wide.all():
            m_star[lane[~wide]] = 0.5 * (a[~wide] + b[~wide])
            lane, a, b, s, fs, x, lt = (v[wide] for v in (lane, a, b, s, fs, x, lt))
            curves = curves.take(wide)
        if not lane.size:
            return m_star
        fx = curves.d(x)
        c, fc, d, fd = np.where(lt, x, s), np.where(lt, fx, fs), np.where(lt, s, x), np.where(lt, fs, fx)
        lt = fc < fd
        b = np.where(lt, d, b)
        a = np.where(lt, a, c)
        s, fs = np.where(lt, c, d), np.where(lt, fc, fd)
        x = np.where(lt, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))


def _bisect_many(curves: _CurvesMany, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """_bisect_root of g - f per lane, given its value flo at lo.  A lane
    leaves at the step where the scalar loop returns or breaks, so g - f is
    evaluated only at the midpoints that loop evaluates."""
    root = lo.copy()  # where flo == 0
    lane = np.flatnonzero(flo != 0.0)
    curves, lo, hi, sign_lo = curves.take(lane), lo[lane], hi[lane], flo[lane] > 0.0
    mid = 0.5 * (lo + hi)
    # A midpoint that rounds onto an end cannot shrink the bracket: the
    # scalar loop returns it unevaluated.
    done = (mid == lo) | (mid == hi)
    for _ in range(120):
        if done.any():
            root[lane[done]] = mid[done]
            lane, lo, hi, mid, sign_lo = (v[~done] for v in (lane, lo, hi, mid, sign_lo))
            curves = curves.take(~done)
        if not lane.size:
            break
        fm = curves.d(mid)
        up = (fm > 0.0) == sign_lo
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        # The scalar loop returns mid at a zero of g - f; otherwise its result
        # is the next midpoint once the bracket is within 1e-16 or stuck.
        zero = fm == 0.0
        mid = np.where(zero, mid, 0.5 * (lo + hi))
        done = zero | (hi - lo <= 1e-16) | (mid == lo) | (mid == hi)
    root[lane] = mid
    return root


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
    m_star[ends] = _golden_min_many(curves.take(ends), 1e-14)
    d_m[ends] = curves.take(ends).d(m_star[ends])
    crosses = d_m <= 0.0
    left = np.flatnonzero(crosses & (d_0 >= 0.0))
    right = np.flatnonzero(crosses & (d_1 >= 0.0))
    # Both sides in one pass: left roots on [0, m*], right roots on [m*, 1].
    roots = _bisect_many(
        curves.take(np.concatenate((left, right))),
        np.concatenate((zeros[left], m_star[right])),
        np.concatenate((m_star[left], ones[right])),
        np.concatenate((d_0[left], d_m[right])),
    )
    root_l, root_r = np.full(n, np.nan), np.full(n, np.nan)
    root_l[left], root_r[right] = roots[: left.size], roots[left.size :]
    has_l, has_r = ~np.isnan(root_l), ~np.isnan(root_r)
    has_r &= ~(has_l & (np.abs(root_l - root_r) < 1e-9))

    mu2_l, mu2_r = curves.g(root_l), curves.g(root_r)
    in_l = has_l & (-1e-12 <= mu2_l) & (mu2_l <= 1.0 + 1e-12)
    in_r = has_r & (-1e-12 <= mu2_r) & (mu2_r <= 1.0 + 1e-12)
    # Interior slot 0 is the first in-box root, slot 1 the second.
    slot0, slot1 = in_l | in_r, in_l & in_r
    s0_mu1 = np.clip(np.where(in_l, root_l, root_r), 0.0, 1.0)
    s0_mu2 = np.clip(np.where(in_l, mu2_l, mu2_r), 0.0, 1.0)
    s1_mu1, s1_mu2 = np.clip(root_r, 0.0, 1.0), np.clip(mu2_r, 0.0, 1.0)
    rate0 = np.where(slot0, _rate_many(p, h, tau, s0_mu1, s0_mu2), 0.0)
    rate1 = np.where(slot1, _rate_many(p, h, tau, s1_mu1, s1_mu2), 0.0)

    solo1 = _solo_duty_many(p[2], p[3], h[2], h[3])
    solo2 = _solo_duty_many(p[1], p[3], h[1], h[3])
    rate_e1 = _rate_many(p, h, tau, solo1, zeros)
    rate_e2 = _rate_many(p, h, tau, zeros, solo2)

    # Tie rule of solve: the first both-active slot within TIE_TOL of the
    # best rate, else user 2 alone, else user 1 alone.
    best = np.maximum(np.maximum(rate0, rate1), np.maximum(rate_e1, rate_e2))
    near = [
        slot0 & (best - rate0 <= TIE_TOL),
        slot1 & (best - rate1 <= TIE_TOL),
        best - rate_e2 <= TIE_TOL,
        best - rate_e1 <= TIE_TOL,
    ]
    capacity = np.select(near, [rate0, rate1, rate_e2, rate_e1], np.nan)
    mu1 = np.select(near, [s0_mu1, s1_mu1, zeros, solo1], np.nan)
    mu2 = np.select(near, [s0_mu2, s1_mu2, solo2, zeros], np.nan)
    winners = (Strategy.BOTH_ACTIVE, Strategy.BOTH_ACTIVE, Strategy.ONLY_USER2, Strategy.ONLY_USER1)
    code = np.select(near, [_TIE_RANK[s] for s in winners], -1)
    finite = np.isfinite(d_0) & np.isfinite(d_1) & np.isfinite(capacity)
    finite[ends] &= np.isfinite(d_m[ends])
    finite &= np.isfinite(rate0) & np.isfinite(rate1) & np.isfinite(rate_e1) & np.isfinite(rate_e2)
    finite &= (0.0 <= solo1) & (solo1 <= 1.0) & (0.0 <= solo2) & (solo2 <= 1.0)
    return capacity, mu1, mu2, code, finite


def solve_many(
    a1: np.typing.ArrayLike, a2: np.typing.ArrayLike, lambda0: np.typing.ArrayLike, tau: np.typing.ArrayLike
) -> SolveBatch:
    """solve over arrays of channels, with the same results lane by lane.

    Inputs broadcast against each other.  In-regime lanes run the enumeration
    as array operations: one golden-section pass over the lanes where g - f
    >= 0 at an end of [0, 1], and one bisection pass over the lanes with a
    root.  Lanes out of regime, or whose curve algebra is not finite, go
    through solve() one at a time, which keeps the profile, the grid
    cross-check and the saturated-channel guard in one place.  An invalid
    input raises the ValueError of ChannelParams for the first such lane.
    """
    lanes = tuple(np.ravel(x).astype(float) for x in np.broadcast_arrays(a1, a2, lambda0, tau))
    a1, a2, lambda0, tau = lanes
    valid = np.logical_and.reduce([np.isfinite(x) & (x > 0.0) for x in lanes])
    if not valid.all():
        ChannelParams(*(float(x[np.argmin(valid)]) for x in lanes))  # raises

    regime = tau <= math.log(2.0) / (a1 + a2 + lambda0)
    capacity, mu1, mu2 = (np.full(tau.size, np.nan) for _ in range(3))
    code = np.full(tau.size, -1)
    fast = np.flatnonzero(regime)
    if fast.size:  # an empty enumeration still costs ~1 ms of array set-up
        with np.errstate(all="ignore"):
            cap, m1, m2, cd, finite = _enumerate_many(a1[fast], a2[fast], lambda0[fast], tau[fast])
        fast = fast[finite]
        capacity[fast], mu1[fast], mu2[fast], code[fast] = cap[finite], m1[finite], m2[finite], cd[finite]
    for i in np.flatnonzero(code < 0).tolist():
        report = solve(ChannelParams(*(float(x[i]) for x in lanes)))
        capacity[i], mu1[i], mu2[i] = report.capacity, report.optimum.mu1, report.optimum.mu2
        code[i] = _TIE_RANK[report.strategy]
    return SolveBatch(capacity, mu1, mu2, code, regime)


def regime_fraction_rule(fraction: float, lambda0: float) -> Callable[[float, float], float]:
    """Dead-time rule tau = fraction * ln2 / (a1 + a2 + lambda0), always in regime
    for fraction <= 1."""

    def rule(a1: float, a2: float) -> float:
        return fraction * math.log(2.0) / (a1 + a2 + lambda0)

    return rule


def sweep_strategy_region(
    a1_grid: Sequence[float],
    a2_grid: Sequence[float],
    lambda0: float,
    tau_rule: float | Callable[[float, float], float],
) -> list[list[Strategy]]:
    """Optimal-strategy label for every (a1, a2) cell, solved as one batch.

    tau_rule is either a fixed dead time or a callable (a1, a2) -> tau,
    evaluated per cell.
    """
    n2 = len(a2_grid)
    tau = (
        [tau_rule(a1, a2) for a1 in a1_grid for a2 in a2_grid]
        if callable(tau_rule)
        else float(tau_rule)
    )
    labels = solve_many(np.repeat(a1_grid, n2), np.tile(a2_grid, len(a1_grid)), lambda0, tau).strategies()
    return [labels[i * n2 : (i + 1) * n2] for i in range(len(a1_grid))]
