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
  bisection on each side finds every interior candidate.
* the two edge candidates put one user at its closed-form solo duty cycle and
  silence the other.

The best of the at-most-four candidates is the capacity.  Out of the stated
regime the convexity guarantee lapses; the solver still runs but flags the
report and checks the candidates against the profile maximum and a coarse
grid.  At every tau and mu1, the hit probability and the entropy mixture are
affine in mu2, so I(mu1, .) is concave and peaks at clip(g(mu1), 0, 1): the
capacity is the maximum over mu1 of that profile, found by _profile_max.

solve_many runs the same enumeration over arrays of channels at once, with
results identical to solve lane by lane; the sweeps are built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence

import numpy as np

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
    return _uvw(hp)


def _uvw(hp: HitProbs) -> LineCoefficients:
    return LineCoefficients(*_line((hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies()))


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
    return _g_of(hit_probs(params))(mu1)


def _f_of(hp: HitProbs) -> Callable[[float], float]:
    line = _uvw(hp)
    slope = line.u / line.v
    intercept = line.w / line.v
    return lambda mu1: slope * mu1 + intercept


def _g_of(hp: HitProbs) -> Callable[[float], float]:
    h1, h2, h3, h4 = hp.entropies()
    dp_13, dp_24 = hp.p1 - hp.p3, hp.p2 - hp.p4
    dh_13, dh_24 = h1 - h3, h2 - h4
    p3, p4 = hp.p3, hp.p4

    def g(mu1: float) -> float:
        den = mu1 * dp_13 + (1.0 - mu1) * dp_24
        # Exponent capped: far out of regime the hit levels saturate and the
        # chord ratio can exceed the double-precision exp range.
        a_m = math.exp(min((mu1 * dh_13 + (1.0 - mu1) * dh_24) / den, 700.0))
        return (1.0 / (a_m + 1.0) - (mu1 * p3 + (1.0 - mu1) * p4)) / den

    return g


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
    hp = hit_probs(params)
    f, g = _f_of(hp), _g_of(hp)

    def d(mu1: float) -> float:
        return g(mu1) - f(mu1)

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
    return IntersectionSearch(
        points=tuple(points), rejected=tuple(rejected), reliable=params.in_regime
    )


def single_user_duty(a: float, lambda0: float, tau: float) -> float:
    """Closed-form optimal duty cycle when one user at peak rate a transmits alone."""
    p_on = hit_prob(a + lambda0, tau)
    p_off = hit_prob(lambda0, tau)
    if p_on == p_off:
        return 0.0  # the hit levels saturate alike: every duty has rate 0
    chord = (binary_entropy(p_on) - binary_entropy(p_off)) / (p_on - p_off)
    return (1.0 / (1.0 + math.exp(min(chord, 700.0))) - p_off) / (p_on - p_off)


def sufficiency_tests(params: ChannelParams) -> SufficiencyRecord:
    """Screens that settle the transmission strategy without the full solve."""
    hp = hit_probs(params)
    f, g = _f_of(hp), _g_of(hp)
    mu1_solo = single_user_duty(params.a1, params.lambda0, params.tau)
    mu2_solo = single_user_duty(params.a2, params.lambda0, params.tau)
    return SufficiencyRecord(
        single_user_sufficient=g(0.0) < f(0.0) and g(1.0) < f(1.0),
        adding_user2_helps=_grad(hp, mu1_solo, 0.0)[1] > 0.0,
        adding_user1_helps=_grad(hp, 0.0, mu2_solo)[0] > 0.0,
    )


def _strategy_at(duty: DutyPair) -> Strategy:
    """Who transmits at a duty pair; the profile and the grid reach 0 exactly."""
    if duty.mu1 == 0.0:
        return Strategy.ONLY_USER2
    return Strategy.ONLY_USER1 if duty.mu2 == 0.0 else Strategy.BOTH_ACTIVE


def _profile_max(profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> tuple[float, DutyPair]:
    """Largest rate over mu1 in [0, 1] of profile(mu1) -> (rate, mu2), where
    mu2 is the inner maximiser at each mu1.

    One pass at step 1e-3 keeps TOP_CELLS incumbents at least three steps
    apart, so close rival maxima cannot shake the search off the global one.
    Six rounds each scan 1.5 old steps around every incumbent (in one call)
    at a tenth of the step, down to 1e-9; an incumbent moves only to a
    strictly better point, a NaN rate never wins, and of equal final values
    the earliest incumbent wins."""
    step, x = 1e-3, np.linspace(0.0, 1.0, 1001)
    rate, mu2 = profile(x)
    rate = np.where(np.isnan(rate), -np.inf, rate)
    masked, picks = rate.copy(), []
    for _ in range(TOP_CELLS):
        picks.append(int(np.argmax(masked)))
        masked[np.abs(x - x[picks[-1]]) < 3.0 * step] = -np.inf
    best, mu1, mu2 = rate[picks], x[picks], mu2[picks]
    rows, offsets = np.arange(TOP_CELLS), np.arange(-15, 16) / 10.0
    for _ in range(6):
        window = np.clip(mu1[:, None] + offsets * step, 0.0, 1.0)
        rate, inner = (v.reshape(window.shape) for v in profile(window.ravel()))
        k = np.argmax(np.where(np.isnan(rate), -np.inf, rate), axis=1)
        better = rate[rows, k] > best
        best = np.where(better, rate[rows, k], best)
        mu1 = np.where(better, window[rows, k], mu1)
        mu2 = np.where(better, inner[rows, k], mu2)
        step /= 10.0
    k = int(np.argmax(best))
    return float(best[k]), DutyPair(float(mu1[k]), float(mu2[k]))


def solve(params: ChannelParams) -> SolveReport:
    """Sum-rate capacity with the optimal duty pair and strategy.

    In regime the enumeration is exact.  Out of regime the report carries
    regime_ok=False, and the enumerated result gives way to the profile
    maximum (see _profile_max) and then to one unrefined step-1e-2 pass of
    gridsearch.grid_capacity, each only when higher by more than TIE_TOL.
    """
    hp = hit_probs(params)
    try:
        inter = find_intersections(params)
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
    mu1_solo = single_user_duty(params.a1, params.lambda0, params.tau)
    mu2_solo = single_user_duty(params.a2, params.lambda0, params.tau)
    candidates.append(
        Candidate(
            DutyPair(mu1_solo, 0.0),
            Scenario.ONLY_USER1,
            _mutual_info(hp, mu1_solo, 0.0) / params.tau,
            valid=True,
        )
    )
    candidates.append(
        Candidate(
            DutyPair(0.0, mu2_solo),
            Scenario.ONLY_USER2,
            _mutual_info(hp, 0.0, mu2_solo) / params.tau,
            valid=True,
        )
    )

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

        p = tuple(np.array([x]) for x in (hp.p1, hp.p2, hp.p3, hp.p4))
        h = tuple(np.array([x]) for x in hp.entropies())
        with np.errstate(all="ignore"):
            curves = _curves_many(p, h)

            def profile(mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
                # g is NaN where I does not depend on mu2 (den = 0).
                mu2 = np.clip(np.nan_to_num(curves.g(mu1, _NO_LANES), nan=0.0), 0.0, 1.0)
                return _rate_many(p, h, params.tau, mu1, mu2), mu2

            peak = _profile_max(profile)
        grid = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=0))
        grid_checked = True
        for rate, duty in (peak, (grid.capacity, grid.duty)):
            if rate > capacity + TIE_TOL:
                capacity, optimum, strategy = rate, duty, _strategy_at(duty)

    try:
        sufficiency = sufficiency_tests(params)
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
# arithmetic of its scalar counterpart above, in the same order, so that each
# lane's result is bit for bit the scalar one.  Transcendentals are the one
# catch: numpy's vectorised exp and log differ from the math module's in the
# last bit for a few percent of arguments, and that would move the
# golden-section and bisection decisions and with them the printed digits.
# So exact values call the math module lane by lane, and the searches decide
# on a numpy estimate of g - f unless the estimate is within slack of the
# decision, in which case they use the exact value.

# numpy's exp is within an ulp of math.exp, and the rest of g - f is the same
# IEEE arithmetic, so an estimate differs from the exact value by at most ten
# units of roundoff (2**-53) times 4/min(den) + |slope| + |intercept|, which
# bounds the terms of g - f on [0, 1].  The slack is a hundred times that.
_ESTIMATE_SLACK = 1e-13
_NO_LANES = np.empty(0, dtype=np.intp)


def _lanes(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _entropy_many(q: np.ndarray) -> np.ndarray:
    """binary_entropy lane by lane; nan outside [0, 1]."""
    inside = (q > 0.0) & (q < 1.0)
    q_in = np.where(inside, q, 0.5)
    h = -q_in * _lanes(math.log, q_in) - (1.0 - q_in) * _lanes(math.log1p, -q_in)
    return np.where(inside, h, np.where((q == 0.0) | (q == 1.0), 0.0, np.nan))


class _CurvesMany(NamedTuple):
    """Coefficients of f and g for many channels (see _f_of and _g_of), and
    the slack of each lane's estimate of g - f."""

    slope: np.ndarray
    intercept: np.ndarray
    dp_13: np.ndarray
    dp_24: np.ndarray
    dh_13: np.ndarray
    dh_24: np.ndarray
    p3: np.ndarray
    p4: np.ndarray
    slack: np.ndarray

    def take(self, lanes: np.ndarray) -> "_CurvesMany":
        return _CurvesMany(*(x[lanes] for x in self))

    def g(self, mu1: np.ndarray, exact: np.ndarray | None = None) -> np.ndarray:
        """g at mu1: exact on the lanes indexed by exact (all when None), an
        estimate within slack elsewhere."""
        den = mu1 * self.dp_13 + (1.0 - mu1) * self.dp_24
        expo = np.minimum((mu1 * self.dh_13 + (1.0 - mu1) * self.dh_24) / den, 700.0)
        if exact is None:
            a_m = _lanes(math.exp, expo)
        else:
            a_m = np.exp(expo)
            if exact.size:
                a_m[exact] = _lanes(math.exp, expo[exact])
        return (1.0 / (a_m + 1.0) - (mu1 * self.p3 + (1.0 - mu1) * self.p4)) / den

    def d(self, mu1: np.ndarray, exact: np.ndarray | None = None) -> np.ndarray:
        """g - f at mu1, exact on the same lanes as g."""
        return self.g(mu1, exact) - (self.slope * mu1 + self.intercept)


def _curves_many(p: tuple[np.ndarray, ...], h: tuple[np.ndarray, ...]) -> _CurvesMany:
    p1, p2, p3, p4 = p
    h1, h2, h3, h4 = h
    u, v, w = _line(p, h)
    slope, intercept = u / v, w / v
    den_min = np.minimum(p1 - p3, p2 - p4)
    # A lane whose den can vanish on [0, 1] gets no estimates at all.
    scale = np.where(den_min > 0.0, 4.0 / den_min, np.inf) + np.abs(slope) + np.abs(intercept)
    return _CurvesMany(slope, intercept, p1 - p3, p2 - p4, h1 - h3, h2 - h4, p3, p4, _ESTIMATE_SLACK * scale)


def _rate_many(
    p: tuple[np.ndarray, ...], h: tuple[np.ndarray, ...], tau: np.ndarray, mu1: np.ndarray, mu2: np.ndarray
) -> np.ndarray:
    """_mutual_info / tau lane by lane."""
    w0, w1, w2, w3 = mu1 * mu2, (1.0 - mu1) * mu2, mu1 * (1.0 - mu2), (1.0 - mu1) * (1.0 - mu2)
    ph = w0 * p[0] + w1 * p[1] + w2 * p[2] + w3 * p[3]
    return (_entropy_many(ph) - (w0 * h[0] + w1 * h[1] + w2 * h[2] + w3 * h[3])) / tau


def _solo_duty_many(p_on: np.ndarray, p_off: np.ndarray, h_on: np.ndarray, h_off: np.ndarray) -> np.ndarray:
    """single_user_duty lane by lane, from its hit probabilities and entropies."""
    chord = (h_on - h_off) / (p_on - p_off)
    return (1.0 / (1.0 + _lanes(math.exp, np.minimum(chord, 700.0))) - p_off) / (p_on - p_off)


def _golden_min_many(curves: _CurvesMany, tol: float) -> np.ndarray:
    """_golden_min of g - f on [0, 1] per lane.

    A lane's result is fixed once b - a <= tol; it keeps stepping with the
    others, unused.  From its first comparison that the estimates cannot
    settle, a lane evaluates g - f exactly.
    """
    n = curves.slack.size
    a, b = np.zeros(n), np.ones(n)
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = curves.d(c, _NO_LANES), curves.d(d, _NO_LANES)
    m_star = np.full(n, np.nan)
    exact = np.zeros(n, dtype=bool)
    active = b - a > tol
    while active.any():
        enter = active & ~exact & (np.abs(fc - fd) <= 2.0 * curves.slack)
        if enter.any():
            lanes = np.flatnonzero(enter)
            sub = curves.take(lanes)
            fc[lanes], fd[lanes] = sub.d(c[lanes]), sub.d(d[lanes])
            exact |= enter
        lt = fc < fd
        b = np.where(lt, d, b)
        a = np.where(lt, a, c)
        x = np.where(lt, b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a))
        fx = curves.d(x, np.flatnonzero(exact & active))
        c, fc, d, fd = np.where(lt, x, d), np.where(lt, fx, fd), np.where(lt, c, x), np.where(lt, fc, fx)
        done = active & (b - a <= tol)
        m_star = np.where(done, 0.5 * (a + b), m_star)
        active &= ~done
    return m_star


def _bisect_many(curves: _CurvesMany, lo: np.ndarray, hi: np.ndarray, flo: np.ndarray) -> np.ndarray:
    """_bisect_root of g - f per lane, given its exact value flo at lo."""
    root = np.where(flo == 0.0, lo, np.nan)
    active = flo != 0.0
    sign_lo = flo > 0.0
    for _ in range(120):
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        fm = curves.d(mid, _NO_LANES)
        close = np.flatnonzero(active & (np.abs(fm) <= curves.slack))
        if close.size:
            fm[close] = curves.take(close).d(mid[close])
        # Once the midpoint rounds onto an end the bracket can no longer
        # shrink, and the scalar loop ends (now or after its last step) on
        # that same midpoint.
        stop = active & ((fm == 0.0) | (mid == lo) | (mid == hi))
        root = np.where(stop, mid, root)
        active &= ~stop
        up = (fm > 0.0) == sign_lo
        lo = np.where(active & up, mid, lo)
        hi = np.where(active & ~up, mid, hi)
        narrow = active & (hi - lo <= 1e-16)
        root = np.where(narrow, 0.5 * (lo + hi), root)
        active &= ~narrow
    return np.where(active, 0.5 * (lo + hi), root)


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

    m_star = _golden_min_many(curves, 1e-14)
    d_m, d_0, d_1 = curves.d(m_star), curves.d(zeros), curves.d(ones)
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
    finite = np.isfinite(d_m) & np.isfinite(d_0) & np.isfinite(d_1) & np.isfinite(capacity)
    finite &= np.isfinite(rate0) & np.isfinite(rate1) & np.isfinite(rate_e1) & np.isfinite(rate_e2)
    finite &= (0.0 <= solo1) & (solo1 <= 1.0) & (0.0 <= solo2) & (solo2 <= 1.0)
    return capacity, mu1, mu2, code, finite


def solve_many(
    a1: np.typing.ArrayLike, a2: np.typing.ArrayLike, lambda0: np.typing.ArrayLike, tau: np.typing.ArrayLike
) -> SolveBatch:
    """solve over arrays of channels, with the same results lane by lane.

    Inputs broadcast against each other.  In-regime lanes run the enumeration
    as array operations: one golden-section pass and one masked bisection
    pass for the whole batch.  Lanes out of regime, or whose curve algebra is
    not finite, go through solve() one at a time, which keeps the profile,
    the grid cross-check and the saturated-channel guard in one place.  An invalid
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
