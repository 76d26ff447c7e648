"""
Brute-force baselines the closed-form solvers are checked against.

Nothing here knows about stationarity curves: the capacity oracle is a plain
vectorized grid over the duty square with local refinement, reported together
with an error bound derived from an empirical gradient bound, and the
derivative oracles are central finite differences.  The multi-antenna oracle
exhaustively scans the one-parameter family of joint PMFs that share given
marginals (two antennas per user), which brackets the staircase construction.

The grid maximiser, _grid_max, takes any vectorized objective (the tests
run it on the continuous rate too).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

from ._numpy import np
from .channel import ChannelParams, DutyPair, HitProbs, _grad_terms, _weights, hit_probs, mutual_info
from .miso import MisoConfig, _entropy_arr, subset_rates
from .siso import TOP_CELLS

__all__ = [
    "GridSpec",
    "GridResult",
    "grid_capacity",
    "fd_gradient",
    "fd_hessian",
    "miso_pmf_enumeration",
]

SAFETY_FACTOR = 1.5


@dataclass(frozen=True)
class GridSpec:
    """Initial step and number of tenfold local refinements."""

    step: float = 1e-2
    refine_rounds: int = 3

    def __post_init__(self) -> None:
        if not 0.0 < self.step <= 0.1:
            raise ValueError(f"step must lie in (0, 0.1], got {self.step}")
        if not 0 <= self.refine_rounds <= 6:
            raise ValueError(f"refine_rounds must lie in [0, 6], got {self.refine_rounds}")

    @property
    def final_step(self) -> float:
        return self.step / 10.0**self.refine_rounds


@dataclass(frozen=True)
class GridResult:
    """Best grid value with its resolution-derived error bound.

    error_bound = gradient_bound * final_step, where gradient_bound is the
    largest gradient norm seen on the coarse grid inflated by a safety factor.
    The true capacity lies in [capacity, capacity + error_bound].  The
    gradient bound costs a second full pass, so it is computed on first read:
    a caller that reads only capacity and duty never pays for it.
    """

    capacity: float
    duty: DutyPair
    params: ChannelParams
    spec: GridSpec

    @property
    def final_step(self) -> float:
        return self.spec.final_step

    @cached_property
    def gradient_bound(self) -> float:
        """SAFETY_FACTOR times the largest gradient norm on the coarse grid."""
        hp, tau = hit_probs(self.params), self.params.tau
        g = _axis(0.0, 1.0, self.spec.step)
        return SAFETY_FACTOR * float(np.max(_grad_norm_grid(hp, tau, g[:, None], g[None, :])))

    @property
    def error_bound(self) -> float:
        return self.gradient_bound * self.final_step


def _rate_grid(hp: HitProbs, tau: float, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Vectorized I/tau over broadcastable duty arrays, with _entropy_arr's 0
    outside (0, 1) where the profile and the batch give NaN: on saturated
    channels (ChannelParams(1, 0.1, 10, 5)) the slot probability rounds an ulp
    above 1, and a NaN cell would win _grid_max's argmax."""
    h1, h2, h3, h4 = hp.entropies
    w = _weights(m1, m2)
    ph = w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4
    mix = w[0] * h1 + w[1] * h2 + w[2] * h3 + w[3] * h4
    return (_entropy_arr(ph) - mix) / tau


def _grad_norm_grid(hp: HitProbs, tau: float, m1: np.ndarray, m2: np.ndarray) -> np.ndarray:
    """Vectorized gradient norm of I/tau; boundary-safe log-odds."""
    c1, c2, e1, e2, ph = _grad_terms(hp, m1, m2)
    # Clamped: saturated cells would send the log-odds to -inf; the estimate
    # only has to stay an upper bound on the slopes actually seen.
    ph = np.clip(ph, 1e-15, 1.0 - 1e-15)
    lo = np.log1p(-ph) - np.log(ph)
    return np.hypot(c1 * lo - e1, c2 * lo - e2) / tau


def _axis(lo: float, hi: float, step: float) -> np.ndarray:
    lo, hi = max(lo, 0.0), min(hi, 1.0)
    n = max(1, int(round((hi - lo) / step)))
    return np.linspace(lo, hi, n + 1)


def _local_peaks(values: np.ndarray, g: np.ndarray, sep: float, count: int) -> list[tuple[float, float, float]]:
    """count high cells of values on the grid g x g, as (value, mu1, mu2).

    Each pick is the first highest cell at least sep away (in the larger of
    the two coordinate distances) from every earlier pick; sep must leave
    room for count picks.  values is overwritten: the cells too close to a
    pick other than the last are set to -inf.
    """
    picked: list[tuple[float, float, float]] = []
    for k in range(count):
        i, j = np.unravel_index(np.argmax(values), values.shape)
        picked.append((float(values[i, j]), float(g[i]), float(g[j])))
        if k < count - 1:
            values[np.ix_(np.abs(g - g[i]) < sep, np.abs(g - g[j]) < sep)] = -np.inf
    return picked


def _grid_max(
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: GridSpec
) -> tuple[float, DutyPair]:
    """Largest rate(mu1, mu2) on the duty square, by grid search with refinement.

    rate is vectorized and gets broadcast axes, a column of mu1 against a row
    of mu2.  The full pass at spec.step is one call, and keeps TOP_CELLS
    separated incumbents (only the best cell when there is nothing to
    refine), so close rival maxima cannot shake the search off the global
    one.  Each of the spec.refine_rounds rounds scans 1.5 old steps around
    every incumbent at a tenth of the step, and an incumbent moves only to a
    strictly better cell.  Of equal final values the earliest incumbent wins.
    """
    g = _axis(0.0, 1.0, spec.step)
    values = rate(g[:, None], g[None, :])
    count = TOP_CELLS if spec.refine_rounds else 1
    incumbents = _local_peaks(values, g, 3.0 * spec.step, count)
    step = spec.step
    for _ in range(spec.refine_rounds):
        for k, (best, mu1, mu2) in enumerate(incumbents):
            a1 = _axis(mu1 - 1.5 * step, mu1 + 1.5 * step, step / 10.0)
            a2 = _axis(mu2 - 1.5 * step, mu2 + 1.5 * step, step / 10.0)
            local = rate(a1[:, None], a2[None, :])
            i, j = np.unravel_index(np.argmax(local), local.shape)
            if local[i, j] > best:
                incumbents[k] = (float(local[i, j]), float(a1[i]), float(a2[j]))
        step /= 10.0
    best, mu1, mu2 = max(incumbents, key=lambda c: c[0])
    return best, DutyPair(mu1, mu2)


def grid_capacity(params: ChannelParams, spec: GridSpec = GridSpec()) -> GridResult:
    """Best I/tau over a refined grid on the duty square (see _grid_max), with
    its error bound from the largest gradient norm on the coarse grid."""
    hp, tau = hit_probs(params), params.tau
    capacity, duty = _grid_max(lambda m1, m2: _rate_grid(hp, tau, m1, m2), spec)
    return GridResult(capacity, duty, params, spec)


def fd_gradient(
    params: ChannelParams, duty: DutyPair, h: float = 1e-6
) -> tuple[float, float]:
    """Central-difference gradient of the per-slot mutual information."""
    mu1, mu2 = duty.mu1, duty.mu2
    if min(mu1, mu2, 1.0 - mu1, 1.0 - mu2) < h:
        raise ValueError(f"duty must be at least {h} away from the boundary")
    d1 = mutual_info(params, DutyPair(mu1 + h, mu2)) - mutual_info(
        params, DutyPair(mu1 - h, mu2)
    )
    d2 = mutual_info(params, DutyPair(mu1, mu2 + h)) - mutual_info(
        params, DutyPair(mu1, mu2 - h)
    )
    return (d1 / (2.0 * h), d2 / (2.0 * h))


def fd_hessian(
    params: ChannelParams, duty: DutyPair, h: float = 1e-4
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Central-difference Hessian of the per-slot mutual information."""
    mu1, mu2 = duty.mu1, duty.mu2
    if min(mu1, mu2, 1.0 - mu1, 1.0 - mu2) < h:
        raise ValueError(f"duty must be at least {h} away from the boundary")

    def f(x: float, y: float) -> float:
        return mutual_info(params, DutyPair(x, y))

    f00 = f(mu1, mu2)
    h11 = (f(mu1 + h, mu2) - 2.0 * f00 + f(mu1 - h, mu2)) / (h * h)
    h22 = (f(mu1, mu2 + h) - 2.0 * f00 + f(mu1, mu2 - h)) / (h * h)
    h12 = (
        f(mu1 + h, mu2 + h)
        - f(mu1 + h, mu2 - h)
        - f(mu1 - h, mu2 + h)
        + f(mu1 - h, mu2 - h)
    ) / (4.0 * h * h)
    return ((h11, h12), (h12, h22))


def _marginal_family(duties: list[float], step: float) -> np.ndarray:
    """All joint PMFs of one user with the given marginals, rows = PMFs.

    One antenna pins the PMF; with two, the both-on mass t is free on
    [max(0, mu_a + mu_b - 1), min(mu_a, mu_b)] and is scanned at the step.
    """
    if len(duties) == 1:
        mu = duties[0]
        return np.array([[1.0 - mu, mu]])
    mu_a, mu_b = duties
    lo = max(0.0, mu_a + mu_b - 1.0)
    hi = min(mu_a, mu_b)
    n = max(1, int(math.ceil((hi - lo) / step))) if hi > lo else 0
    t = np.linspace(lo, hi, n + 1)
    return np.column_stack([1.0 - mu_a - mu_b + t, mu_a - t, mu_b - t, t])


def miso_pmf_enumeration(
    config: MisoConfig,
    duties_user1: list[float],
    duties_user2: list[float],
    step: float = 1e-3,
) -> float:
    """Best joint mutual information over every PMF pair with the given marginals.

    Supports one or two antennas per user, where the feasible set given
    marginals is at most one-dimensional per user.
    """
    if len(config.peaks_user1) > 2 or len(config.peaks_user2) > 2:
        raise ValueError("enumeration supports at most two antennas per user")
    if len(duties_user1) != len(config.peaks_user1) or len(duties_user2) != len(
        config.peaks_user2
    ):
        raise ValueError("one duty per antenna is required")
    q1 = _marginal_family(duties_user1, step)
    q2 = _marginal_family(duties_user2, step)
    rates = (
        subset_rates(config.peaks_user1)[:, None]
        + subset_rates(config.peaks_user2)[None, :]
        + config.lambda0
    )
    hits = -np.expm1(-rates * config.tau)
    ph = q1 @ hits @ q2.T
    mix = q1 @ _entropy_arr(hits) @ q2.T
    return float(np.max(_entropy_arr(ph) - mix))
