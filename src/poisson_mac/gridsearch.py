"""
Brute-force baselines the closed-form solvers are checked against.

Nothing here knows about stationarity curves: the capacity oracle is a plain
vectorized grid over the duty square with local refinement, reported together
with an error bound derived from an empirical gradient bound, and the
derivative oracles are central finite differences.

The grid maximiser, _grid_max, takes any vectorized objective (the tests
run it on the continuous rate too).  The grid rates its cells with
channel._weighted_rate, its full pass on duty weights that _lattice builds
once per step, and takes entropies from siso._entropy_many on numpy's logs,
so a cell whose slot probability rounds outside [0, 1] is NaN, which never
wins a maximum.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, NamedTuple

from ._numpy import np
from .channel import ChannelParams, DutyPair, HitProbs, _grad_terms, _weighted_rate, _weights, hit_probs, mutual_info
from .siso import _entropy_many

__all__ = [
    "GridSpec",
    "GridResult",
    "grid_capacity",
    "fd_gradient",
    "fd_hessian",
]

SAFETY_FACTOR = 1.5
TOP_CELLS = 5  # incumbents _grid_max refines
FD_GRADIENT_STEP = 1e-6  # fd_gradient's central-difference step
FD_HESSIAN_STEP = 1e-4  # fd_hessian's


class _GridFields(NamedTuple):
    step: float
    refine_rounds: int


class GridSpec(_GridFields):
    """Initial step and number of tenfold local refinements."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace and _make check too

    def __new__(cls, step: float = 1e-2, refine_rounds: int = 3) -> GridSpec:
        if not 0.0 < step <= 0.1:
            raise ValueError(f"step must lie in (0, 0.1], got {step}")
        if not isinstance(refine_rounds, int):
            raise ValueError(f"refine_rounds must be an integer, got {refine_rounds}")
        if not 0 <= refine_rounds <= 6:
            raise ValueError(f"refine_rounds must lie in [0, 6], got {refine_rounds}")
        return tuple.__new__(cls, (step, refine_rounds))

    @property
    def final_step(self) -> float:
        return self.step / 10.0**self.refine_rounds


class GridResult(NamedTuple):
    """Best grid value with its resolution-derived error bound.

    error_bound = gradient_bound * spec.final_step, where gradient_bound is
    the largest gradient norm seen on the coarse grid inflated by a safety
    factor.  The true capacity lies in [capacity, capacity + error_bound].
    The gradient bound costs a second full pass on each read, so a caller
    that reads only capacity and duty never pays for it.
    """

    capacity: float
    duty: DutyPair
    params: ChannelParams
    spec: GridSpec

    @property
    def gradient_bound(self) -> float:
        """SAFETY_FACTOR times the largest gradient norm on the coarse grid."""
        hp, tau = hit_probs(self.params), self.params.tau
        g = _axis(0.0, 1.0, self.spec.step)
        return SAFETY_FACTOR * float(np.max(_grad_norm_grid(hp, tau, g[:, None], g[None, :])))

    @property
    def error_bound(self) -> float:
        return self.gradient_bound * self.spec.final_step


def _rate_grid(hp: HitProbs, tau: float, m1: np.ndarray, m2: np.ndarray, w: tuple | None = None) -> np.ndarray:
    """I/tau over broadcastable duty arrays, at their _weights w if given, on
    numpy's logs: NaN where the slot probability rounds outside [0, 1] (on
    saturated channels, ChannelParams(1, 0.1, 10, 5), it rounds an ulp above 1)."""
    w = _weights(m1, m2) if w is None else w
    return _weighted_rate(hp, hp.entropies, w, lambda q: _entropy_many(q, np)) / tau


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


@lru_cache(maxsize=1)
def _lattice(step: float) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The full pass's axis at step and the _weights of its column and row, read-only."""
    g = _axis(0.0, 1.0, step)
    w = _weights(g[:, None], g[None, :])
    for a in (g, *w):
        a.flags.writeable = False
    return g, w


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
    rate: Callable[[np.ndarray, np.ndarray], np.ndarray], spec: GridSpec, values: np.ndarray | None = None
) -> tuple[float, DutyPair]:
    """Largest rate(mu1, mu2) on the duty square, by grid search with refinement.

    rate is vectorized and gets broadcast axes, a column of mu1 against a row
    of mu2; a NaN cell never wins.  The full pass at spec.step is one call,
    and keeps TOP_CELLS separated incumbents (only the best cell when there
    is nothing to refine), so close rival maxima cannot shake the search off
    the global one; values, if given, is its result.  Each of the
    spec.refine_rounds rounds scans 1.5 old steps around every incumbent at a
    tenth of the step, and an incumbent moves only to a strictly better cell.
    Of equal final values the earliest incumbent wins.
    """
    g = _axis(0.0, 1.0, spec.step)
    values = np.fmax(rate(g[:, None], g[None, :]) if values is None else values, -np.inf)
    count = TOP_CELLS if spec.refine_rounds else 1
    incumbents = _local_peaks(values, g, 3.0 * spec.step, count)
    step = spec.step
    for _ in range(spec.refine_rounds):
        for k, (best, mu1, mu2) in enumerate(incumbents):
            a1 = _axis(mu1 - 1.5 * step, mu1 + 1.5 * step, step / 10.0)
            a2 = _axis(mu2 - 1.5 * step, mu2 + 1.5 * step, step / 10.0)
            local = np.fmax(rate(a1[:, None], a2[None, :]), -np.inf)
            i, j = np.unravel_index(np.argmax(local), local.shape)
            if local[i, j] > best:
                incumbents[k] = (float(local[i, j]), float(a1[i]), float(a2[j]))
        step /= 10.0
    best, mu1, mu2 = max(incumbents, key=lambda c: c[0])
    return best, DutyPair(mu1, mu2)


def grid_capacity(params: ChannelParams, spec: GridSpec = GridSpec()) -> GridResult:
    """Best I/tau over a refined grid on the duty square (see _grid_max), with
    its error bound from the largest gradient norm on the coarse grid."""
    g, w = _lattice(spec.step)
    rate = partial(_rate_grid, hit_probs(params), params.tau)
    capacity, duty = _grid_max(rate, spec, rate(g[:, None], g[None, :], w))
    return GridResult(capacity, duty, params, spec)


def fd_gradient(params: ChannelParams, duty: DutyPair) -> tuple[float, float]:
    """Central-difference gradient of the per-slot mutual information, at step FD_GRADIENT_STEP."""
    mu1, mu2, h = duty.mu1, duty.mu2, FD_GRADIENT_STEP
    if min(mu1, mu2, 1.0 - mu1, 1.0 - mu2) < h:
        raise ValueError(f"duty must be at least {h} away from the boundary")
    d1 = mutual_info(params, DutyPair(mu1 + h, mu2)) - mutual_info(
        params, DutyPair(mu1 - h, mu2)
    )
    d2 = mutual_info(params, DutyPair(mu1, mu2 + h)) - mutual_info(
        params, DutyPair(mu1, mu2 - h)
    )
    return (d1 / (2.0 * h), d2 / (2.0 * h))


def fd_hessian(params: ChannelParams, duty: DutyPair) -> tuple[tuple[float, float], tuple[float, float]]:
    """Central-difference Hessian of the per-slot mutual information, at step FD_HESSIAN_STEP."""
    mu1, mu2, h = duty.mu1, duty.mu2, FD_HESSIAN_STEP
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
