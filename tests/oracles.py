"""Oracles of the tests that no command runs: the dense 1-D profile maximiser.

At every tau and mu1, the slot hit probability and the entropy mixture are
affine in mu2, so I(mu1, .) is concave and peaks at clip(g(mu1), 0, 1): the
capacity is the maximum over mu1 of that profile.  profile_of builds it from
the batch's g and channel._rate on numpy's exp, log and log1p, and
profile_max_many maximises lanes of profiles at once.  siso.solve enumerates
instead (a scan of g - f and the four edges of the box); the tests hold it to
this maximum, and the continuous enumeration to the same maximiser run on the
continuous profile.
"""

from typing import Callable

import numpy as np

from poisson_mac.channel import DutyPair, HitProbs, _rate
from poisson_mac.siso import TOP_CELLS, _curves_many, _entropy_many


def profile_of(hp: HitProbs, tau: float) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """mu1 -> (I/tau at (mu1, mu2), mu2) with mu2 = clip(g(mu1), 0, 1), over an array:
    the batch's g and channel._rate on numpy's exp and logs.  The coefficients are numpy doubles, so a
    line's v of 0, which g never reads, gives inf or NaN under the caller's errstate, not an error."""
    p, h = tuple(np.array((hp.p1, hp.p2, hp.p3, hp.p4))), tuple(np.array(hp.entropies))
    curves = _curves_many(p, h)

    def profile(mu1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mu2 = np.fmin(np.fmax(curves.g(mu1, np), 0.0), 1.0)  # 0 where g is NaN: den = 0, and I is flat in mu2
        return _rate(p, h, mu1, mu2, lambda q: _entropy_many(q, np)) / tau, mu2

    return profile


def profile_max_many(profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]], lanes: int) -> tuple:
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


def profile_max(profile: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]) -> tuple[float, DutyPair]:
    """profile_max_many on one lane; ArithmeticError if no rate is finite."""
    (finite,), (rate,), (mu1,), (mu2,) = (v.tolist() for v in profile_max_many(profile, 1))
    if not finite:
        raise ArithmeticError("the profile has no finite rate")
    return rate, DutyPair(mu1, mu2)
