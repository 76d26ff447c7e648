"""
Multi-antenna users: joint on/off distributions and the reduction to one
antenna per user.

With J antennas per user the per-slot input is the subset S of antennas
switched on, so each user carries a PMF over 2^J subsets.  The sum-rate
capacity is the one-antenna-per-user capacity at the summed peaks
(sum A_1j, sum A_2j), at every dead time, by the chord (Jensen) argument of
Cover & Thomas, Elements of Information Theory, 2nd ed., section 2.6.  Fix
user 2's PMF nu2.  A slot is empty with probability q0 E_nu1[q_S] E_nu2[q_T],
where q_S = exp(-A_S tau) and q0 = exp(-lambda0 tau), so h(p_hat) depends on
user 1's PMF nu1 only through m = E_nu1[q_S].  The rest of I is
-E_nu1[phi(q_S)], where phi(q) = E_nu2[h(1 - q0 q q_T)] is concave: h is, and
its argument is affine in q.  On [q_all, 1] a concave phi lies above its
chord, so the all-on/all-off PMF with mean m keeps h(p_hat) and has the least
E[phi]: collapsing nu1 to it never lowers I.  Doing the same for user 2
leaves the one-antenna channel at the summed peaks.

The argument does not use the paper's condition tau <= ln2 / (total peak +
lambda0), under which siso's curve search relies on g - f being unimodal
(measured, not proved); solve_miso reports it as regime_ok.  For given
per-antenna duties the best PMF is the staircase (nu_pmf), on the chain of
on-sets that switch antennas on in order of decreasing duty, with the duty
gaps as masses.  miso_mutual_info rates any PMF pair, and the oracle
miso_pmf_enumeration every PMF pair with given marginals (at most two
antennas per user), both through one kernel, _joint_terms.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from ._numpy import np
from .channel import ChannelParams, _require_positive, binary_entropy
from .siso import SolveReport, _entropy_many, solve

__all__ = [
    "MisoConfig",
    "JointPmf",
    "nu_pmf",
    "subset_rates",
    "miso_mutual_info",
    "miso_pmf_enumeration",
    "solve_miso",
]

PMF_TOL = 1e-9
MAX_ANTENNAS = 16


def _require_peaks(name: str, peaks: Sequence[float], text: object) -> None:
    """The one check of a user's peaks, for MisoConfig and the command line: 1 to MAX_ANTENNAS,
    each finite and positive, and a finite sum (the user's a1 or a2); messages quote text."""
    if len(peaks) == 0:
        raise ValueError(f"{name} must list at least one antenna")
    if len(peaks) > MAX_ANTENNAS:
        raise ValueError(f"{name} supports at most {MAX_ANTENNAS} antennas, got {text}")
    _require_positive(name, peaks, text)
    if not math.isfinite(sum(peaks)):
        raise ValueError(f"the sum of {name} must be finite, got {text}")


class _MisoFields(NamedTuple):
    peaks_user1: tuple[float, ...]
    peaks_user2: tuple[float, ...]
    lambda0: float
    tau: float


class MisoConfig(_MisoFields):
    """Per-antenna peak rates for both users plus background and dead time."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, peaks_user1: tuple, peaks_user2: tuple, lambda0: float, tau: float) -> MisoConfig:
        _require_peaks("peaks_user1", peaks_user1, peaks_user1)
        _require_peaks("peaks_user2", peaks_user2, peaks_user2)
        _require_positive(("lambda0", "tau"), (lambda0, tau))
        return tuple.__new__(cls, (peaks_user1, peaks_user2, lambda0, tau))

    @property
    def in_regime(self) -> bool:
        """Whether the summed-peak channel is in regime (ChannelParams.in_regime)."""
        return self.as_siso().in_regime

    def as_siso(self) -> ChannelParams:
        """The equivalent one-antenna-per-user channel at the summed peaks."""
        return ChannelParams(sum(self.peaks_user1), sum(self.peaks_user2), self.lambda0, self.tau)


class _JointFields(NamedTuple):
    masses: tuple[float, ...]


class JointPmf(_JointFields):
    """PMF over antenna subsets of one user; index bit j set means antenna j on."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, masses: tuple[float, ...]) -> JointPmf:
        n = len(masses)
        if n == 0 or n & (n - 1):
            raise ValueError(f"masses length must be a power of two, got {n}")
        if not all(math.isfinite(m) for m in masses):
            raise ValueError(f"PMF masses must be finite, got {masses}")
        if any(m < -PMF_TOL for m in masses):
            raise ValueError("PMF masses must be nonnegative")
        if abs(sum(masses) - 1.0) > PMF_TOL:
            raise ValueError(f"PMF masses must sum to 1, got {sum(masses)}")
        return tuple.__new__(cls, (masses,))

    @property
    def n_antennas(self) -> int:
        return len(self.masses).bit_length() - 1

    def marginal(self, j: int) -> float:
        """On-probability of antenna j."""
        return sum(m for i, m in enumerate(self.masses) if i >> j & 1)


def _unit_duties(duties: Sequence[float]) -> list[float]:
    """duties as a list, or ValueError if one lies outside [0, 1] (or is NaN)."""
    duties = list(duties)
    if any(not 0.0 <= d <= 1.0 for d in duties):
        raise ValueError(f"duties must lie in [0, 1], got {duties}")
    return duties


def nu_pmf(duties: Sequence[float]) -> JointPmf:
    """Best joint PMF for the given per-antenna duty cycles: the staircase.

    Antennas switch on in order of decreasing duty, so the support is the
    nested chain empty set, {first}, {first, second}, ...; the mass of each
    on-set is the duty gap it spans.  Tied duties span a gap of 0, so the
    order among them does not change the PMF.
    """
    duties = _unit_duties(duties)
    masses = [0.0] * (1 << len(duties))
    idx, prev = 0, 1.0
    for j in sorted(range(len(duties)), key=lambda j: -duties[j]):
        masses[idx] += prev - duties[j]
        idx |= 1 << j
        prev = duties[j]
    masses[idx] += prev
    return JointPmf(tuple(masses))


def subset_rates(peaks: Sequence[float]) -> np.ndarray:
    """Summed peak rate of every antenna subset, indexed by on-set bitmask."""
    peaks = list(peaks)
    out = np.zeros(1 << len(peaks))
    for i in range(len(out)):
        out[i] = sum(peaks[j] for j in range(len(peaks)) if i >> j & 1)
    return out


def _dense_masses(q: JointPmf, n_antennas: int) -> np.ndarray:
    """The masses of q as a one-row matrix."""
    if q.n_antennas != n_antennas:
        raise ValueError(f"PMF covers {q.n_antennas} antennas, config has {n_antennas}")
    return np.array([q.masses])


def _joint_terms(config: MisoConfig, q1_rows: np.ndarray, q2_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Slot hit probability q1 @ hits @ q2.T and entropy mixture q1 @ H @ q2.T of every
    pair of joint PMFs, one per row of q1_rows and q2_rows: hits holds the hit level of
    every pair of on-sets, H their entropies from siso's batch kernel on numpy's logs."""
    rates = subset_rates(config.peaks_user1)[:, None] + subset_rates(config.peaks_user2)[None, :] + config.lambda0
    hits = -np.expm1(-rates * config.tau)
    return q1_rows @ hits @ q2_rows.T, q1_rows @ _entropy_many(hits, np) @ q2_rows.T


def miso_mutual_info(config: MisoConfig, q1: JointPmf, q2: JointPmf) -> float:
    """Per-slot mutual information for arbitrary joint on/off PMFs of both users."""
    ph, mix = _joint_terms(
        config, _dense_masses(q1, len(config.peaks_user1)), _dense_masses(q2, len(config.peaks_user2))
    )
    return binary_entropy(float(ph[0, 0])) - float(mix[0, 0])


def _marginal_family(duties: Sequence[float], step: float) -> np.ndarray:
    """All joint PMFs of one user with the given marginals, rows = PMFs.

    One antenna pins the PMF; with two, the both-on mass t is free on
    [max(0, mu_a + mu_b - 1), min(mu_a, mu_b)] and is scanned at the step.
    """
    duties = _unit_duties(duties)
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
    config: MisoConfig, duties_user1: Sequence[float], duties_user2: Sequence[float], step: float = 1e-3
) -> float:
    """Best joint mutual information over every PMF pair with the given marginals.

    Supports one or two antennas per user, where the feasible set given
    marginals is at most one-dimensional per user; step in (0, 1] is the
    scan's step of the both-on mass.
    """
    if len(config.peaks_user1) > 2 or len(config.peaks_user2) > 2:
        raise ValueError("enumeration supports at most two antennas per user")
    if (len(duties_user1), len(duties_user2)) != (len(config.peaks_user1), len(config.peaks_user2)):
        raise ValueError("one duty per antenna is required")
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must lie in (0, 1], got {step}")
    ph, mix = _joint_terms(config, _marginal_family(duties_user1, step), _marginal_family(duties_user2, step))
    return float(np.max(np.fmax(_entropy_many(ph, np) - mix, -np.inf)))  # a NaN cell never wins


def solve_miso(config: MisoConfig) -> SolveReport:
    """Capacity of the multi-antenna channel: the solve at the summed peaks.

    Collapsing each user's joint PMF to all-on/all-off with the same mean
    no-hit factor never lowers the rate, at any dead time (the chord argument
    of the module docstring), so the antennas of a user switch together.  The
    report's regime_ok is config.in_regime, the paper's condition.
    """
    return solve(config.as_siso())
