"""
Multi-antenna users: joint on/off distributions and the reduction to one
antenna per user.

With J antennas per user the per-slot input is a subset of antennas switched
on, so each user carries a PMF over 2^J subsets constrained to given
per-antenna duty cycles.  Two structural facts collapse the problem:

* For fixed duty cycles the best joint PMF is the staircase distribution
  whose support is the nested chain of subsets obtained by switching antennas
  on in order of decreasing duty cycle; its masses are the consecutive duty
  differences.  (Whenever a lower-duty antenna is on, every higher-duty one is
  on too.)
* Across duty cycles, the optimum gives every antenna of a user the same
  duty, making the staircase a two-point all-on/all-off PMF.  The receiver
  then sees a single antenna at the summed peak rate, so the capacity equals
  the one-antenna-per-user capacity at peaks (sum A_1j, sum A_2j).

Both hold when tau <= ln2 / (total peak + lambda0).  The solver below applies
the reduction; the staircase construction and the joint objective are exposed
for direct evaluation and for oracle-style verification.  The oracle,
miso_pmf_enumeration, scans every joint PMF with given marginals (at most two
antennas per user), which brackets the staircase construction; it and
miso_mutual_info rate PMF pairs through one kernel, _joint_terms.
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
    "NuPmf",
    "MisoReport",
    "nu_pmf",
    "subset_rates",
    "miso_mutual_info",
    "miso_pmf_enumeration",
    "solve_miso",
]

PMF_TOL = 1e-9
MAX_ANTENNAS = 16


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
        for name, peaks in (("peaks_user1", peaks_user1), ("peaks_user2", peaks_user2)):
            if len(peaks) == 0:
                raise ValueError(f"{name} must list at least one antenna")
            if len(peaks) > MAX_ANTENNAS:
                raise ValueError(f"{name} supports at most {MAX_ANTENNAS} antennas")
            if any(a <= 0.0 for a in peaks):
                raise ValueError(f"every peak in {name} must be positive")
            if not all(math.isfinite(a) for a in peaks):
                raise ValueError(f"every peak in {name} must be finite")
        self = tuple.__new__(cls, (peaks_user1, peaks_user2, lambda0, tau))
        _require_positive(self, ("lambda0", "tau"))
        return self

    @property
    def total_peak(self) -> float:
        return sum(self.peaks_user1) + sum(self.peaks_user2)

    @property
    def in_regime(self) -> bool:
        return self.tau <= math.log(2.0) / (self.total_peak + self.lambda0)

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


class NuPmf(NamedTuple):
    """Staircase PMF: nested on-sets in decreasing-duty order.

    order lists antenna indices by descending duty (ties by index); support
    holds the cumulative subset indices, starting with the empty set; masses
    are the consecutive duty differences and sum to one.
    """

    order: tuple[int, ...]
    support: tuple[int, ...]
    masses: tuple[float, ...]

    def to_joint(self) -> JointPmf:
        dense = [0.0] * (1 << len(self.order))
        for idx, m in zip(self.support, self.masses):
            dense[idx] += m
        return JointPmf(masses=tuple(dense))


def _unit_duties(duties: Sequence[float]) -> list[float]:
    """duties as a list, or ValueError if one lies outside [0, 1] (or is NaN)."""
    duties = list(duties)
    if any(not 0.0 <= d <= 1.0 for d in duties):
        raise ValueError(f"duties must lie in [0, 1], got {duties}")
    return duties


def nu_pmf(duties: Sequence[float]) -> NuPmf:
    """Best joint PMF for the given per-antenna duty cycles.

    Antennas switch on in order of decreasing duty, so the support is the
    nested chain empty set, {first}, {first, second}, ...; mass of each prefix
    is the duty gap it spans.  Ties are broken by ascending antenna index.
    """
    duties = _unit_duties(duties)
    order = sorted(range(len(duties)), key=lambda j: (-duties[j], j))
    support = [0]
    masses = [1.0 - (duties[order[0]] if order else 0.0)]
    idx = 0
    for k, j in enumerate(order):
        idx |= 1 << j
        nxt = duties[order[k + 1]] if k + 1 < len(order) else 0.0
        support.append(idx)
        masses.append(duties[j] - nxt)
    return NuPmf(order=tuple(order), support=tuple(support), masses=tuple(masses))


def subset_rates(peaks: Sequence[float]) -> np.ndarray:
    """Summed peak rate of every antenna subset, indexed by on-set bitmask."""
    peaks = list(peaks)
    out = np.zeros(1 << len(peaks))
    for i in range(len(out)):
        out[i] = sum(peaks[j] for j in range(len(peaks)) if i >> j & 1)
    return out


def _dense_masses(q: JointPmf | NuPmf, n_antennas: int) -> np.ndarray:
    """The masses of q as a one-row matrix."""
    if isinstance(q, NuPmf):
        q = q.to_joint()
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


def miso_mutual_info(config: MisoConfig, q1: JointPmf | NuPmf, q2: JointPmf | NuPmf) -> float:
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


class MisoReport(NamedTuple):
    """Reduction outcome: the equivalent one-antenna solve plus the expansion."""

    capacity: float
    duty_user1: float
    duty_user2: float
    pmf_user1: NuPmf
    pmf_user2: NuPmf
    siso: SolveReport
    regime_ok: bool


def solve_miso(config: MisoConfig) -> MisoReport:
    """Capacity of the multi-antenna channel via the summed-peak reduction.

    All antennas of a user share the optimal duty cycle and switch together,
    so each user's PMF is the two-point all-on/all-off staircase and the
    capacity equals the one-antenna solve at the summed peaks.  Out of regime
    the equivalence is not guaranteed and the report is flagged.
    """
    siso_report = solve(config.as_siso())
    mu1, mu2 = siso_report.optimum
    pmfs = nu_pmf([mu1] * len(config.peaks_user1)), nu_pmf([mu2] * len(config.peaks_user2))
    return MisoReport(siso_report.capacity, mu1, mu2, *pmfs, siso_report, config.in_regime)
