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
for direct evaluation and for oracle-style verification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import ChannelParams, _require_finite, binary_entropy
from .siso import SolveReport, solve

__all__ = [
    "MisoConfig",
    "JointPmf",
    "NuPmf",
    "MisoReport",
    "nu_pmf",
    "subset_rates",
    "miso_mutual_info",
    "solve_miso",
]

PMF_TOL = 1e-9
MAX_ANTENNAS = 16


@dataclass(frozen=True)
class MisoConfig:
    """Per-antenna peak rates for both users plus background and dead time."""

    peaks_user1: tuple[float, ...]
    peaks_user2: tuple[float, ...]
    lambda0: float
    tau: float

    def __post_init__(self) -> None:
        for name, peaks in (("peaks_user1", self.peaks_user1), ("peaks_user2", self.peaks_user2)):
            if len(peaks) == 0:
                raise ValueError(f"{name} must list at least one antenna")
            if len(peaks) > MAX_ANTENNAS:
                raise ValueError(f"{name} supports at most {MAX_ANTENNAS} antennas")
            if any(a <= 0.0 for a in peaks):
                raise ValueError(f"every peak in {name} must be positive")
            if not all(math.isfinite(a) for a in peaks):
                raise ValueError(f"every peak in {name} must be finite")
        _require_finite(self, ("lambda0", "tau"))
        if not self.lambda0 > 0.0:
            raise ValueError(f"lambda0 must be positive, got {self.lambda0}")
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def total_peak(self) -> float:
        return sum(self.peaks_user1) + sum(self.peaks_user2)

    @property
    def in_regime(self) -> bool:
        return self.tau <= math.log(2.0) / (self.total_peak + self.lambda0)

    def as_siso(self) -> ChannelParams:
        """The equivalent one-antenna-per-user channel at the summed peaks."""
        return ChannelParams(
            sum(self.peaks_user1), sum(self.peaks_user2), self.lambda0, self.tau
        )


@dataclass(frozen=True)
class JointPmf:
    """PMF over antenna subsets of one user; index bit j set means antenna j on."""

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.masses)
        if n == 0 or n & (n - 1):
            raise ValueError(f"masses length must be a power of two, got {n}")
        if any(m < -PMF_TOL for m in self.masses):
            raise ValueError("PMF masses must be nonnegative")
        if abs(sum(self.masses) - 1.0) > PMF_TOL:
            raise ValueError(f"PMF masses must sum to 1, got {sum(self.masses)}")

    @property
    def n_antennas(self) -> int:
        return len(self.masses).bit_length() - 1

    def marginal(self, j: int) -> float:
        """On-probability of antenna j."""
        return sum(m for i, m in enumerate(self.masses) if i >> j & 1)


@dataclass(frozen=True)
class NuPmf:
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


def nu_pmf(duties: Sequence[float]) -> NuPmf:
    """Best joint PMF for the given per-antenna duty cycles.

    Antennas switch on in order of decreasing duty, so the support is the
    nested chain empty set, {first}, {first, second}, ...; mass of each prefix
    is the duty gap it spans.  Ties are broken by ascending antenna index.
    """
    duties = list(duties)
    if any(not 0.0 <= d <= 1.0 for d in duties):
        raise ValueError(f"duties must lie in [0, 1], got {duties}")
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


def _entropy_arr(q: np.ndarray) -> np.ndarray:
    out = np.zeros_like(q)
    inside = (q > 0.0) & (q < 1.0)
    qi = q[inside]
    out[inside] = -qi * np.log(qi) - (1.0 - qi) * np.log1p(-qi)
    return out


def _dense_masses(q: JointPmf | NuPmf, n_antennas: int) -> np.ndarray:
    if isinstance(q, NuPmf):
        q = q.to_joint()
    if q.n_antennas != n_antennas:
        raise ValueError(
            f"PMF covers {q.n_antennas} antennas, config has {n_antennas}"
        )
    return np.asarray(q.masses)


def miso_mutual_info(
    config: MisoConfig, q1: JointPmf | NuPmf, q2: JointPmf | NuPmf
) -> float:
    """Per-slot mutual information for arbitrary joint on/off PMFs of both users."""
    m1 = _dense_masses(q1, len(config.peaks_user1))
    m2 = _dense_masses(q2, len(config.peaks_user2))
    r1 = subset_rates(config.peaks_user1)
    r2 = subset_rates(config.peaks_user2)
    rates = r1[:, None] + r2[None, :] + config.lambda0
    hits = -np.expm1(-rates * config.tau)
    weights = m1[:, None] * m2[None, :]
    ph = float(np.sum(weights * hits))
    mix = float(np.sum(weights * _entropy_arr(hits)))
    return binary_entropy(ph) - mix


@dataclass(frozen=True)
class MisoReport:
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
    mu1, mu2 = siso_report.optimum.mu1, siso_report.optimum.mu2
    return MisoReport(
        capacity=siso_report.capacity,
        duty_user1=mu1,
        duty_user2=mu2,
        pmf_user1=nu_pmf([mu1] * len(config.peaks_user1)),
        pmf_user2=nu_pmf([mu2] * len(config.peaks_user2)),
        siso=siso_report,
        regime_ok=config.in_regime,
    )
