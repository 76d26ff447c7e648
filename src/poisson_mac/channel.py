"""
Per-slot primitives of the dead-time-limited photon-counting channel.

A photon-counting receiver whose dead time equals its sampling interval tau
reduces every slot to one bit: "did at least one photon arrive in the last
window".  At total arrival rate x the hit probability is

    p(x) = 1 - exp(-x * tau),

strictly increasing and strictly concave in x.  With two on-off users at peak
rates a1, a2 and background rate lambda0 there are four conditional hit
probabilities (both on / only user 2 / only user 1 / both off), and the
per-slot mutual information of the pair of duty cycles (mu1, mu2) is the
binary entropy of the mixed hit probability minus the mixture of the four
conditional entropies.  Capacity contributions are reported as I/tau in nats
per unit time.

Everything in this module is a pure function of immutable inputs; natural
logarithms throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

__all__ = [
    "ChannelParams",
    "HitProbs",
    "DutyPair",
    "hit_prob",
    "binary_entropy",
    "entropy_slope",
    "phi",
    "alpha_cont",
    "hit_probs",
    "p_hat",
    "mutual_info",
    "mutual_info_rate",
    "grad_mutual_info",
    "hessian_mutual_info",
]


def hit_prob(x: float, tau: float) -> float:
    """Probability of at least one arrival in a window of length tau at rate x.

    Evaluated as -expm1(-x*tau) so small x*tau keeps full relative precision.
    """
    if x < 0.0:
        raise ValueError(f"rate x must be nonnegative, got {x}")
    if tau <= 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return -math.expm1(-x * tau)


def binary_entropy(q: float) -> float:
    """Binary entropy -q ln q - (1-q) ln(1-q) in nats, with h(0) = h(1) = 0."""
    if q < 0.0 or q > 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def entropy_slope(q: float) -> float:
    """Derivative of binary_entropy, ln((1-q)/q); defined on open (0, 1)."""
    if q <= 0.0 or q >= 1.0:
        raise ValueError(f"entropy_slope needs q in (0, 1), got {q}")
    return math.log1p(-q) - math.log(q)


def phi(x: float) -> float:
    """x ln x with the continuity extension phi(0) = 0."""
    if x < 0.0:
        raise ValueError(f"phi needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def alpha_cont(x: float) -> float:
    """Optimal duty cycle of a lone continuous-time user at peak/background ratio x.

    Equals ((1+x)^(1+1/x) / e - 1) / x; tends to 1/e as x -> infinity.
    """
    if x <= 0.0:
        raise ValueError(f"alpha_cont needs x > 0, got {x}")
    return (math.exp((1.0 + 1.0 / x) * math.log1p(x) - 1.0) - 1.0) / x


def _require_finite(params: object, names: tuple[str, ...]) -> None:
    """Reject infinite or NaN fields, naming the first one."""
    for name in names:
        value = getattr(params, name)
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class ChannelParams:
    """One two-user problem instance: peak rates, background rate, dead time."""

    a1: float
    a2: float
    lambda0: float
    tau: float

    def __post_init__(self) -> None:
        _require_finite(self, ("a1", "a2", "lambda0", "tau"))
        if not self.a1 > 0.0:
            raise ValueError(f"a1 must be positive, got {self.a1}")
        if not self.a2 > 0.0:
            raise ValueError(f"a2 must be positive, got {self.a2}")
        if not self.lambda0 > 0.0:
            # A zero background makes the log-odds of the all-off slot singular.
            raise ValueError(
                f"lambda0 must be positive, got {self.lambda0}; for a "
                "dark-current-free study use lambda0 = 1e-9 * (a1 + a2)"
            )
        if not self.tau > 0.0:
            raise ValueError(f"tau must be positive, got {self.tau}")

    @property
    def in_regime(self) -> bool:
        """Whether tau <= ln2 / (a1 + a2 + lambda0), where the solver's guarantees hold."""
        return self.tau <= math.log(2.0) / (self.a1 + self.a2 + self.lambda0)

    def swapped(self) -> "ChannelParams":
        """The same channel with the user labels exchanged."""
        return ChannelParams(self.a2, self.a1, self.lambda0, self.tau)


@dataclass(frozen=True)
class HitProbs:
    """The four conditional hit probabilities: both on, user 2 only, user 1 only, none."""

    p1: float
    p2: float
    p3: float
    p4: float

    @cached_property
    def entropies(self) -> tuple[float, float, float, float]:
        """binary_entropy of p1..p4, computed once per instance."""
        return tuple(map(binary_entropy, (self.p1, self.p2, self.p3, self.p4)))


@dataclass(frozen=True)
class DutyPair:
    """A point (mu1, mu2) in the unit square of per-slot on-probabilities."""

    mu1: float
    mu2: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mu1 <= 1.0:
            raise ValueError(f"mu1 must lie in [0, 1], got {self.mu1}")
        if not 0.0 <= self.mu2 <= 1.0:
            raise ValueError(f"mu2 must lie in [0, 1], got {self.mu2}")


def hit_probs(params: ChannelParams) -> HitProbs:
    """Conditional hit probabilities for the four joint on/off states."""
    return HitProbs(
        p1=hit_prob(params.a1 + params.a2 + params.lambda0, params.tau),
        p2=hit_prob(params.a2 + params.lambda0, params.tau),
        p3=hit_prob(params.a1 + params.lambda0, params.tau),
        p4=hit_prob(params.lambda0, params.tau),
    )


def _weights(mu1: float, mu2: float) -> tuple[float, float, float, float]:
    return (
        mu1 * mu2,
        (1.0 - mu1) * mu2,
        mu1 * (1.0 - mu2),
        (1.0 - mu1) * (1.0 - mu2),
    )


def p_hat(params: ChannelParams, duty: DutyPair) -> float:
    """Slot hit probability under independent on/off signalling at the given duties."""
    hp = hit_probs(params)
    w = _weights(duty.mu1, duty.mu2)
    return w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4


def mutual_info(params: ChannelParams, duty: DutyPair) -> float:
    """Per-slot mutual information in nats between the user pair and the slot bit."""
    hp = hit_probs(params)
    return _mutual_info(hp, duty.mu1, duty.mu2)


def _mutual_info(hp: HitProbs, mu1: float, mu2: float) -> float:
    w = _weights(mu1, mu2)
    ph = w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4
    h1, h2, h3, h4 = hp.entropies
    return binary_entropy(ph) - (w[0] * h1 + w[1] * h2 + w[2] * h3 + w[3] * h4)


def mutual_info_rate(params: ChannelParams, duty: DutyPair) -> float:
    """Mutual information per unit time, I/tau, in nats."""
    return mutual_info(params, duty) / params.tau


def grad_mutual_info(params: ChannelParams, duty: DutyPair) -> tuple[float, float]:
    """Closed-form partial derivatives of mutual_info with respect to (mu1, mu2)."""
    hp = hit_probs(params)
    return _grad(hp, duty.mu1, duty.mu2)


def _grad_terms(hp: HitProbs, mu1, mu2) -> tuple:
    """(c1, c2, e1, e2, ph) with dI/dmu_k = c_k * ln((1-ph)/ph) - e_k.

    c_k and e_k are the hit-probability and entropy chords along mu_k and ph
    is the slot hit probability; mu1, mu2 are floats or broadcastable arrays.
    """
    h1, h2, h3, h4 = hp.entropies
    c1 = mu2 * (hp.p1 - hp.p2) + (1.0 - mu2) * (hp.p3 - hp.p4)
    c2 = mu1 * (hp.p1 - hp.p3) + (1.0 - mu1) * (hp.p2 - hp.p4)
    e1 = mu2 * (h1 - h2) + (1.0 - mu2) * (h3 - h4)
    e2 = mu1 * (h1 - h3) + (1.0 - mu1) * (h2 - h4)
    w = _weights(mu1, mu2)
    ph = w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4
    return c1, c2, e1, e2, ph


def _grad(hp: HitProbs, mu1: float, mu2: float) -> tuple[float, float]:
    c1, c2, e1, e2, ph = _grad_terms(hp, mu1, mu2)
    lo = entropy_slope(ph)
    return (c1 * lo - e1, c2 * lo - e2)


def hessian_mutual_info(
    params: ChannelParams, duty: DutyPair
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Closed-form Hessian of mutual_info; the diagonal entries are strictly negative.

    The determinant can still be positive near the origin for some channels,
    which is exactly why the objective is not concave in general.
    """
    hp = hit_probs(params)
    h1, h2, h3, h4 = hp.entropies
    c1, c2, _, _, ph = _grad_terms(hp, duty.mu1, duty.mu2)
    var = ph * (1.0 - ph)
    dcross_p = hp.p1 - hp.p2 - hp.p3 + hp.p4
    dcross_h = h1 - h2 - h3 + h4
    h11 = -c1 * c1 / var
    h22 = -c2 * c2 / var
    h12 = -c1 * c2 / var + entropy_slope(ph) * dcross_p - dcross_h
    return ((h11, h12), (h12, h22))
