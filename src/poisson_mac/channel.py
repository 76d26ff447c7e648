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
from typing import NamedTuple, Sequence

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
    if not x >= 0.0:
        raise ValueError(f"rate x must be nonnegative, got {x}")
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")
    return -math.expm1(-x * tau)


def binary_entropy(q: float) -> float:
    """Binary entropy -q ln q - (1-q) ln(1-q) in nats, with h(0) = h(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability must lie in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def entropy_slope(q: float) -> float:
    """Derivative of binary_entropy, ln((1-q)/q); defined on open (0, 1)."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"entropy_slope needs q in (0, 1), got {q}")
    return math.log1p(-q) - math.log(q)


def phi(x: float) -> float:
    """x ln x with the continuity extension phi(0) = 0."""
    if not x >= 0.0:
        raise ValueError(f"phi needs x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    return x * math.log(x)


def alpha_cont(x: float) -> float:
    """Optimal duty cycle of a lone continuous-time user at peak/background ratio x.

    Equals ((1+x)^(1+1/x) / e - 1) / x; tends to 1/e as x -> infinity.
    """
    if not x > 0.0:
        raise ValueError(f"alpha_cont needs x > 0, got {x}")
    return (math.exp((1.0 + 1.0 / x) * math.log1p(x) - 1.0) - 1.0) / x


def _require_positive(names: str | tuple, values: Sequence[float], text: object = None, lambda0_hint: str = "") -> None:
    """The one input check: reject the first value that is infinite or NaN, else the first not
    above 0, by its name in names (or names itself, when a str), with "got" text (else the value)
    and, for a lambda0, lambda0_hint."""
    for value in values:  # the common case, all valid, in one pass
        if not 0.0 < value < math.inf:
            break
    else:
        return
    names = (names,) * len(values) if isinstance(names, str) else names
    for name, value in zip(names, values):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value if text is None else text}")
    for name, value in zip(names, values):
        if not value > 0.0:
            hint = lambda0_hint if name == "lambda0" else ""
            raise ValueError(f"{name} must be positive, got {value if text is None else text}{hint}")


class _ChannelFields(NamedTuple):
    a1: float
    a2: float
    lambda0: float
    tau: float


class ChannelParams(_ChannelFields):
    """One two-user problem instance: peak rates, background rate, dead time."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so _replace and _make check too

    def __new__(cls, a1: float, a2: float, lambda0: float, tau: float) -> ChannelParams:
        # A zero background makes the log-odds of the all-off slot singular.
        dark = "; for a dark-current-free study use lambda0 = 1e-9 * (a1 + a2)"
        _require_positive(("a1", "a2", "lambda0", "tau"), (a1, a2, lambda0, tau), lambda0_hint=dark)
        return tuple.__new__(cls, (a1, a2, lambda0, tau))

    @property
    def in_regime(self) -> bool:
        """Whether tau <= ln2 / (a1 + a2 + lambda0), where the solver's guarantees hold."""
        return self.tau <= math.log(2.0) / (self.a1 + self.a2 + self.lambda0)

    def swapped(self) -> ChannelParams:
        """The same channel with the user labels exchanged."""
        return ChannelParams(self.a2, self.a1, self.lambda0, self.tau)


class _HitFields(NamedTuple):
    p1: float
    p2: float
    p3: float
    p4: float


class HitProbs(_HitFields):
    """The four conditional hit probabilities: both on, user 2 only, user 1 only,
    none.  entropies, binary_entropy of each, is computed once, by the constructor."""

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace recomputes the entropies

    def __new__(cls, p1: float, p2: float, p3: float, p4: float) -> HitProbs:
        self = tuple.__new__(cls, (p1, p2, p3, p4))
        object.__setattr__(self, "entropies", tuple(map(binary_entropy, self)))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field '{name}'")


class _DutyFields(NamedTuple):
    mu1: float
    mu2: float


class DutyPair(_DutyFields):
    """A point (mu1, mu2) in the unit square of per-slot on-probabilities."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))

    def __new__(cls, mu1: float, mu2: float) -> DutyPair:
        _require_duty("mu1", mu1)
        _require_duty("mu2", mu2)
        return tuple.__new__(cls, (mu1, mu2))


def _require_duty(name: str, mu: float) -> None:  # DutyPair's check, NaN failing it too
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {mu}")


def hit_probs(params: ChannelParams) -> HitProbs:
    """Conditional hit probabilities for the four joint on/off states."""
    a1, a2, lambda0, tau = params
    p1, p2 = hit_prob(a1 + a2 + lambda0, tau), hit_prob(a2 + lambda0, tau)
    return HitProbs(p1, p2, hit_prob(a1 + lambda0, tau), hit_prob(lambda0, tau))


def _weights(mu1: float, mu2: float) -> tuple[float, float, float, float]:
    return (
        mu1 * mu2,
        (1.0 - mu1) * mu2,
        mu1 * (1.0 - mu2),
        (1.0 - mu1) * (1.0 - mu2),
    )


def p_hat(params: ChannelParams, duty: DutyPair) -> float:
    """Slot hit probability under independent on/off signalling at the given duties."""
    return _weighted_sum(_weights(duty.mu1, duty.mu2), hit_probs(params))


def mutual_info(params: ChannelParams, duty: DutyPair) -> float:
    """Per-slot mutual information in nats between the user pair and the slot bit."""
    hp = hit_probs(params)
    return _rate(hp, hp.entropies, duty.mu1, duty.mu2)


def _rate(p: tuple, h: tuple, mu1, mu2, entropy=binary_entropy):
    """I at (mu1, mu2): _weighted_rate at the weights _weights(mu1, mu2)."""
    return _weighted_rate(p, h, _weights(mu1, mu2), entropy)


def _weighted_rate(p: tuple, h: tuple, w: tuple, entropy=binary_entropy):
    """I at the duty weights w from the four hit levels p and their entropies h: the only
    definition of the slot rate, on floats or on broadcast arrays with an array entropy
    (siso._entropy_many); divide by tau for a rate per unit time."""
    rate = entropy(_weighted_sum(w, p))
    rate -= _weighted_sum(w, h)
    return rate


def _weighted_sum(w: tuple, x: tuple):
    """w[0]*x[0] + ... + w[3]*x[3], left to right, in the array of the first product (on floats
    += rebinds): the slot probability and the entropy mixture of the rate, the gradient and
    p_hat.  The four weights share one broadcast shape, as _weights builds them."""
    total = w[0] * x[0]
    total += w[1] * x[1]
    total += w[2] * x[2]
    total += w[3] * x[3]
    return total


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
    return c1, c2, e1, e2, _weighted_sum(_weights(mu1, mu2), hp)


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
