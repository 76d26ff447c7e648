"""Scalar primitives: frozen values, independent oracles, structural invariants."""

import math
import random

import pytest

from poisson_mac.channel import (
    ChannelParams,
    DutyPair,
    alpha_cont,
    binary_entropy,
    entropy_slope,
    grad_mutual_info,
    hessian_mutual_info,
    hit_prob,
    hit_probs,
    mutual_info,
    mutual_info_rate,
    p_hat,
    phi,
)
from poisson_mac.gridsearch import fd_gradient, fd_hessian

# Evaluated once with 50-digit decimal arithmetic and frozen.
HB_TENTH = 0.32508297339144823950655002822381793923561848454782
P1_SYM10 = 0.32969336023121829659004670178242867391035879340473
LOG_ODDS_DARK = 10.819768284393616444006114040852533006085210133520
ALPHA_AT_ONE = 0.4715177646857692863820950806458434697832445241270


def params_fig2() -> ChannelParams:
    return ChannelParams(10.0, 12.0, 0.001, 0.02)


class TestHitProb:
    def test_zero_rate(self):
        assert hit_prob(0.0, 0.02) == 0.0

    def test_small_rate_log_odds(self):
        p = hit_prob(0.001, 0.02)
        assert p == pytest.approx(2.0e-5, rel=1e-4)
        assert math.log((1 - p) / p) == pytest.approx(LOG_ODDS_DARK, abs=1e-12)

    def test_half_at_ln2_over_tau(self):
        assert hit_prob(math.log(2) / 0.02, 0.02) == pytest.approx(0.5, abs=1e-15)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            hit_prob(-1.0, 0.02)

    def test_monotone_and_concave(self):
        xs = [0.1 * k for k in range(1, 60)]
        ps = [hit_prob(x, 0.02) for x in xs]
        assert all(b > a for a, b in zip(ps, ps[1:]))
        mids = [hit_prob(0.5 * (x + y), 0.02) for x, y in zip(xs, xs[2:])]
        assert all(m > 0.5 * (pa + pb) for m, pa, pb in zip(mids, ps, ps[2:]))


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(math.log(2), abs=1e-15)

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_tenth_matches_high_precision(self):
        assert binary_entropy(0.1) == pytest.approx(HB_TENTH, abs=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_slope_is_derivative(self):
        h = 1e-7
        for q in (0.1, 0.3, 0.5, 0.9):
            fd = (binary_entropy(q + h) - binary_entropy(q - h)) / (2 * h)
            assert entropy_slope(q) == pytest.approx(fd, abs=1e-6)

    def test_chord_slopes_bracketed_by_derivatives(self):
        # For concave h: h'(y) > chord(x, y) > h'(x) whenever x > y.
        rng = random.Random(3)
        for _ in range(50):
            y = rng.uniform(0.01, 0.5)
            x = rng.uniform(y + 0.01, 0.99)
            chord = (binary_entropy(x) - binary_entropy(y)) / (x - y)
            assert entropy_slope(x) < chord < entropy_slope(y)


class TestPhiAlpha:
    def test_phi_values(self):
        assert phi(1.0) == 0.0
        assert phi(0.0) == 0.0
        assert phi(math.e) == pytest.approx(math.e, abs=1e-15)

    def test_alpha_at_one(self):
        assert alpha_cont(1.0) == pytest.approx(ALPHA_AT_ONE, abs=1e-15)

    def test_alpha_large_ratio_tends_to_inv_e(self):
        assert alpha_cont(1e8) == pytest.approx(1 / math.e, abs=1e-6)

    def test_alpha_in_unit_interval(self):
        for x in (1e-3, 0.1, 1.0, 10.0, 1e4):
            assert 0.0 <= alpha_cont(x) <= 1.0


class TestParamsAndProbs:
    def test_rejects_zero_background(self):
        with pytest.raises(ValueError, match="lambda0"):
            ChannelParams(10.0, 12.0, 0.0, 0.02)

    def test_rejects_nonpositive(self):
        for bad in ({"a1": -1.0}, {"a2": 0.0}, {"tau": 0.0}):
            kwargs = dict(a1=10.0, a2=12.0, lambda0=0.001, tau=0.02)
            kwargs.update(bad)
            with pytest.raises(ValueError):
                ChannelParams(**kwargs)

    def test_rejects_non_finite(self):
        for name in ("a1", "a2", "lambda0", "tau"):
            for bad in (math.inf, math.nan):
                kwargs = dict(a1=10.0, a2=12.0, lambda0=0.001, tau=0.02)
                kwargs[name] = bad
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    ChannelParams(**kwargs)

    def test_in_regime_flag(self):
        assert ChannelParams(10.0, 12.0, 0.001, 0.02).in_regime
        assert not ChannelParams(10.0, 30.0, 0.001, 0.02).in_regime

    def test_symmetric_value(self):
        hp = hit_probs(ChannelParams(10.0, 10.0, 0.001, 0.02))
        assert hp.p1 == pytest.approx(P1_SYM10, abs=1e-15)
        assert hp.p2 == hp.p3

    def test_vanishing_background_sends_p4_to_zero(self):
        hp = hit_probs(ChannelParams(10.0, 10.0, 1e-12, 0.02))
        assert hp.p4 == pytest.approx(0.0, abs=1e-13)

    def test_ordering_when_a2_larger(self):
        hp = hit_probs(ChannelParams(1.0, 20.0, 0.001, 0.02))
        assert hp.p4 < hp.p3 < hp.p2 < hp.p1

    def test_ordering_when_a1_larger(self):
        hp = hit_probs(ChannelParams(20.0, 1.0, 0.001, 0.02))
        assert hp.p4 < hp.p2 < hp.p3 < hp.p1

    def test_p1_at_most_half_in_regime(self):
        rng = random.Random(11)
        for _ in range(50):
            a1, a2 = rng.uniform(0.5, 30), rng.uniform(0.5, 30)
            lam0 = rng.uniform(1e-4, 1.0)
            tau = rng.uniform(0.1, 1.0) * math.log(2) / (a1 + a2 + lam0)
            hp = hit_probs(ChannelParams(a1, a2, lam0, tau))
            assert hp.p1 <= 0.5

    def test_strict_concavity_cross_difference(self):
        rng = random.Random(12)
        for _ in range(100):
            a1, a2 = rng.uniform(0.1, 40), rng.uniform(0.1, 40)
            lam0 = rng.uniform(1e-4, 2.0)
            tau = rng.uniform(1e-4, 0.05)
            hp = hit_probs(ChannelParams(a1, a2, lam0, tau))
            assert hp.p1 - hp.p2 - hp.p3 + hp.p4 < 0


class TestPHat:
    def test_corners(self):
        params = params_fig2()
        hp = hit_probs(params)
        assert p_hat(params, DutyPair(0, 0)) == hp.p4
        assert p_hat(params, DutyPair(1, 1)) == hp.p1

    def test_center_is_mean(self):
        params = params_fig2()
        hp = hit_probs(params)
        expected = 0.25 * (hp.p1 + hp.p2 + hp.p3 + hp.p4)
        assert p_hat(params, DutyPair(0.5, 0.5)) == pytest.approx(expected, abs=1e-16)

    def test_bounded_by_extreme_levels(self):
        params = params_fig2()
        hp = hit_probs(params)
        rng = random.Random(4)
        for _ in range(100):
            ph = p_hat(params, DutyPair(rng.random(), rng.random()))
            assert hp.p4 <= ph <= hp.p1


def _kl_bernoulli(p: float, q: float) -> float:
    return p * math.log(p / q) + (1 - p) * math.log((1 - p) / (1 - q))


class TestMutualInfo:
    def test_corners_zero(self):
        params = params_fig2()
        assert mutual_info(params, DutyPair(0, 0)) == pytest.approx(0.0, abs=1e-15)
        assert mutual_info(params, DutyPair(1, 1)) == pytest.approx(0.0, abs=1e-15)

    def test_matches_expected_kl_form(self):
        # Independent arithmetic path: I equals the weight-averaged KL
        # divergence of each conditional slot law from the mixture.
        params = params_fig2()
        hp = hit_probs(params)
        mu1, mu2 = 0.3, 0.4
        weights = [mu1 * mu2, (1 - mu1) * mu2, mu1 * (1 - mu2), (1 - mu1) * (1 - mu2)]
        levels = [hp.p1, hp.p2, hp.p3, hp.p4]
        ph = sum(w * p for w, p in zip(weights, levels))
        expected = sum(w * _kl_bernoulli(p, ph) for w, p in zip(weights, levels))
        assert mutual_info(params, DutyPair(mu1, mu2)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_bounded_by_ln2(self):
        rng = random.Random(5)
        for _ in range(200):
            params = ChannelParams(
                rng.uniform(0.5, 30), rng.uniform(0.5, 30), rng.uniform(1e-4, 1.0),
                rng.uniform(1e-4, 0.02),
            )
            duty = DutyPair(rng.random(), rng.random())
            value = mutual_info(params, duty)
            assert 0.0 <= value <= binary_entropy(p_hat(params, duty)) + 1e-15
            assert value <= math.log(2) + 1e-15

    def test_relabelling_symmetry(self):
        rng = random.Random(6)
        for _ in range(50):
            params = ChannelParams(
                rng.uniform(0.5, 30), rng.uniform(0.5, 30), rng.uniform(1e-4, 1.0),
                rng.uniform(1e-4, 0.02),
            )
            mu1, mu2 = rng.random(), rng.random()
            left = mutual_info(params, DutyPair(mu1, mu2))
            right = mutual_info(params.swapped(), DutyPair(mu2, mu1))
            assert left == pytest.approx(right, abs=1e-15)

    def test_rate_scales_by_tau(self):
        params = params_fig2()
        duty = DutyPair(0.3, 0.4)
        assert mutual_info_rate(params, duty) == pytest.approx(
            mutual_info(params, duty) / params.tau, rel=1e-15
        )


class TestDerivatives:
    def test_gradient_matches_finite_differences(self):
        params = params_fig2()
        rng = random.Random(7)
        for _ in range(100):
            duty = DutyPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            g = grad_mutual_info(params, duty)
            fd = fd_gradient(params, duty, h=1e-6)
            assert g[0] == pytest.approx(fd[0], rel=1e-6, abs=1e-9)
            assert g[1] == pytest.approx(fd[1], rel=1e-6, abs=1e-9)

    def test_gradient_symmetry_on_diagonal(self):
        params = ChannelParams(10.0, 10.0, 0.001, 0.02)
        for mu in (0.1, 0.3, 0.7):
            g = grad_mutual_info(params, DutyPair(mu, mu))
            assert g[0] == pytest.approx(g[1], abs=1e-14)

    def test_hessian_diagonal_negative(self):
        params = params_fig2()
        rng = random.Random(8)
        for _ in range(50):
            duty = DutyPair(rng.random(), rng.random())
            h = hessian_mutual_info(params, duty)
            assert h[0][0] < 0 and h[1][1] < 0
            assert h[0][1] == h[1][0]

    def test_hessian_matches_finite_differences(self):
        params = params_fig2()
        rng = random.Random(9)
        for _ in range(30):
            duty = DutyPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            h = hessian_mutual_info(params, duty)
            fd = fd_hessian(params, duty, h=1e-4)
            for i in (0, 1):
                for j in (0, 1):
                    assert h[i][j] == pytest.approx(fd[i][j], rel=1e-4, abs=1e-7)

    def test_nonconcavity_witness_near_origin(self):
        # At equal peaks 10 with tiny background the Hessian is indefinite at
        # the all-off corner (negative diagonal, negative determinant) yet
        # negative definite a little further in, so the objective is neither
        # concave nor convex on the square.
        params = ChannelParams(10.0, 10.0, 0.001, 0.02)
        h_corner = hessian_mutual_info(params, DutyPair(1e-9, 1e-9))
        det_corner = h_corner[0][0] * h_corner[1][1] - h_corner[0][1] * h_corner[1][0]
        assert h_corner[0][0] < 0 and h_corner[1][1] < 0
        assert det_corner < 0
        h_inner = hessian_mutual_info(params, DutyPair(0.01, 0.01))
        det_inner = h_inner[0][0] * h_inner[1][1] - h_inner[0][1] * h_inner[1][0]
        assert h_inner[0][0] < 0 and det_inner > 0

    def test_nonconcavity_direct_midpoint_violation(self):
        # The indefinite corner makes the antidiagonal direction locally
        # convex: averaging the two one-user points beats their midpoint.
        params = ChannelParams(10.0, 10.0, 0.001, 0.02)
        eps = 1e-4
        ends = 0.5 * (
            mutual_info(params, DutyPair(eps, 0.0))
            + mutual_info(params, DutyPair(0.0, eps))
        )
        mid = mutual_info(params, DutyPair(0.5 * eps, 0.5 * eps))
        assert mid < ends


class TestEntropyOfHitCurve:
    def test_midpoint_concavity_in_regime(self):
        # h(p(x)) is concave on [0, b] whenever tau <= ln2/b.
        b = 30.0
        tau = math.log(2) / b
        xs = [b * k / 60 for k in range(61)]
        vals = [binary_entropy(hit_prob(x, tau)) for x in xs]
        for k in range(1, 60):
            assert vals[k] >= 0.5 * (vals[k - 1] + vals[k + 1]) - 1e-15
