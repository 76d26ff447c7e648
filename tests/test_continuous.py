"""Zero-dead-time reference: rate formula, curve limits, the enumeration
against its oracles and mpmath, convergence studies."""

import math
import random

import numpy as np
import pytest

from poisson_mac import continuous
from poisson_mac.channel import ChannelParams, DutyPair, mutual_info_rate, phi
from poisson_mac.continuous import (
    ContinuousParams,
    cont_capacity,
    cont_f,
    cont_g,
    cont_mutual_info_rate,
    convergence_report,
)
from poisson_mac.gridsearch import GridSpec, _grid_max
from poisson_mac.siso import f_mac, g_mac, single_user_duty, solve

from oracles import profile_max_many

CP = ContinuousParams(10.0, 12.0, 0.001)


def rate_grid(cp):
    """(m1, m2) -> the continuous rate over duty arrays, on numpy's log."""
    levels = continuous._levels(cp.a1, cp.a2, cp.lambda0)
    return lambda m1, m2: continuous._rate(levels, m1, m2, np)


def profile_max(cp):
    """The largest rate over mu1 of R(mu1, clip(cont_g(mu1), 0, 1)), R being
    concave in mu2, by the tests' profile maximiser (resolution 1e-9 in mu1):
    the rate and its duty."""
    levels = continuous._levels(cp.a1, cp.a2, cp.lambda0)

    def profile(mu1):
        mu2 = np.clip(continuous._g(levels, mu1, np), 0.0, 1.0)
        return continuous._rate(levels, mu1, mu2, np), mu2

    with np.errstate(all="ignore"):
        finite, rate, mu1, mu2 = (v.item() for v in profile_max_many(profile, 1))
    assert finite, cp
    return rate, DutyPair(mu1, mu2)


def log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


class TestContinuousRate:
    def test_corners_zero(self):
        # Deterministic joint inputs carry no information.
        for duty in (DutyPair(0, 0), DutyPair(1, 1), DutyPair(0, 1), DutyPair(1, 0)):
            assert cont_mutual_info_rate(CP, duty) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_box(self):
        rng = random.Random(51)
        for _ in range(200):
            duty = DutyPair(rng.random(), rng.random())
            assert cont_mutual_info_rate(CP, duty) >= -1e-12

    def test_pointwise_limit_of_slotted_rate(self):
        rng = random.Random(52)
        for _ in range(20):
            duty = DutyPair(rng.random(), rng.random())
            ref = cont_mutual_info_rate(CP, duty)
            slotted = mutual_info_rate(
                ChannelParams(CP.a1, CP.a2, CP.lambda0, 1e-6), duty
            )
            assert slotted == pytest.approx(ref, rel=1e-3, abs=1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            ContinuousParams(0.0, 1.0, 0.1)


class TestCurveLimits:
    def test_symmetric_f_is_identity(self):
        cp = ContinuousParams(7.0, 7.0, 0.01)
        for mu in (0.0, 0.3, 1.0):
            assert cont_f(cp, mu) == pytest.approx(mu, abs=1e-12)

    def test_f_matches_small_tau(self):
        params = ChannelParams(CP.a1, CP.a2, CP.lambda0, 1e-7)
        worst = max(
            abs(cont_f(CP, mu) - f_mac(params, mu)) for mu in [k / 50 for k in range(51)]
        )
        assert worst < 1e-3

    def test_g_matches_small_tau(self):
        params = ChannelParams(CP.a1, CP.a2, CP.lambda0, 1e-7)
        worst = max(
            abs(cont_g(CP, mu) - g_mac(params, mu)) for mu in [k / 50 for k in range(51)]
        )
        assert worst < 1e-3

    def test_g_at_zero_closed_form(self):
        a2, l0 = CP.a2, CP.lambda0
        expected = (
            math.exp(-1.0 - (phi(l0) - phi(a2 + l0)) / a2) - l0
        ) / a2
        assert cont_g(CP, 0.0) == pytest.approx(expected, rel=1e-14)


class TestContCapacity:
    def test_reference_point(self):
        rate, duty = cont_capacity(CP)
        assert rate == pytest.approx(4.81137, abs=1e-3)
        assert duty.mu1 == pytest.approx(0.219, abs=2e-3)
        assert duty.mu2 == pytest.approx(0.303, abs=2e-3)

    def test_refinement_monotone(self):
        # Refining the 2-D grid oracle only raises its value, and the exact
        # enumeration is at or above every refinement level.
        levels = [_grid_max(rate_grid(CP), GridSpec(1e-2, rounds))[0] for rounds in range(4)]
        assert levels == sorted(levels)
        assert cont_capacity(CP)[0] >= levels[-1]

    @pytest.mark.parametrize(
        "step, rounds",
        [(0.0, 3), (-1.0, 3), (5.0, 3), (math.nan, 3), (1e-3, -1), (1e-3, 7)],
    )
    def test_rejects_grid_outside_gridspec_bounds(self, step, rounds):
        # The reference runs no grid, so it takes no grid arguments at all.
        with pytest.raises(TypeError):
            cont_capacity(CP, step=step, refine_rounds=rounds)

    def test_matches_the_grid_oracle(self):
        # The refined 2-D grid (final step 1e-6) over seeded channels, equal
        # peaks and a user too weak to transmit: the enumeration is never below
        # it beyond rounding, and its duty lies within the grid's resolution.
        rng = random.Random(61)
        cases = [ContinuousParams(12.5, 12.5, 0.001), ContinuousParams(10.0, 0.05, 0.001)]
        cases += [
            ContinuousParams(rng.uniform(0.5, 50), rng.uniform(0.5, 50), rng.uniform(1e-3, 20)) for _ in range(8)
        ]
        for cp in cases:
            rate, duty = cont_capacity(cp)
            grid, grid_duty = _grid_max(rate_grid(cp), GridSpec(1e-3, 3))
            assert rate >= grid * (1.0 - 1e-15), cp
            assert rate == pytest.approx(cont_mutual_info_rate(cp, duty), rel=1e-14)
            assert 0.0 <= duty.mu1 <= 1.0 and 0.0 <= duty.mu2 <= 1.0
            assert abs(duty.mu1 - grid_duty.mu1) <= 1e-6, cp
            assert abs(duty.mu2 - grid_duty.mu2) <= 1e-6, cp

    @pytest.mark.parametrize("peak, lambda0", [(1e-20, 0.001), (1e-10, 0.001), (1e-10, 1.0), (1e-150, 1e-100)])
    def test_rounding_noise_is_arithmetic_error(self, peak, lambda0):
        # The true rates are of order peak^2/lambda0, below what the phi
        # terms, each of order lambda0 ln lambda0 and cancelling to it,
        # resolve; the reference would otherwise report their rounding noise.
        with pytest.raises(ArithmeticError, match="not above its rounding floor"):
            cont_capacity(ContinuousParams(peak, peak, lambda0))

    def test_exponent_past_exp_range_is_arithmetic_error(self):
        # a2 + lambda0 rounds to lambda0 plus one ulp, 1.24 a2, so cont_g's
        # exponent, ~ln(lambda0) + 1 = 698 if exact, is 1.24 times that and
        # passes exp's range: its phi terms are rounding noise.
        with pytest.raises(ArithmeticError, match="exponent of cont_g overflows"):
            cont_capacity(ContinuousParams(2.2184809328042473e24, 6.156801922918738e286, 5.234270949945573e302))

    @pytest.mark.parametrize("peak", [1e-9, 1e-6])
    def test_small_peaks_keep_their_rate(self, peak):
        rate, duty = cont_capacity(ContinuousParams(peak, peak, 0.001))
        # ~ peak^2 / (4 lambda0) at duties ~ 1/2.
        assert rate == pytest.approx(peak * peak / 0.004, rel=1e-2)
        assert duty.mu1 == pytest.approx(0.5, abs=0.02) and duty.mu2 == pytest.approx(0.5, abs=0.02)


class TestProfileOracle:
    """The enumeration against the profile search it replaced."""

    def test_never_below_the_profile(self):
        # Seeded rows, peaks 1e-2 to 1e3 and lambda0 1e-4 to 10, log-uniform.
        # Where peak/lambda0 is small the rate is cancellation noise at the
        # scale of its rounding floor, so the profile may win by that much.
        rng = random.Random(13)
        kinds = set()
        for _ in range(300):
            a1, a2 = log_uniform(rng, 1e-2, 1e3), log_uniform(rng, 1e-2, 1e3)
            cp = ContinuousParams(a1, a2, log_uniform(rng, 1e-4, 10.0))
            rate, duty = cont_capacity(cp)
            oracle, _ = profile_max(cp)
            floor = continuous._rounding_floor(cp.a1, cp.a2, cp.lambda0, duty.mu1, duty.mu2)
            assert rate >= oracle - max(floor, 1e-12 * rate), cp
            kinds.add((duty.mu1 > 0.0, duty.mu2 > 0.0))
        # Both users, and each user alone, win on some rows.
        assert kinds == {(True, True), (True, False), (False, True)}


# The golden continuous rows whose duties moved when the profile search (a
# 1e-9 lattice in mu1) gave way to the enumeration: a1 and a2 (lambda0 =
# 0.001, a2 as sweep-peak computes it) and the old and new printed (mu1, mu2).
MOVED_DUTIES = [
    (12.5, 5.0, ("0.36810663", "0"), ("0.368106631673", "0")),
    (12.5, 17.5, ("0.16927092", "0.327290131628"), ("0.169270939365", "0.327290127898")),
    (10.0, 5.0, ("0.366953345", "0.00815586094554"), ("0.36695335548", "0.00815585482558")),
    (10.0, 10.0, ("0.266188022", "0.266188035236"), ("0.266188032485", "0.266188032485")),
    (20.0, 5.0, ("0.36803006", "0"), ("0.368030054757", "0")),
    (20.0, 5.0 + 35.0 * 1 / 6, ("0.359690637", "0.050692811297"), ("0.359690638842", "0.0506928103248")),
    (20.0, 5.0 + 35.0 * 2 / 6, ("0.302775522", "0.219015540171"), ("0.30277552086", "0.219015540532")),
    (20.0, 22.5, ("0.236996164", "0.290818516822"), ("0.236996167132", "0.290818516089")),
    (20.0, 5.0 + 35.0 * 4 / 6, ("0.164935882", "0.328913143989"), ("0.164935883148", "0.32891314377")),
    (20.0, 5.0 + 35.0 * 5 / 6, ("0.08817042", "0.351834419286"), ("0.08817041028", "0.351834420882")),
    (20.0, 40.0, ("0.007728386", "0.366821519444"), ("0.00772838920504", "0.366821518976")),
]


def mp_optimum(mpmath, a1, a2, lambda0, start):
    """The continuous optimum in 50 digits: the best of each user's solo duty
    and the root of both partials of R found from start, if start is
    interior.  Returns the rate, mu1 and mu2 as mpf."""
    with mpmath.workdps(50):
        a1, a2, l0 = (mpmath.mpf(x) for x in (a1, a2, lambda0))

        def phi(x):
            return x * mpmath.log(x)

        p12, p2, p1, p0 = phi(a1 + a2 + l0), phi(a2 + l0), phi(a1 + l0), phi(l0)

        def rate(m1, m2):
            mixed = m1 * m2 * p12 + (1 - m1) * m2 * p2 + m1 * (1 - m2) * p1 + (1 - m1) * (1 - m2) * p0
            return mixed - phi(m1 * a1 + m2 * a2 + l0)

        def partials(m1, m2):
            slope = mpmath.log(m1 * a1 + m2 * a2 + l0) + 1
            return [
                m2 * (p12 - p2) + (1 - m2) * (p1 - p0) - a1 * slope,
                m1 * (p12 - p1) + (1 - m1) * (p2 - p0) - a2 * slope,
            ]

        def solo(a, p_on):
            return min(max((mpmath.exp((p_on - p0) / a - 1) - l0) / a, 0), 1)

        candidates = [(mpmath.mpf(0), solo(a2, p2)), (solo(a1, p1), mpmath.mpf(0))]
        if min(start) > 0.0:
            root = mpmath.findroot(partials, start)
            assert max(abs(r) for r in partials(*root)) < mpmath.mpf(10) ** -40
            candidates.append((root[0], root[1]))
        return max((rate(*c), *c) for c in candidates)


class TestGoldenDigits:
    """mpmath evidence for the golden continuous literals that moved."""

    @pytest.mark.parametrize("a1, a2, old, new", MOVED_DUTIES)
    def test_moved_duties_are_at_least_as_close(self, a1, a2, old, new):
        mpmath = pytest.importorskip("mpmath")
        _, *optimum = mp_optimum(mpmath, a1, a2, 0.001, [float(x) for x in new])
        for old_x, new_x, true_x in zip(old, new, optimum):
            assert abs(float(new_x) - true_x) <= abs(float(old_x) - true_x), (old_x, new_x, true_x)

    def test_converge_gap_moved_by_the_rate_last_bit(self):
        # converge --a1 10 --a2 12 --taus 1e-3,1e-4,1e-5: the third row's gap
        # went 0.00014015963677 -> 0.000140159636769.  The capacity at tau
        # 1e-5 is unchanged, so the gap moved with cont_capacity's rate,
        # 4.811374297649532 -> 4.811374297649531: 0.6 and 2.6 ulps below the
        # optimum, the rounding noise of phi terms up to ~68 that cancel to
        # ~4.8.  The old value was the closer one.
        mpmath = pytest.importorskip("mpmath")
        rate, duty = cont_capacity(CP)
        best, *_ = mp_optimum(mpmath, 10.0, 12.0, 0.001, [duty.mu1, duty.mu2])
        assert rate == 4.811374297649531
        assert abs(rate - best) <= 3 * math.ulp(rate)
        assert f"{rate - solve(ChannelParams(10.0, 12.0, 0.001, 1e-5)).capacity:.12g}" == "0.000140159636769"


class TestConvergence:
    def test_gaps_shrink_with_tau(self):
        rows = convergence_report(12.5, 12.5, 0.001, [2e-2, 5e-3, 1e-3, 1e-4])
        gaps = [r.gap for r in rows]
        assert all(g > 0 for g in gaps)
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_relative_gap_thresholds(self):
        rows = convergence_report(10.0, 12.0, 0.001, [1e-4, 1e-5])
        assert rows[0].rel_gap < 1e-2
        assert rows[1].rel_gap < 1e-3

    def test_single_user_duty_limit(self):
        ratio = 10.0 / 0.001
        from poisson_mac.channel import alpha_cont

        taus = [1e-3, 1e-4, 1e-5]
        gaps = [
            abs(single_user_duty(10.0, 0.001, t) - alpha_cont(ratio)) for t in taus
        ]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_rows_carry_reports(self):
        rows = convergence_report(10.0, 12.0, 0.001, [1e-3])
        assert rows[0].report.regime_ok
        assert rows[0].capacity == rows[0].report.capacity
