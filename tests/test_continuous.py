"""Zero-dead-time reference: rate formula, curve limits, convergence studies."""

import math
import random

import pytest

from poisson_mac.channel import ChannelParams, DutyPair, mutual_info_rate, phi
from poisson_mac.continuous import (
    ContinuousParams,
    cont_capacity,
    cont_f,
    cont_g,
    cont_mutual_info_rate,
    convergence_report,
)
from poisson_mac.siso import f_mac, g_mac, single_user_duty

CP = ContinuousParams(10.0, 12.0, 0.001)


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
        coarse, _ = cont_capacity(CP, step=1e-2, refine_rounds=0)
        fine, _ = cont_capacity(CP, step=1e-2, refine_rounds=3)
        assert fine >= coarse

    @pytest.mark.parametrize(
        "step, rounds",
        [(0.0, 3), (-1.0, 3), (5.0, 3), (math.nan, 3), (1e-3, -1), (1e-3, 7)],
    )
    def test_rejects_grid_outside_gridspec_bounds(self, step, rounds):
        with pytest.raises(ValueError, match="must lie in"):
            cont_capacity(CP, step=step, refine_rounds=rounds)


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
