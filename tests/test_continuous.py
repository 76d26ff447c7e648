"""Zero-dead-time reference: rate formula, curve limits, convergence studies."""

import math
import random

import pytest

from poisson_mac.channel import ChannelParams, DutyPair, mutual_info_rate, phi
from poisson_mac.continuous import (
    LANE_BLOCK,
    ContinuousParams,
    cont_capacity,
    cont_capacity_many,
    cont_f,
    cont_g,
    cont_mutual_info_rate,
    convergence_report,
    _rate_grid,
)
from poisson_mac.gridsearch import GridSpec, _grid_max
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
        # Refining the 2-D grid oracle only raises its value, and the exact
        # profile maximum is at or above every refinement level.
        def rate(m1, m2):
            return _rate_grid(CP, m1, m2)

        levels = [_grid_max(rate, GridSpec(1e-2, rounds))[0] for rounds in range(4)]
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
        # peaks and a user too weak to transmit: the profile is never below
        # it beyond rounding, and its duty lies within the grid's resolution.
        rng = random.Random(61)
        cases = [ContinuousParams(12.5, 12.5, 0.001), ContinuousParams(10.0, 0.05, 0.001)]
        cases += [
            ContinuousParams(rng.uniform(0.5, 50), rng.uniform(0.5, 50), rng.uniform(1e-3, 20)) for _ in range(8)
        ]
        for cp in cases:
            rate, duty = cont_capacity(cp)
            grid, grid_duty = _grid_max(lambda m1, m2: _rate_grid(cp, m1, m2), GridSpec(1e-3, 3))
            assert rate >= grid * (1.0 - 1e-15), cp
            assert rate == pytest.approx(cont_mutual_info_rate(cp, duty), rel=1e-14)
            assert 0.0 <= duty.mu1 <= 1.0 and 0.0 <= duty.mu2 <= 1.0
            assert abs(duty.mu1 - grid_duty.mu1) <= 1e-6, cp
            assert abs(duty.mu2 - grid_duty.mu2) <= 1e-6, cp

    @pytest.mark.parametrize("peak, lambda0", [(1e-20, 0.001), (1e-10, 0.001), (1e-10, 1.0), (1e-150, 1e-100)])
    def test_rounding_noise_is_arithmetic_error(self, peak, lambda0):
        # The true rates are of order peak^2/lambda0, below what the phi
        # terms, each of order lambda0 ln lambda0 and cancelling to it,
        # resolve; the profile would otherwise report their rounding noise.
        with pytest.raises(ArithmeticError, match="not above its rounding floor"):
            cont_capacity(ContinuousParams(peak, peak, lambda0))

    @pytest.mark.parametrize("peak", [1e-9, 1e-6])
    def test_small_peaks_keep_their_rate(self, peak):
        rate, duty = cont_capacity(ContinuousParams(peak, peak, 0.001))
        # ~ peak^2 / (4 lambda0) at duties ~ 1/2.
        assert rate == pytest.approx(peak * peak / 0.004, rel=1e-2)
        assert duty.mu1 == pytest.approx(0.5, abs=0.02) and duty.mu2 == pytest.approx(0.5, abs=0.02)


class TestContCapacityMany:
    """Rows solved as lanes of one profile pass, against cont_capacity row by row."""

    @pytest.mark.parametrize("rows", [0, 1, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1, 2 * LANE_BLOCK + 3])
    def test_lanes_equal_rows_bit_for_bit(self, rows):
        rng = random.Random(rows)
        a1, lambda0 = rng.uniform(0.5, 50.0), math.exp(rng.uniform(math.log(1e-4), math.log(20.0)))
        a2_values = [math.exp(rng.uniform(math.log(0.05), math.log(50.0))) for _ in range(rows)]
        rate, mu1, mu2 = cont_capacity_many(a1, a2_values, lambda0)
        expected = [cont_capacity(ContinuousParams(a1, a2, lambda0)) for a2 in a2_values]
        assert rate == [r for r, _ in expected]
        assert mu1 == [d.mu1 for _, d in expected]
        assert mu2 == [d.mu2 for _, d in expected]

    def test_first_failing_row_raises(self):
        # Row LANE_BLOCK + 1, in the second block, is rounding noise; a
        # later invalid row does not get to raise, an earlier one does.
        a2_values = [12.0] * (LANE_BLOCK + 3)
        a2_values[LANE_BLOCK + 1] = 1e-20
        a2_values[-1] = -1.0
        assert len(cont_capacity_many(1e-20, a2_values[: LANE_BLOCK + 1], 0.001)[0]) == LANE_BLOCK + 1
        with pytest.raises(ArithmeticError, match="not above its rounding floor"):
            cont_capacity_many(1e-20, a2_values[:1] + a2_values, 0.001)
        with pytest.raises(ValueError, match="a2 must be positive, got -1.0"):
            cont_capacity_many(1e-20, [12.0, -1.0] + a2_values, 0.001)
        with pytest.raises(ValueError, match="a2 must be finite, got nan"):
            cont_capacity_many(10.0, [12.0, math.nan, 1e-20], 0.001)
        with pytest.raises(ValueError, match="lambda0 must be positive"):
            cont_capacity_many(10.0, [12.0], 0.0)
        with pytest.raises(ArithmeticError, match="no finite rate"):
            cont_capacity_many(1e308, [1.0, 2.0], 0.001)


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
