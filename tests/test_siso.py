"""Two-user solver: curve geometry, candidate enumeration, strategy selection."""

import dataclasses
import math
import random

import numpy as np
import pytest

from poisson_mac import gridsearch, siso
from poisson_mac.channel import ChannelParams, DutyPair, grad_mutual_info, mutual_info_rate
from poisson_mac.gridsearch import GridSpec, grid_capacity
from poisson_mac.siso import (
    Scenario,
    Strategy,
    f_mac,
    find_intersections,
    g_mac,
    regime_fraction_rule,
    single_user_duty,
    solve,
    solve_many,
    sufficiency_tests,
    sweep_strategy_region,
    uvw,
)

FIG1 = ChannelParams(1.0, 20.0, 0.001, 0.02)   # no intersection, user 2 only
FIG2 = ChannelParams(10.0, 12.0, 0.001, 0.02)  # one intersection, both active
SYM = ChannelParams(10.0, 10.0, 0.001, 0.02)


def random_in_regime(rng: random.Random) -> ChannelParams:
    a1, a2 = rng.uniform(0.5, 30.0), rng.uniform(0.5, 30.0)
    lam0 = rng.uniform(1e-4, 1.0)
    tau = 0.8 * math.log(2) / (a1 + a2 + lam0)
    return ChannelParams(a1, a2, lam0, tau)


class TestLineCoefficients:
    def test_positive_u_v(self):
        for params in (FIG1, FIG2, SYM):
            line = uvw(params)
            assert line.u > 0
            assert line.v > 0

    def test_symmetric_channel_w_zero_u_equals_v(self):
        line = uvw(SYM)
        assert line.w == pytest.approx(0.0, abs=1e-15)
        assert line.u == pytest.approx(line.v, rel=1e-12)

    def test_w_sign_follows_peak_gap(self):
        assert uvw(FIG1).w > 0            # a2 > a1
        assert uvw(FIG1.swapped()).w < 0  # a1 > a2

    def test_swap_negates_w(self):
        rng = random.Random(21)
        for _ in range(30):
            params = random_in_regime(rng)
            assert uvw(params).w == pytest.approx(-uvw(params.swapped()).w, abs=1e-15)

    def test_random_channels_keep_lemma_signs(self):
        rng = random.Random(22)
        for _ in range(100):
            params = random_in_regime(rng)
            line = uvw(params)
            assert line.u > 0 and line.v > 0
            assert (line.w > 0) == (params.a2 > params.a1) or line.w == 0


class TestCurves:
    def test_f_symmetric_is_identity(self):
        for mu in (0.0, 0.25, 0.5, 1.0):
            assert f_mac(SYM, mu) == pytest.approx(mu, abs=1e-12)

    def test_f_intercept(self):
        line = uvw(FIG2)
        assert f_mac(FIG2, 0.0) == pytest.approx(line.w / line.v, rel=1e-14)

    def test_f_climbs_to_one_g_stays_below_as_a2_grows(self):
        # The approach of f to 1 is logarithmically slow, so check monotone
        # approach plus the strict gap that forces the single-user-2 optimum.
        ends = []
        for a2, tau in ((1e2, 1e-3), (1e4, 1e-5), (1e6, 1e-7)):
            params = ChannelParams(1.0, a2, 0.001, tau)
            f0, f1 = f_mac(params, 0.0), f_mac(params, 1.0)
            ends.append((f0, f1))
            assert f0 < 1.0 and f1 < 1.0
            for mu in (0.0, 0.5, 1.0):
                assert g_mac(params, mu) < f_mac(params, mu)
        assert ends[0][0] < ends[1][0] < ends[2][0] > 0.93
        assert ends[0][1] < ends[1][1] < ends[2][1] > 0.93

    def test_g_at_zero_closed_form(self):
        from poisson_mac.channel import binary_entropy, hit_probs

        hp = hit_probs(FIG2)
        a_m = math.exp(
            (binary_entropy(hp.p2) - binary_entropy(hp.p4)) / (hp.p2 - hp.p4)
        )
        expected = (1.0 / (a_m + 1.0) - hp.p4) / (hp.p2 - hp.p4)
        assert g_mac(FIG2, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_g_between_zero_and_one_at_ends_symmetric(self):
        assert g_mac(SYM, 0.0) > 0.0
        assert g_mac(SYM, 1.0) < 1.0

    def test_g_midpoint_convexity_in_regime(self):
        rng = random.Random(23)
        for _ in range(40):
            params = random_in_regime(rng)
            x, y = rng.random(), rng.random()
            mid = g_mac(params, 0.5 * (x + y))
            assert mid <= 0.5 * (g_mac(params, x) + g_mac(params, y)) + 1e-14


class TestIntersections:
    def test_fig1_has_none(self):
        inter = find_intersections(FIG1)
        assert inter.points == ()
        assert inter.reliable

    def test_fig2_has_exactly_one(self):
        inter = find_intersections(FIG2)
        assert len(inter.points) == 1
        pt = inter.points[0]
        assert 0.0 <= pt.mu1 <= 1.0 and 0.0 <= pt.mu2 <= 1.0

    def test_roots_satisfy_both_curves(self):
        for pt in find_intersections(FIG2).points:
            assert abs(g_mac(FIG2, pt.mu1) - f_mac(FIG2, pt.mu1)) <= 1e-12

    def test_symmetric_intersection_on_diagonal(self):
        inter = find_intersections(SYM)
        assert len(inter.points) == 1
        pt = inter.points[0]
        assert pt.mu1 == pytest.approx(pt.mu2, abs=1e-11)

    def test_out_of_regime_flagged(self):
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        assert not find_intersections(params).reliable

    @pytest.mark.parametrize(
        "fn, lo, hi",
        [
            (lambda x: x * x - 2.0, 1.0, 2.0),
            (lambda x: 2.0 - x * x, 1.0, 2.0),
            (lambda x: x**3 - 0.2, 0.0, 1.0),
            (lambda x: x**3 - 0.7, 0.0, 1.0),
            (lambda x: x**3 - 0.01, 0.0, 1.0),
            (lambda x: math.exp(-x) - x, 0.0, 1.0),
            (lambda x: 3.0 - x, 1.0, 5.0),
        ],
    )
    def test_bisect_root_matches_the_plain_loop(self, fn, lo, hi):
        # _bisect_root stops once the midpoint rounds onto an end of the
        # bracket (the first two cases end on lo, the next two on hi, the
        # fifth on the width rule and the last two on an exact zero); the
        # full 120-step loop must end on the same double.
        def plain(lo, hi):
            flo = fn(lo)
            if flo == 0.0:
                return lo
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                fm = fn(mid)
                if fm == 0.0:
                    return mid
                if (fm > 0.0) == (flo > 0.0):
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= 1e-16:
                    break
            return 0.5 * (lo + hi)

        assert siso._bisect_root(fn, lo, hi) == plain(lo, hi)


class TestSingleUserDuty:
    def test_within_unit_interval(self):
        rng = random.Random(24)
        for _ in range(100):
            a = rng.uniform(1e-3, 100.0)
            lam0 = rng.uniform(1e-5, 5.0)
            tau = rng.uniform(1e-6, 0.5 * math.log(2) / (a + lam0))
            assert 0.0 <= single_user_duty(a, lam0, tau) <= 1.0

    def test_stationary_along_own_axis(self):
        mu = single_user_duty(FIG2.a1, FIG2.lambda0, FIG2.tau)
        g1, _ = grad_mutual_info(FIG2, DutyPair(mu, 0.0))
        assert g1 == pytest.approx(0.0, abs=1e-12)

    def test_small_tau_small_background_tends_to_inv_e(self):
        assert single_user_duty(10.0, 1e-8, 1e-7) == pytest.approx(
            1 / math.e, abs=1e-4
        )

    def test_saturated_hit_levels_give_duty_zero(self):
        # On and off hit levels both round to 1: every duty has rate 0.
        assert single_user_duty(1.0, 10.0, 5.0) == 0.0


class TestSolve:
    def test_symmetric_both_active_on_diagonal(self):
        report = solve(SYM)
        assert report.strategy is Strategy.BOTH_ACTIVE
        assert abs(report.optimum.mu1 - report.optimum.mu2) <= 1e-9
        assert report.regime_ok

    def test_fig1_only_user2(self):
        report = solve(FIG1)
        assert report.strategy is Strategy.ONLY_USER2
        assert report.optimum.mu1 == 0.0

    def test_fig2_both_active(self):
        report = solve(FIG2)
        assert report.strategy is Strategy.BOTH_ACTIVE

    def test_report_carries_its_intersection_search(self):
        assert solve(FIG2).search == find_intersections(FIG2)
        saturated = solve(ChannelParams(1000.0, 1000.0, 0.001, 1.0))
        assert saturated.search.points == () and not saturated.search.reliable

    def test_capacity_dominates_single_user_candidates(self):
        rng = random.Random(25)
        for _ in range(30):
            params = random_in_regime(rng)
            report = solve(params)
            solo = [
                c.rate
                for c in report.candidates
                if c.scenario in (Scenario.ONLY_USER1, Scenario.ONLY_USER2)
            ]
            assert report.capacity >= max(solo) - 1e-15

    def test_gradient_vanishes_at_interior_optimum(self):
        report = solve(FIG2)
        g = grad_mutual_info(FIG2, report.optimum)
        assert math.hypot(*g) <= 1e-8

    def test_swap_invariance(self):
        rng = random.Random(26)
        for _ in range(20):
            params = random_in_regime(rng)
            a, b = solve(params), solve(params.swapped())
            assert a.capacity == pytest.approx(b.capacity, abs=1e-12)
            assert a.optimum.mu1 == pytest.approx(b.optimum.mu2, abs=1e-9)
            assert a.optimum.mu2 == pytest.approx(b.optimum.mu1, abs=1e-9)

    def test_candidate_slots_follow_convention(self):
        report = solve(FIG1)
        both = [
            c
            for c in report.candidates
            if c.scenario in (Scenario.BOTH_ACTIVE_1, Scenario.BOTH_ACTIVE_2)
        ]
        assert len(both) == 2
        assert all(not c.valid and c.duty == DutyPair(0.0, 0.0) for c in both)
        assert all(c.rate == 0.0 for c in both)

    def test_report_capacity_equals_best_candidate(self):
        for params in (FIG1, FIG2, SYM):
            report = solve(params)
            assert report.capacity == max(c.rate for c in report.candidates)

    def test_out_of_regime_grid_checked(self):
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        report = solve(params)
        assert not report.regime_ok
        assert report.grid_checked
        grid = grid_capacity(params, GridSpec(step=1e-3, refine_rounds=0))
        assert report.capacity >= grid.capacity

    @staticmethod
    def _grid_above_solve(monkeypatch, params, margin):
        """Patch the cross-check grid to report solve's capacity plus margin
        at its own cell; returns the unpatched report and the specs asked for."""
        expected, real, specs = solve(params), gridsearch.grid_capacity, []

        def above(params, spec):
            specs.append(spec)
            return dataclasses.replace(real(params, spec), capacity=expected.capacity + margin)

        monkeypatch.setattr(gridsearch, "grid_capacity", above)
        return expected, specs

    def test_higher_grid_cell_replaces_the_enumeration(self, monkeypatch):
        # No channel searched so far has the grid beat the enumeration by
        # more than rounding noise, so the grid's value is raised by hand.
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        expected, specs = self._grid_above_solve(monkeypatch, params, 1e-6)
        report = solve(params)
        assert specs == [GridSpec(step=1e-2, refine_rounds=0)]
        assert report.capacity == expected.capacity + 1e-6
        assert report.optimum == grid_capacity(params, specs[0]).duty

    def test_grid_within_tie_tol_keeps_the_enumeration(self, monkeypatch):
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        expected, _ = self._grid_above_solve(monkeypatch, params, 0.5 * siso.TIE_TOL)
        report = solve(params)
        assert (report.capacity, report.optimum, report.strategy) == (
            expected.capacity, expected.optimum, expected.strategy
        )

    def test_profile_carries_a_missed_optimum(self, monkeypatch):
        # Out of regime and both active; with the interior candidates hidden
        # only the edges are enumerated, and the profile finds the optimum.
        params = ChannelParams(10.0, 12.0, 0.001, 0.05)
        expected = solve(params)
        assert expected.strategy is Strategy.BOTH_ACTIVE and not expected.regime_ok
        monkeypatch.setattr(
            siso, "find_intersections", lambda p: siso.IntersectionSearch(points=(), rejected=(), reliable=False)
        )
        report = solve(params)
        assert report.capacity > max(c.rate for c in report.candidates) + siso.TIE_TOL
        assert report.strategy is Strategy.BOTH_ACTIVE
        assert report.capacity == pytest.approx(expected.capacity, rel=1e-14)
        assert report.optimum.mu1 == pytest.approx(expected.optimum.mu1, abs=1e-7)
        assert report.optimum.mu2 == pytest.approx(expected.optimum.mu2, abs=1e-7)

    def test_noise_level_rates_keep_the_label_swap(self):
        # I/tau ~ 2e-11 at 29x the regime bound: the candidates' rates are
        # mostly rounding noise, and no check may pick a point by that noise.
        params = ChannelParams(0.05, 0.3, 20.0, 1.0)
        a, b = solve(params), solve(params.swapped())
        assert a.strategy == b.strategy
        assert abs(a.capacity - b.capacity) <= siso.TIE_TOL
        assert abs(a.optimum.mu1 - b.optimum.mu2) <= 1e-6
        assert abs(a.optimum.mu2 - b.optimum.mu1) <= 1e-6

    def test_saturated_background_has_capacity_zero(self):
        # All four hit probabilities round to 1.0, so every duty pair has
        # rate 0; the edge duties and the curve algebra must not divide by 0.
        report = solve(ChannelParams(1.0, 0.1, 10.0, 5.0))
        assert report.capacity == 0.0
        assert report.grid_checked

    def test_out_of_regime_never_below_the_fine_grid(self):
        # Seeded channels from 0.01x to 100x the regime bound, with
        # backgrounds up to 20, equal peaks and saturated channels, against
        # the step-1e-3 grid the out-of-regime check used to run.
        rng = random.Random(97)
        cases = [ChannelParams(1000.0, 1000.0, 0.1, 0.5), ChannelParams(1.0, 0.1, 10.0, 5.0)]
        for fraction in (0.01, 0.3, 1.2, 3.0, 10.0, 30.0, 100.0):
            for lam0 in (rng.uniform(1e-3, 1.0), rng.uniform(1.0, 20.0)):
                a1, a2 = rng.uniform(0.05, 50.0), rng.uniform(0.05, 50.0)
                cases.append(ChannelParams(a1, a2, lam0, fraction * math.log(2) / (a1 + a2 + lam0)))
            a = rng.uniform(0.5, 50.0)
            cases.append(ChannelParams(a, a, 0.001, fraction * math.log(2) / (2.0 * a + 0.001)))
        for params in cases:
            report = solve(params)
            grid = grid_capacity(params, GridSpec(step=1e-3, refine_rounds=0))
            assert report.capacity >= grid.capacity - siso.TIE_TOL, params
            assert 0.0 <= report.optimum.mu1 <= 1.0 and 0.0 <= report.optimum.mu2 <= 1.0
            assert report.capacity == pytest.approx(mutual_info_rate(params, report.optimum), rel=1e-12, abs=0.0)

    def test_out_of_regime_check_computes_no_gradient_bound(self, monkeypatch):
        def unread(*args):
            raise AssertionError("gradient bound computed")

        monkeypatch.setattr(gridsearch, "_grad_norm_grid", unread)
        assert solve(ChannelParams(10.0, 30.0, 0.001, 0.02)).grid_checked

    def test_saturated_channel_survives_via_grid(self):
        # Hit levels round to 1.0 here; the curve algebra is unusable but the
        # solver still answers through the brute-force fallback.
        params = ChannelParams(1000.0, 1000.0, 0.1, 0.5)
        report = solve(params)
        assert not report.regime_ok
        assert report.grid_checked
        assert report.capacity > 0.0

    def test_matches_grid_oracle(self):
        rng = random.Random(27)
        for _ in range(10):
            params = random_in_regime(rng)
            report = solve(params)
            grid = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=4))
            assert report.capacity >= grid.capacity - grid.error_bound
            assert report.capacity <= grid.capacity + 1e-9


class TestProfileMax:
    """The 1-D maximiser behind the out-of-regime check and the continuous
    reference, on profiles whose answer is known exactly."""

    @staticmethod
    def _flat(rate):
        return lambda x: (rate(x), np.zeros_like(x))

    def test_rival_peak_is_refined(self):
        # A narrow peak of 1 + 1e-6 between coarse points samples at ~0.99984
        # there, below the broad peak's 1.0; only carrying it as a second
        # incumbent finds it.
        def rate(x):
            return np.maximum(1.0 - 1e3 * (x - 0.3) ** 2, 1.0 + 1e-6 - 1e3 * (x - 0.6004) ** 2)

        value, duty = siso._profile_max(self._flat(rate))
        assert value == pytest.approx(1.0 + 1e-6, abs=1e-12)
        assert duty.mu1 == pytest.approx(0.6004, abs=1e-9) and duty.mu2 == 0.0

    def test_incumbent_moves_only_to_a_strictly_better_point(self):
        # The plateau starts half a coarse step before its first coarse
        # point; every zoom window reaches points as good, none better.
        value, duty = siso._profile_max(self._flat(lambda x: np.where(x >= 0.2995, 1.0, 0.0)))
        assert value == 1.0
        assert duty.mu1 == np.linspace(0.0, 1.0, 1001)[300]

    def test_nan_never_wins(self):
        value, duty = siso._profile_max(self._flat(lambda x: np.where(x > 0.5, np.nan, x)))
        assert value == 0.5 and duty.mu1 == 0.5


class TestSufficiency:
    def test_symmetric_both_single_user_screens_reject(self):
        record = sufficiency_tests(SYM)
        assert record.adding_user2_helps
        assert record.adding_user1_helps

    def test_fig1_single_user_sufficient(self):
        record = sufficiency_tests(FIG1)
        assert record.single_user_sufficient
        assert g_mac(FIG1, 0.0) < f_mac(FIG1, 0.0)
        assert g_mac(FIG1, 1.0) < f_mac(FIG1, 1.0)

    def test_screen_consistent_with_solver(self):
        rng = random.Random(28)
        for _ in range(30):
            params = random_in_regime(rng)
            if sufficiency_tests(params).single_user_sufficient:
                assert solve(params).strategy is not Strategy.BOTH_ACTIVE


class TestSweep:
    def test_labels_shape_and_diagonal(self):
        grid = [2.0, 6.0, 10.0]
        labels = sweep_strategy_region(
            grid, grid, 0.001, regime_fraction_rule(0.8, 0.001)
        )
        assert len(labels) == 3 and all(len(row) == 3 for row in labels)
        for i in range(3):
            assert labels[i][i] is Strategy.BOTH_ACTIVE

    def test_transpose_symmetry_with_users_swapped(self):
        a1_grid, a2_grid = [2.0, 8.0], [3.0, 12.0]
        rule = regime_fraction_rule(0.8, 0.001)
        fwd = sweep_strategy_region(a1_grid, a2_grid, 0.001, rule)
        rev = sweep_strategy_region(a2_grid, a1_grid, 0.001, rule)
        swap = {
            Strategy.ONLY_USER1: Strategy.ONLY_USER2,
            Strategy.ONLY_USER2: Strategy.ONLY_USER1,
            Strategy.BOTH_ACTIVE: Strategy.BOTH_ACTIVE,
        }
        for i in range(len(a1_grid)):
            for j in range(len(a2_grid)):
                assert fwd[i][j] is swap[rev[j][i]]

    def test_fixed_tau_rule(self):
        labels = sweep_strategy_region([1.0], [20.0], 0.001, 0.02)
        assert labels[0][0] is Strategy.ONLY_USER2

    def test_empty_axes(self):
        assert sweep_strategy_region([], [1.0], 0.001, 0.02) == []
        assert sweep_strategy_region([1.0, 2.0], [], 0.001, 0.02) == [[], []]


def assert_batch_matches_scalar(a1, a2, lambda0, tau):
    """solve_many against solve lane by lane: same strategy, same printed
    digits, and in fact the same doubles."""
    batch = solve_many(a1, a2, lambda0, tau)
    strategies = batch.strategies()
    for i, (x1, x2, t) in enumerate(zip(a1, a2, tau)):
        report = solve(ChannelParams(x1, x2, lambda0, t))
        assert strategies[i] is report.strategy, (x1, x2, t)
        got = (batch.capacity[i], batch.mu1[i], batch.mu2[i])
        want = (report.capacity, report.optimum.mu1, report.optimum.mu2)
        assert "%.12g %.12g %.12g" % got == "%.12g %.12g %.12g" % want, (x1, x2, t)
        assert got == want, (x1, x2, t)
        assert bool(batch.regime_ok[i]) is report.regime_ok
    return batch


class TestSolveMany:
    def test_random_in_regime_matches_scalar(self, monkeypatch):
        rng = random.Random(2019)
        a1 = [math.exp(rng.uniform(0.0, math.log(50.0))) for _ in range(400)]
        a2 = [math.exp(rng.uniform(0.0, math.log(50.0))) for _ in range(400)]
        tau = [(1.0 - 0.8 * rng.random()) * math.log(2) / (x1 + x2 + 0.001) for x1, x2 in zip(a1, a2)]
        # In regime the batch never falls back on the scalar solver.
        fallbacks = []
        monkeypatch.setattr(siso, "solve", lambda params: fallbacks.append(params) or solve(params))
        batch = assert_batch_matches_scalar(a1, a2, 0.001, tau)
        assert fallbacks == []
        assert set(batch.strategies()) == set(Strategy)

    def test_diagonal_is_both_active(self):
        a = [0.5 + 2.5 * k for k in range(20)]
        tau = [0.8 * math.log(2) / (2 * x + 0.001) for x in a]
        batch = assert_batch_matches_scalar(a, a, 0.001, tau)
        assert batch.strategies() == [Strategy.BOTH_ACTIVE] * len(a)

    def test_fixed_tau_grid_across_regime_bound(self):
        grid = [2.0, 7.0, 12.0, 17.0, 22.0]
        a1 = [x for x in grid for _ in grid]
        a2 = [y for _ in grid for y in grid]
        batch = assert_batch_matches_scalar(a1, a2, 0.001, [0.02] * len(a1))
        assert 0 < int((~batch.regime_ok).sum()) < len(a1)

    def test_saturated_lanes_take_the_scalar_guard(self):
        batch = assert_batch_matches_scalar([1000.0, 10.0], [1000.0, 12.0], 0.001, [1.0, 0.02])
        assert list(batch.regime_ok) == [False, True]

    def test_broadcast_and_empty(self):
        batch = solve_many(10.0, [12.0, 1.0], 0.001, 0.02)
        assert batch.strategies() == [Strategy.BOTH_ACTIVE, Strategy.ONLY_USER1]
        assert solve_many([], [], 0.001, []).capacity.shape == (0,)

    @pytest.mark.parametrize(
        "a1, tau, message",
        [(-2.0, 0.02, "a1 must be positive"), (10.0, math.inf, "tau must be finite")],
    )
    def test_invalid_lane_raises_the_field_error(self, a1, tau, message):
        with pytest.raises(ValueError, match=message):
            solve_many([10.0, a1], [12.0, 12.0], 0.001, [0.02, tau])
