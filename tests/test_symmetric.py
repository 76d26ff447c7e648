"""Equal-peak analysis: flip level, threshold, boundary geometry, fixed point."""

import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from poisson_mac.channel import (
    ChannelParams,
    DutyPair,
    binary_entropy,
    entropy_slope,
    hit_prob,
    mutual_info,
)
from poisson_mac.continuous import ContinuousParams, cont_capacity
from poisson_mac.gridsearch import GridSpec, grid_capacity
from poisson_mac.siso import single_user_duty, solve
from poisson_mac import symmetric
from poisson_mac.symmetric import (
    SchurMode,
    SchurRegion,
    boundary_half_sums,
    flip_log_odds,
    line_constrained_max,
    peak_threshold,
    schur_classify,
    solve_symmetric,
    symmetric_fixed_point,
)

LAMBDA0 = 0.001
TAU = 0.02
FLIP_DENOMINATOR = r"the flip level's denominator 2 p2 - p1 - p4 rounds to 0 "


def dark_log_odds(lambda0: float, tau: float) -> float:
    return entropy_slope(hit_prob(lambda0, tau))


def flip_three_calls(a: float, lambda0: float, tau: float) -> float:
    """The flip level as three hit_prob and three binary_entropy calls: the
    reference the one-closure level must match to the last bit, and a named
    ArithmeticError where the denominator rounds to 0."""
    p1, p2, p4 = hit_prob(2.0 * a + lambda0, tau), hit_prob(a + lambda0, tau), hit_prob(lambda0, tau)
    num = 2.0 * binary_entropy(p2) - binary_entropy(p1) - binary_entropy(p4)
    if (den := 2.0 * p2 - p1 - p4) == 0.0:
        raise ArithmeticError("the denominator rounds to 0")
    return num / den


def outcome(fn, *args):
    """repr of fn(*args) (so NaN equals NaN), or the name of the ArithmeticError it raises."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


class TestFlipLevel:
    def test_reference_value(self):
        # Matches the cross-ratio of the general channel at equal peaks.
        assert flip_log_odds(10.0, LAMBDA0, TAU) == pytest.approx(9.51, abs=0.02)

    def test_small_peak_limit(self):
        # Convergence needs a << lambda0; check the approach is monotone and
        # lands within a fraction of a percent at a = lambda0/1000.
        p4 = hit_prob(LAMBDA0, TAU)
        limit = 1.0 / p4 + math.log((1 - p4) / p4)
        errs = [
            abs(flip_log_odds(a, LAMBDA0, TAU) - limit) / limit
            for a in (1e-3, 1e-4, 1e-5, 1e-6)
        ]
        assert all(x > y for x, y in zip(errs, errs[1:]))
        assert errs[-1] < 5e-3

    def test_decreasing_in_peak(self):
        grid = [0.5 * k for k in range(1, 34)]  # stays within regime for tau=0.02
        vals = [flip_log_odds(a, LAMBDA0, TAU) for a in grid]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_range_bounds(self):
        p4 = hit_prob(LAMBDA0, TAU)
        lower = math.log(1 - p4) + p4 / (1 - p4) * math.log(p4)
        upper = 1.0 / p4 + math.log((1 - p4) / p4)
        for a in (0.01, 1.0, 5.0, 10.0, 17.0):
            assert lower < flip_log_odds(a, LAMBDA0, TAU) < upper

    def test_closure_matches_three_call_formula_to_the_bit(self):
        rng = random.Random(1315)
        cases = [(10 ** rng.uniform(-5, 1), 10 ** rng.uniform(-3, 0.5)) for _ in range(60)]
        # p4 = 0 (lambda0 * tau underflows) and hit levels that round to 1.
        cases += [(1e-300, 1e-300), (1e-200, 1e-150), (1e-3, 1.0), (1e-3, 1e3)]
        for lambda0, tau in cases:
            flip = symmetric._flip_of(lambda0, tau)
            cap = max((math.log(2.0) / tau - lambda0) / 2.0, 1e-3)
            peaks = [10 ** rng.uniform(-8, math.log10(40.0 * cap)) for _ in range(40)] + [0.0, 1e6, 1e300]
            for a in peaks:
                want = outcome(flip_three_calls, a, lambda0, tau)
                assert outcome(flip, a) == outcome(flip_log_odds, a, lambda0, tau) == want, (a, lambda0, tau)

    def test_saturated_levels_take_zero_entropy(self):
        # p1 = p2 = 1: h(1) = 0 by binary_entropy's rule, not log1p(-1).
        assert hit_prob(1e6, 1.0) == 1.0
        assert flip_log_odds(1e6, 1e-3, 1.0) == flip_three_calls(1e6, 1e-3, 1.0) < 0.0
        assert hit_prob(1e-300, 1e-300) == 0.0  # p4 = 0
        for a in (1e290, 1e298):
            assert flip_log_odds(a, 1e-300, 1e-300) == flip_three_calls(a, 1e-300, 1e-300) > 0.0

    def test_negative_peak_is_named(self):
        with pytest.raises(ValueError, match=r"^a must be nonnegative, got -1$"):
            flip_log_odds(-1, 0.001, 0.02)
        # Small enough that every rate stays nonnegative, still rejected.
        with pytest.raises(ValueError, match="^a must be nonnegative"):
            flip_log_odds(-1e-6, 0.001, 0.02)

    def test_nan_peak_is_named(self):
        with pytest.raises(ValueError, match=r"^a must be nonnegative, got nan$"):
            flip_log_odds(math.nan, LAMBDA0, TAU)

    def test_agrees_with_general_cross_ratio_at_equal_peaks(self):
        from poisson_mac.channel import hit_probs

        hp = hit_probs(ChannelParams(10.0, 10.0, LAMBDA0, TAU))
        h1, h2, h3, h4 = hp.entropies
        cross = (h1 - h2 - h3 + h4) / (hp.p1 - hp.p2 - hp.p3 + hp.p4)
        assert flip_log_odds(10.0, LAMBDA0, TAU) == pytest.approx(cross, rel=1e-12)


class TestPeakThreshold:
    def test_residual_and_bracket(self):
        thr = peak_threshold(LAMBDA0, TAU)
        assert thr.found
        assert thr.residual <= 1e-10
        target = dark_log_odds(LAMBDA0, TAU)
        low = flip_log_odds(thr.value / 2, LAMBDA0, TAU) - target
        high = flip_log_odds(min(2 * thr.value, thr.search_cap), LAMBDA0, TAU) - target
        assert low > 0 > high

    def test_grows_as_tau_shrinks_and_can_lie_beyond_the_regime_cap(self):
        # The threshold grows as tau shrinks; where the flip level is still
        # above the dark log-odds at the regime cap, it is reported as not found.
        values = [peak_threshold(LAMBDA0, tau).value for tau in (0.02, 0.005, 1e-3, 1e-4)]
        assert all(x < y for x, y in zip(values, values[1:]))
        lambda0, tau = 18.4, 1.09e-3
        capped = peak_threshold(lambda0, tau)
        assert not capped.found
        assert capped.value == math.inf
        assert capped.search_cap == (math.log(2.0) / tau - lambda0) / 2.0 == pytest.approx(308.76, abs=0.01)
        assert flip_log_odds(capped.search_cap, lambda0, tau) - dark_log_odds(lambda0, tau) > 1.0

    def test_root_of_rounding_noise_is_an_error(self):
        # At tau ~ 1e-14 the flip level's second differences cancel and delta
        # changes sign on noise: the root search's root has a residual of
        # 6.0e15 against a target of 37.8.
        with pytest.raises(ArithmeticError, match=r"peak-threshold residual 6\.0\d*e\+15 above 1e-09 of the target 37\.8"):
            peak_threshold(0.0029339146239736333, 1.2741161428746491e-14)

    def test_flip_level_below_the_target_at_the_start_is_an_error(self):
        # The flip level lies ~1/p4 above the target at small a and falls as a
        # grows, so one already below it at a = lambda0 is rounding noise: at
        # tau ~ 5e-17 its second differences cancel.
        lambda0, tau = 1.0883405665963555, 4.5800758862051256e-17
        message = (
            r"^the flip level -1\.05802e\+15 at a = 1\.08834 is already below the target 37\.5376:"
            r" it is rounding noise$"
        )
        for call in (lambda: peak_threshold(lambda0, tau), lambda: solve_symmetric(10.0, lambda0, tau)):
            with pytest.raises(ArithmeticError, match=message) as info:
                call()
            assert info.type is ArithmeticError

    def test_threshold_between_known_sides(self):
        thr = peak_threshold(LAMBDA0, TAU)
        # At peak 10 the flip level 9.51 already sits below the dark log-odds
        # 10.82, so the threshold must be below 10.
        assert thr.value < 10.0
        assert flip_log_odds(thr.value, LAMBDA0, TAU) == pytest.approx(
            dark_log_odds(LAMBDA0, TAU), abs=1e-9
        )


class TestBoundary:
    def test_not_applicable_below_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        assert boundary_half_sums(thr.value / 2, LAMBDA0, TAU, thr) is None

    def test_vanishes_at_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        bounds = boundary_half_sums(thr.value, LAMBDA0, TAU, thr)
        assert bounds is not None
        assert bounds.axis == pytest.approx(0.0, abs=1e-10)
        assert bounds.diagonal == pytest.approx(0.0, abs=1e-10)

    def test_axis_at_most_diagonal_above_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        for a in (9.0, 10.0, 12.0, 15.0, 17.0):
            bounds = boundary_half_sums(a, LAMBDA0, TAU, thr)
            assert bounds is not None
            assert 0.0 < bounds.axis <= bounds.diagonal

    def test_axis_below_half_solo_duty(self):
        thr = peak_threshold(LAMBDA0, TAU)
        for a in (9.0, 12.0, 17.0):
            bounds = boundary_half_sums(a, LAMBDA0, TAU, thr)
            assert bounds.axis < 0.5 * single_user_duty(a, LAMBDA0, TAU)

    def test_level_curve_slope_in_minus_one_zero(self):
        # Implicit slope of the critical curve mu1 = f(mu2) on mu1 >= mu2:
        # -dp/dmu2 over dp/dmu1, which lies in [-1, 0).
        a = 12.0
        p1 = hit_prob(2 * a + LAMBDA0, TAU)
        p2 = hit_prob(a + LAMBDA0, TAU)
        p4 = hit_prob(LAMBDA0, TAU)
        rng = random.Random(31)
        for _ in range(200):
            mu2 = rng.uniform(0.0, 0.5)
            mu1 = rng.uniform(mu2, 1.0)
            d1 = mu2 * (p1 - p2) + (1 - mu2) * (p2 - p4)
            d2 = mu1 * (p1 - p2) + (1 - mu1) * (p2 - p4)
            slope = -d2 / d1
            assert -1.0 - 1e-12 <= slope < 0.0


    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_non_finite_peak_is_a_value_error(self, a):
        # as in symmetric_fixed_point, not half-sums or a label from NaN or
        # saturated hit levels
        thr = peak_threshold(LAMBDA0, TAU)
        for call in (
            lambda: boundary_half_sums(a, LAMBDA0, TAU, thr),
            lambda: schur_classify(a, LAMBDA0, TAU, DutyPair(0.3, 0.1), thr),
            lambda: symmetric_fixed_point(a, LAMBDA0, TAU),
            lambda: line_constrained_max(a, LAMBDA0, TAU, 0.1),
            lambda: solve_symmetric(a, LAMBDA0, TAU),
            lambda: single_user_duty(a, LAMBDA0, TAU),
        ):
            with pytest.raises(ValueError, match=f"^a must be finite, got {a}$"):
                call()


class TestSchurClassification:
    def test_global_below_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        a = thr.value / 2
        rng = random.Random(32)
        for _ in range(20):
            duty = DutyPair(rng.random(), rng.random())
            assert schur_classify(a, LAMBDA0, TAU, duty, thr) is SchurRegion.GLOBAL

    def test_corners_above_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        a = 12.0
        assert (
            schur_classify(a, LAMBDA0, TAU, DutyPair(1.0, 1.0), thr)
            is SchurRegion.CONCAVE_SIDE
        )
        assert (
            schur_classify(a, LAMBDA0, TAU, DutyPair(0.0, 0.0), thr)
            is SchurRegion.CONVEX_SIDE
        )

    def test_majorization_inequality_below_threshold(self):
        thr = peak_threshold(LAMBDA0, TAU)
        a = thr.value / 2
        params = ChannelParams(a, a, LAMBDA0, TAU)
        rng = random.Random(33)
        for _ in range(500):
            mu1, mu2 = rng.random(), rng.random()
            mean = 0.5 * (mu1 + mu2)
            assert mutual_info(params, DutyPair(mu1, mu2)) <= mutual_info(
                params, DutyPair(mean, mean)
            ) + 1e-12


class TestLineDichotomy:
    def test_split_one_user_below_axis_value(self):
        thr = peak_threshold(LAMBDA0, TAU)
        a = 10.0
        bounds = boundary_half_sums(a, LAMBDA0, TAU, thr)
        params = ChannelParams(a, a, LAMBDA0, TAU)
        for frac in (0.25, 0.6, 0.95):
            hs = frac * bounds.axis
            best, _ = line_constrained_max(a, LAMBDA0, TAU, hs)
            split = mutual_info(params, DutyPair(min(2 * hs, 1.0), max(2 * hs - 1, 0.0)))
            assert split >= best - 1e-12

    def test_balanced_above_diagonal_value(self):
        thr = peak_threshold(LAMBDA0, TAU)
        a = 10.0
        bounds = boundary_half_sums(a, LAMBDA0, TAU, thr)
        params = ChannelParams(a, a, LAMBDA0, TAU)
        for hs in (1.5 * bounds.diagonal, 0.1, 0.25, 0.4):
            best, _ = line_constrained_max(a, LAMBDA0, TAU, hs)
            balanced = mutual_info(params, DutyPair(hs, hs))
            assert balanced >= best - 1e-12


class TestFixedPoint:
    def test_residual_contract(self):
        from poisson_mac.siso import g_mac

        mu = symmetric_fixed_point(10.0, LAMBDA0, TAU)
        params = ChannelParams(10.0, 10.0, LAMBDA0, TAU)
        assert abs(mu - g_mac(params, mu)) <= 1e-12

    def test_matches_general_solver(self):
        for a in (5.0, 10.0, 12.5):
            mu = symmetric_fixed_point(a, LAMBDA0, TAU)
            report = solve(ChannelParams(a, a, LAMBDA0, TAU))
            assert report.optimum.mu1 == pytest.approx(mu, abs=1e-9)
            assert report.optimum.mu2 == pytest.approx(mu, abs=1e-9)

    def test_is_the_root_of_solve_to_the_bit(self):
        # At equal peaks the line f is the diagonal to the bit, so the fixed
        # point is solve's interior root, from the same search.
        rng = random.Random(31)
        for _ in range(2000):
            lambda0 = 10 ** rng.uniform(-4, 1)
            a = lambda0 * 10 ** rng.uniform(0, 4)
            tau = rng.uniform(0.01, 1) * math.log(2) / (2 * a + lambda0)
            want = solve(ChannelParams(a, a, lambda0, tau)).optimum.mu1.hex()
            got = symmetric_fixed_point(a, lambda0, tau).hex(), solve_symmetric(a, lambda0, tau).fixed_point.hex()
            assert got == (want, want), (a, lambda0, tau)

    def test_small_tau_matches_continuous_grid(self):
        a, lam0, tau = 10.0, 1e-5, 1e-7
        mu = symmetric_fixed_point(a, lam0, tau)
        _, duty = cont_capacity(ContinuousParams(a, a, lam0))
        assert mu == pytest.approx(duty.mu1, abs=1e-3)
        assert abs(mu - 1 / math.e) < 0.15  # loose: two-user optimum sits below 1/e


class TestSymmetricReport:
    def test_modes(self):
        thr = peak_threshold(LAMBDA0, TAU)
        below = solve_symmetric(thr.value / 2, LAMBDA0, TAU)
        above = solve_symmetric(12.0, LAMBDA0, TAU)
        assert below.schur_mode is SchurMode.GLOBALLY_SCHUR_CONCAVE
        assert below.boundary is None
        assert above.schur_mode is SchurMode.SPLIT_REGIONS
        assert above.boundary is not None

    def test_capacity_against_grid(self):
        report = solve_symmetric(10.0, LAMBDA0, TAU)
        grid = grid_capacity(
            ChannelParams(10.0, 10.0, LAMBDA0, TAU), GridSpec(1e-2, 3)
        )
        assert report.capacity >= grid.capacity - grid.error_bound
        assert report.capacity == pytest.approx(grid.capacity, abs=1e-6)

    def test_fixed_point_in_open_interval(self):
        report = solve_symmetric(10.0, LAMBDA0, TAU)
        assert 0.0 < report.fixed_point < 1.0


def hexes(value):
    """float.hex of every float field of a report part (None as None), so
    equal means bit for bit equal, NaN included."""
    if value is None:
        return None
    fields = value if hasattr(value, "_fields") else (value,)  # a record's fields, else the one value
    return tuple(float.hex(v) if isinstance(v, float) else v for v in fields)


class TestSolveSymmetric:
    def test_one_set_up_per_report(self, monkeypatch):
        counts = {"ChannelParams": 0, "hit_probs": 0, "_flip_of": 0}

        def counted(name):
            real = getattr(symmetric, name)

            def wrapper(*args):
                counts[name] += 1
                return real(*args)

            return wrapper

        for name in counts:
            monkeypatch.setattr(symmetric, name, counted(name))
        report = solve_symmetric(12.0, LAMBDA0, TAU)
        assert report.schur_mode is SchurMode.SPLIT_REGIONS  # every step ran
        assert counts == {"ChannelParams": 1, "hit_probs": 1, "_flip_of": 1}

    def test_flip_evaluations_per_report(self, monkeypatch):
        # The threshold's bracket reuses each end's value, and the report
        # evaluates flip(a) once for the half-sums and itself: 15 bracket
        # points (a = 0.001 doubled 14 times to 16.384), 12 steps of the root
        # search, the residual check at its root and flip(10).
        calls, flip_of = [], symmetric._flip_of

        def counted_flip_of(lambda0, tau):
            flip = flip_of(lambda0, tau)
            return lambda a: calls.append(a) or flip(a)

        monkeypatch.setattr(symmetric, "_flip_of", counted_flip_of)
        report = solve_symmetric(10.0, LAMBDA0, TAU)
        assert report.schur_mode is SchurMode.SPLIT_REGIONS
        assert len(calls) == 29 and calls.count(10.0) == 1

    @staticmethod
    def channels():
        """Seeded equal-peak channels on both sides of the threshold and at it,
        in regime and out of it, with the threshold found and not."""
        rng = random.Random(1717)
        cases = []
        for _ in range(220):
            lambda0, tau = 10 ** rng.uniform(-4, 0), 10 ** rng.uniform(-3, -0.5)
            thr = peak_threshold(lambda0, tau)
            if thr.found:
                a = thr.value if rng.random() < 0.1 else thr.value * 10 ** rng.uniform(-1, 1)
            else:
                a = 10 ** rng.uniform(-2, 2)
            cases.append((a, lambda0, tau))
        return cases

    def test_report_agrees_with_the_public_helpers(self):
        # hexes reads a record field by field: a report is not one opaque value
        assert len(hexes(solve_symmetric(10.0, LAMBDA0, TAU))) == 9
        assert len(hexes(peak_threshold(LAMBDA0, TAU))) == 4
        sides = {True: 0, False: 0}
        for a, lambda0, tau in self.channels():
            thr = peak_threshold(lambda0, tau)
            try:
                # in the report's order, so the first error is the one it raises
                want = (
                    hexes(thr),
                    hexes(boundary_half_sums(a, lambda0, tau, thr)),
                    hexes(symmetric_fixed_point(a, lambda0, tau)),
                    hexes(flip_log_odds(a, lambda0, tau)),
                )
            except ArithmeticError as exc:
                with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                    solve_symmetric(a, lambda0, tau)
                continue
            report = solve_symmetric(a, lambda0, tau)
            got = (hexes(report.threshold), hexes(report.boundary), hexes(report.fixed_point), hexes(report.flip_level))
            assert got == want, (a, lambda0, tau)
            sides[report.boundary is None] += 1
        assert min(sides.values()) >= 50, sides

    def test_no_capacity_below_zero(self):
        # Weak equal-peak channels, ~30 % of them out of regime: a balanced
        # rate of rounding noise below zero is an ArithmeticError.
        rng, errors, values = random.Random(29), 0, 0
        for _ in range(3000):
            a, lambda0 = 10 ** rng.uniform(-12, -2), 10 ** rng.uniform(-4, 1)
            factor = 10 ** rng.uniform(-3, 0) if rng.random() < 0.7 else 10 ** rng.uniform(0, 1.5)
            tau = factor * math.log(2) / (2 * a + lambda0)
            try:
                capacity = solve_symmetric(a, lambda0, tau).capacity
            except ArithmeticError:
                errors += 1
                continue
            values += 1
            assert not capacity < 0.0, (a, lambda0, tau)
        assert min(errors, values) >= 300, (errors, values)

    @pytest.mark.parametrize(
        "a, lambda0, tau, message",
        [
            # At the threshold's first bracket point, a = lambda0.
            (1.0, 6.280771786715331e-08, 4.563502066759421e-13, FLIP_DENOMINATOR + r"at a = 6\.28077e-08, "),
            # At flip(a), after a threshold was found.
            (3.805159936651471e-08, 0.0007564414133609078, 3.198604937848736e-11, FLIP_DENOMINATOR + r"at a = 3\.80516e-08, "),
            # In the fixed point's search: a + lambda0 rounds to lambda0, so the four hit levels are one double.
            (1e-20, 0.001, 0.02, r"g - f divides by a hit-level difference that rounds to 0 at the hit levels "),
        ],
        ids=["threshold-bracket", "flip-at-a", "fixed-point-g"],
    )
    def test_denominator_rounding_to_zero_is_named(self, capsys, a, lambda0, tau, message):
        from poisson_mac.cli import main

        with pytest.raises(ArithmeticError, match=f"^{message}") as raised:
            solve_symmetric(a, lambda0, tau)
        assert type(raised.value) is ArithmeticError
        argv = ["symmetric", "--a", repr(a), "--lambda0", repr(lambda0), "--tau", repr(tau)]
        assert main(argv) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(rf"error: numerical failure \(ArithmeticError: {message}", err), err


# Every public function of symmetric that takes raw rates, and siso's
# single_user_duty, called at (a, lambda0, tau), with the rates it takes.
RAW_ENTRY_POINTS = {
    "flip_log_odds": (flip_log_odds, ("a", "lambda0", "tau")),
    "peak_threshold": (lambda a, lambda0, tau: peak_threshold(lambda0, tau), ("lambda0", "tau")),
    "boundary_half_sums": (
        lambda a, lambda0, tau: boundary_half_sums(a, lambda0, tau, peak_threshold(LAMBDA0, TAU)),
        ("a", "lambda0", "tau"),
    ),
    "schur_classify": (
        lambda a, lambda0, tau: schur_classify(a, lambda0, tau, DutyPair(0.3, 0.1), peak_threshold(LAMBDA0, TAU)),
        ("a", "lambda0", "tau"),
    ),
    "symmetric_fixed_point": (symmetric_fixed_point, ("a", "lambda0", "tau")),
    "line_constrained_max": (lambda a, lambda0, tau: line_constrained_max(a, lambda0, tau, 0.1), ("a", "lambda0", "tau")),
    "solve_symmetric": (solve_symmetric, ("a", "lambda0", "tau")),
    "single_user_duty": (single_user_duty, ("a", "lambda0", "tau")),
}
BAD_RATES = (math.nan, math.inf, 0.0, -1.0)
BAD_RATE_CASES = [
    (entry, arg, value)
    for entry, (_, args) in RAW_ENTRY_POINTS.items()
    for arg in args
    for value in BAD_RATES
    if (entry, arg, value) != ("flip_log_odds", "a", 0.0)  # the flip level is defined at a = 0
    # A NaN background once hung these two, so test_nan_background_ends_in_a_value_error runs them.
    and not (entry in ("peak_threshold", "solve_symmetric") and arg == "lambda0" and math.isnan(value))
]


@pytest.mark.parametrize("entry, arg, value", BAD_RATE_CASES, ids=[f"{e}-{a}-{v}" for e, a, v in BAD_RATE_CASES])
def test_bad_rate_is_a_value_error_naming_it(entry, arg, value):
    call, _ = RAW_ENTRY_POINTS[entry]
    rates = {"a": 10.0, "lambda0": LAMBDA0, "tau": TAU, arg: value}
    with pytest.raises(ValueError, match=rf"^{arg} must be \w+, got {value}"):
        call(rates["a"], rates["lambda0"], rates["tau"])


@pytest.mark.parametrize("half_sum", [math.nan, math.inf, -1.0, 1.5])
def test_bad_half_sum_is_named(half_sum):
    with pytest.raises(ValueError, match=rf"^half_sum must lie in \[0, 1\], got {half_sum}$"):
        line_constrained_max(10.0, LAMBDA0, TAU, half_sum)


@pytest.mark.parametrize("call", ["solve_symmetric(10.0, math.nan, 0.02)", "peak_threshold(math.nan, 0.02)"])
def test_nan_background_ends_in_a_value_error(call):
    # A NaN bracket never ends siso._root's loop, so run in a process that a timeout can end.
    code = f"import math\nfrom poisson_mac.symmetric import *\ntry:\n    {call}\nexcept ValueError as exc:\n    print(exc)"
    src = str(Path(symmetric.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "lambda0 must be finite, got nan\n", "")
