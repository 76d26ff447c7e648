"""Two-user solver: curve geometry, candidate enumeration, strategy selection."""

import collections
import contextlib
import math
import random
import signal
import types

import numpy as np
import pytest

from poisson_mac import channel, gridsearch, siso
from poisson_mac.channel import ChannelParams, DutyPair, grad_mutual_info, hit_probs, mutual_info_rate
from poisson_mac.gridsearch import GridSpec, grid_capacity
from poisson_mac.siso import (
    Strategy,
    f_mac,
    find_intersections,
    g_mac,
    single_user_duty,
    solve,
    solve_many,
    sufficiency_tests,
    sweep_strategy_region,
    uvw,
)

from oracles import profile_max, profile_max_many, profile_of

FIG1 = ChannelParams(1.0, 20.0, 0.001, 0.02)   # no intersection, user 2 only
FIG2 = ChannelParams(10.0, 12.0, 0.001, 0.02)  # one intersection, both active
SYM = ChannelParams(10.0, 10.0, 0.001, 0.02)
# In regime (0.88 of the bound), where g bends down: (g(0) - 2g(h) + g(2h))/h^2 = -15.75 at h = 1e-3.
BENDS_DOWN = ChannelParams(7.117993079090798, 0.23993726143486577, 0.0010123357794915053, 0.08268423068748347)


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

    def test_g_minus_f_has_no_interior_maximum(self):
        # g is not convex in regime: midpoint convexity fails on 23 of
        # random_in_regime's first 4,000 draws.  The search needs only that
        # d = g - f is unimodal, at every tau.  It is checked on the first 40
        # of those draws and the 23, and on 200 seeded draws at 1.01-30x the
        # bound.  On a 2,001-point grid, d never rises above its running
        # minimum before its lowest point, nor falls below its running maximum
        # after it, by more than 8 ulps of its largest magnitude; and
        # find_intersections has one root in each interval where d changes sign.
        rng, channels = random.Random(23), []
        for k in range(4000):
            params = random_in_regime(rng)
            x, y = rng.random(), rng.random()
            if k < 40 or g_mac(params, 0.5 * (x + y)) > 0.5 * (g_mac(params, x) + g_mac(params, y)) + 1e-14:
                channels.append(params)
        assert len(channels) == 40 + 23
        out = random.Random(37)
        for _ in range(200):
            a1, a2, lam0 = 10 ** out.uniform(-2, 3), 10 ** out.uniform(-2, 3), 10 ** out.uniform(-4, 0)
            channels.append(ChannelParams(a1, a2, lam0, out.uniform(1.01, 30.0) * math.log(2) / (a1 + a2 + lam0)))
        xs, roots_seen = [i / 2000 for i in range(2001)], collections.Counter()
        for params in channels:
            d = np.array(list(map(siso._curves_of(hit_probs(params))[1](), xs)))
            low, allowance = int(np.argmin(d)), 8.0 * np.finfo(float).eps * np.abs(d).max()
            rise = d[: low + 1] - np.minimum.accumulate(d[: low + 1])
            fall = np.maximum.accumulate(d[low:]) - d[low:]
            assert max(rise.max(), fall.max()) <= allowance, params
            below = d < 0.0
            crossings = [(xs[i], xs[i + 1]) for i in np.flatnonzero(below[:-1] != below[1:])]
            search = find_intersections(params)
            roots = sorted(pt.mu1 for pt in search.points + search.rejected)
            assert len(roots) == len(crossings) and all(lo <= r <= hi for r, (lo, hi) in zip(roots, crossings)), params
            roots_seen[params.in_regime, len(roots)] += 1
        assert {(False, 0), (False, 1)} <= set(roots_seen), roots_seen

    def test_g_bends_down_in_regime_and_the_search_finds_every_crossing(self):
        params, h = BENDS_DOWN, 1e-3
        assert params.in_regime
        assert (g_mac(params, 0.0) - 2.0 * g_mac(params, h) + g_mac(params, 2.0 * h)) / h**2 < 0.0
        d = siso._curves_of(hit_probs(params))[1]()
        xs = [i / 2000 for i in range(2001)]
        ds = [d(x) for x in xs]
        crossings = [(xs[i], xs[i + 1]) for i in range(2000) if (ds[i] < 0.0) != (ds[i + 1] < 0.0)]
        search = find_intersections(params)
        roots = sorted(pt.mu1 for pt in search.points + search.rejected)
        assert search.reliable and len(roots) == len(crossings) == 1
        assert all(lo <= r <= hi for r, (lo, hi) in zip(roots, crossings))


def outcome(fn, *args):
    """repr of fn(*args), or the name of the ArithmeticError it raises: equal
    outcomes are the same double (NaN and -0.0 included) or the same error."""
    try:
        return repr(fn(*args))
    except ArithmeticError as exc:
        return type(exc).__name__


class TestScalarKernel:
    """The one-closure d = g - f that find_intersections and sufficiency_tests run."""

    @staticmethod
    def d_at(params, mu1):
        return siso._curves_of(hit_probs(params))[1]()(mu1)

    @staticmethod
    def g_minus_f(params, mu1):
        """g_mac - f_mac at any mu1, NaN and the infinities too, which their duty check refuses."""
        hp = hit_probs(params)
        u, v, w = siso._line(hp, hp.entropies)
        return siso._named_zero_division(hp, lambda: siso._curves_of(hp)[0](mu1) - ((u / v) * mu1 + w / v))

    def channels(self):
        rng = random.Random(1313)
        for _ in range(150):
            yield random_in_regime(rng)
        for _ in range(150):  # out of regime, up to 30x the bound
            a1, a2, lam0 = 10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-2, 3), 10 ** rng.uniform(-4, 0)
            yield ChannelParams(a1, a2, lam0, rng.uniform(1.0, 30.0) * math.log(2) / (a1 + a2 + lam0))
        # Saturated: hit levels round to 1 or to the background's, so den = 0
        # at an end of [0, 1] and the line's v is 0.
        yield from (ChannelParams(1000.0, 1000.0, 0.001, 1.0), ChannelParams(50.0, 1e-20, 0.001, 1.0))
        yield ChannelParams(1e-8, 1e-20, 1.0, 0.1)

    def test_d_is_g_minus_f_to_the_bit(self):
        rng = random.Random(1314)
        points = [0.0, 1.0, 0.5, 1e-300, 1.0 - 2**-53, math.nan, math.inf, -math.inf]
        for params in self.channels():
            for x in points + [rng.random() for _ in range(8)]:
                # d's division by 0 named as _search names it, and as g_mac and f_mac do.
                named_d = outcome(siso._named_zero_division, hit_probs(params), lambda: self.d_at(params, x))
                assert named_d == outcome(self.g_minus_f, params, x), (params, x)
                if 0.0 <= x <= 1.0:
                    assert named_d == outcome(lambda x: g_mac(params, x) - f_mac(params, x), x), (params, x)

    def test_g_stays_defined_where_the_line_is_not(self):
        params = ChannelParams(1000.0, 1000.0, 0.001, 1.0)
        assert outcome(self.d_at, params, 0.5) == "ZeroDivisionError"
        assert math.isfinite(g_mac(params, 0.5))

    def test_nan_exponent_stays_nan(self):
        # min(e, 700.0) keeps a NaN exponent in g; e if e < 700.0 else 700.0
        # would not.  Only levels that are no channel's give one with finite
        # den, and there f is NaN as well, so d is NaN either way.
        hp = hit_probs(FIG2)
        h1, h2, _, h4 = hp.entropies
        fake = types.SimpleNamespace(p1=hp.p1, p2=hp.p2, p3=hp.p3, p4=hp.p4, entropies=(h1, h2, math.nan, h4))
        g, make_d = siso._curves_of(fake)
        u, v, w = siso._line((hp.p1, hp.p2, hp.p3, hp.p4), fake.entropies)
        for x in (0.0, 0.3, 1.0):
            assert math.isnan(g(x)) and math.isnan(make_d()(x))
            assert outcome(make_d(), x) == outcome(lambda x: g(x) - (u / v * x + w / v), x)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: sufficiency_tests(ChannelParams(1e-20, 1, 0.001, 0.02)),
            lambda: f_mac(ChannelParams(1e-20, 1, 0.001, 0.02), 0.3),
            lambda: g_mac(ChannelParams(1e-20, 1e-20, 0.001, 0.02), 0.3),
        ],
        ids=["sufficiency_tests", "f_mac", "g_mac"],
    )
    def test_public_curves_name_a_division_by_a_flat_hit_level(self, call):
        # a1 (and a2 for g_mac) vanish beside lambda0: the line's v, or g's
        # den, is a hit-level difference that rounds to 0.
        msg = r"^g - f divides by a hit-level difference that rounds to 0 at the hit levels \S+, \S+, \S+, \S+$"
        with pytest.raises(ArithmeticError, match=msg) as exc:
            call()
        assert not isinstance(exc.value, ZeroDivisionError)

    def test_single_user_screen_reads_g_below_f(self):
        screens = []
        for params in self.channels():
            try:
                record = sufficiency_tests(params)
            except (ArithmeticError, ValueError):
                continue
            g_below_f = g_mac(params, 0.0) < f_mac(params, 0.0) and g_mac(params, 1.0) < f_mac(params, 1.0)
            screens.append(record.single_user_sufficient)
            assert record.single_user_sufficient == g_below_f, params
        assert len(set(screens)) == 2


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
        "params, evaluations",
        [
            # g - f is unimodal (measured) at every tau, so its first sample <= 0
            # splits its roots.  In regime: 2 end values, 1 golden-section
            # sample (0.382, the first) and 8 steps of the root search on
            # [0, 0.382], which is handed d at both ends (52 midpoints of the
            # earlier bisection).
            (FIG2, 11),
            # Out of regime, at 3.0x the bound: 2 end values, 2 golden-section
            # samples (0.382 above 0, then 0.618) and 10 steps of the root
            # search on [0, 0.618].
            (ChannelParams(0.5, 0.3, 20.0, 0.1), 14),
        ],
    )
    def test_evaluations_of_g_minus_f_per_solve(self, monkeypatch, params, evaluations):
        samples, curves_of_hp = [], siso._curves_of

        def counted_curves(hp):
            g, make_d = curves_of_hp(hp)

            def make_counted_d():
                d = make_d()
                return lambda x: samples.append(x) or d(x)

            return g, make_counted_d

        monkeypatch.setattr(siso, "_curves_of", counted_curves)
        assert len(solve(params).search.points) == 1
        assert len(samples) == evaluations

    def test_search_finds_the_roots_of_synthetic_curves(self):
        # The search on synthetic unimodal curves d: no root where d < 0 at
        # both ends, nor where d > 0 at its golden-section minimum, else one
        # root search on each side of that minimum whose end is >= 0.
        def roots(d):
            points, rejected = siso._intersections(lambda x: 0.5, d)
            assert rejected == ()
            return [pt.mu1 for pt in points]

        # Two roots 0.01 apart, which the 33-point scan missed: its interval
        # [0.25, 0.28125] had the same sign at both ends.
        assert roots(lambda x: (x - 0.26) * (x - 0.27)) == [pytest.approx(r, abs=1e-15) for r in (0.26, 0.27)]
        assert roots(lambda x: x - 0.25) == [0.25]
        assert roots(lambda x: (x - 0.3) * (x - 0.7)) == [pytest.approx(r, abs=1e-15) for r in (0.3, 0.7)]
        assert roots(lambda x: x - 2.0) == roots(lambda x: (x - 0.5) ** 2 + 0.01) == []

    @pytest.mark.parametrize(
        "d",
        [
            lambda x: math.nan if x < 0.1 else (x - 0.3) * (x - 0.7),  # at 0: the root 0.3 would drop
            lambda x: math.nan if x > 0.9 else (x - 0.3) * (x - 0.7),  # at 1: the root 0.7 would drop
            # NaN samples never count as <= 0 and send the golden-section pass
            # to the right, where its last midpoint, below 1, is NaN.
            lambda x: math.nan if 0.2 < x < 1.0 else (x - 0.3) * (x - 0.7),
        ],
        ids=["end 0", "end 1", "minimum"],
    )
    def test_search_names_a_nan_that_decides_a_root(self, d):
        with pytest.raises(ArithmeticError, match=r"^g - f is NaN at an end of \[0, 1\] or at its golden-section minimum$"):
            siso._intersections(lambda x: 0.5, d)

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
        # The plain loop is the full 120-step bisection that _root replaced.
        # _root stops on a bracket ~2 ulps wide, so its root is an exact zero
        # or has a sign change among the five doubles within 2 ulps of it,
        # and ends within 2 ulps of the loop's double (on the same double in
        # six cases, one ulp across the sign change for x**3 - 0.7).
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

        root = siso._root(fn, lo, hi, fn(lo), fn(hi))
        assert lo <= root <= hi
        want = plain(lo, hi)
        assert abs(root - want) <= 2.0 * math.ulp(want), (root.hex(), want.hex())
        if fn(root) == 0.0:
            return
        # The five doubles from 2 ulps below the root to 2 ulps above it.
        xs = [root]
        for _ in range(2):
            xs = [math.nextafter(xs[0], -math.inf)] + xs + [math.nextafter(xs[-1], math.inf)]
        signs = [fn(x) > 0.0 for x in xs]
        assert any(fn(x) == 0.0 for x in xs) or len(set(signs)) == 2, (root, [fn(x) for x in xs])

    @staticmethod
    def strong_signal_brackets():
        """The brackets _intersections hands _root on 2,000 seeded in-regime
        channels with max(a1, a2) >= lambda0, as (d, lo, hi, flo, fhi)."""
        rng, brackets, channels = random.Random(2027), [], 0
        while channels < 2000:
            a1, a2, lam0 = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-5, 1)
            tau = 10 ** rng.uniform(-2, 0) * math.log(2) / (a1 + a2 + lam0)
            if max(a1, a2) < lam0:
                continue
            channels += 1
            d = siso._curves_of(hit_probs(ChannelParams(a1, a2, lam0, tau)))[1]()
            m_star, d_m = siso._golden_min(d, 0.0, 1.0, 1e-14)
            d_m = d(m_star) if d_m is None else d_m
            if d_m <= 0.0:
                d_0, d_1 = d(0.0), d(1.0)
                brackets += [(d, 0.0, m_star, d_0, d_m)] if d_0 >= 0.0 else []
                brackets += [(d, m_star, 1.0, d_m, d_1)] if d_1 >= 0.0 else []
        return brackets

    def test_roots_match_the_earlier_bisection(self):
        # The bisection that _root replaced, which halved its bracket to an
        # absolute width of 1e-16 (or until its midpoint stuck): on
        # strong-signal channels the two agree to within a few ulps.
        def bisection(fn, lo, hi, flo):
            if flo == 0.0:
                return lo
            for _ in range(120):
                mid = 0.5 * (lo + hi)
                if mid == lo or mid == hi:
                    return mid
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

        brackets = self.strong_signal_brackets()
        assert len(brackets) > 1000
        for d, lo, hi, flo, fhi in brackets:
            assert siso._root(d, lo, hi, flo, fhi) == pytest.approx(bisection(d, lo, hi, flo), abs=1e-12)

    def test_at_most_twenty_evaluations_a_root(self):
        # Regula falsi with the Anderson-Bjorck weight converges superlinearly
        # (median 6 evaluations here).  Without the step of at least ~1 ulp
        # from each end, a secant point beside a root one ulp from an end
        # rounds onto that end and the safeguard bisects from the far end:
        # up to 49 evaluations on these brackets.
        most = 0
        for d, lo, hi, flo, fhi in self.strong_signal_brackets():
            calls = []
            siso._root(lambda x: calls.append(x) or d(x), lo, hi, flo, fhi)
            most = max(most, len(calls))
        assert most <= 20


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

    def test_cancelled_chord_is_arithmetic_error(self):
        # A peak 1e8 times below the background: the entropy chord and the
        # hit-level gap both cancel, and the closed form gives -2.12.
        with pytest.raises(ArithmeticError, match=r"duty -2.12 is outside \[0, 1\]"):
            single_user_duty(1e-8, 1.0, 0.1)
        with pytest.raises(ArithmeticError):
            solve(ChannelParams(1e-8, 1e-8, 1.0, 0.1))


def seeded_out_of_regime():
    """20 channels with capacities in the thousands, and 20 with near-equal
    moderate peaks, both out of regime."""
    rng = random.Random(113)
    large, near_equal = [], []
    for _ in range(20):
        a1, a2 = rng.uniform(1e4, 1e5), rng.uniform(1.0, 1e4)
        large.append(ChannelParams(a1, a2, 0.001, rng.uniform(1.1, 3.0) * math.log(2) / (a1 + a2 + 0.001)))
        a1 = rng.uniform(5.0, 50.0)
        a2 = a1 * rng.uniform(0.8, 1.25)
        near_equal.append(ChannelParams(a1, a2, 0.001, rng.uniform(1.1, 2.0) * math.log(2) / (a1 + a2 + 0.001)))
    return large, near_equal


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
        # and on every channel, solve's one set-up gives what the public
        # helpers give, read in solve's order: out of regime a failed search
        # is reported empty, in regime solve raises.
        kinds = collections.Counter()
        for params in TestScalarKernel().channels():
            try:
                try:
                    search = find_intersections(params)
                except (ArithmeticError, ValueError):
                    if params.in_regime:
                        raise
                    search = siso.IntersectionSearch(points=(), rejected=(), reliable=False)
                    kinds["no search"] += 1
                solos = [single_user_duty(a, params.lambda0, params.tau) for a in (params.a1, params.a2)]
            except (ArithmeticError, ValueError) as exc:
                with pytest.raises((ArithmeticError, ValueError)) as raised:
                    solve(params)
                assert (type(raised.value), str(raised.value)) == (type(exc), str(exc)), params
                kinds["raised"] += 1
                continue
            report = solve(params)
            assert report.search == search, params
            duties = {c.strategy: c.duty for c in report.candidates}
            edges = duties[Strategy.ONLY_USER1], duties[Strategy.ONLY_USER2]
            assert [x.hex() for x in (edges[0].mu1, edges[1].mu2)] == [x.hex() for x in solos], params
            assert edges[0].mu2 == edges[1].mu1 == 0.0
            kinds["solved"] += 1
        assert kinds["raised"] and kinds["no search"] and kinds["solved"] >= 290, kinds

    @pytest.mark.parametrize("params", [ChannelParams(1000.0, 1000.0, 0.001, 1.0), ChannelParams(1.0, 0.1, 10.0, 5.0)])
    def test_screens_raise_where_the_curve_algebra_fails(self, params):
        # solve answers these saturated channels from its edges and grid;
        # the screens divide by the line's v, which is 0 here.
        assert not params.in_regime and solve(params).search.points == ()
        with pytest.raises(ArithmeticError):
            sufficiency_tests(params)

    def test_candidates_all_below_zero_raise(self):
        # No interior root, and both solo rates are rounding noise below 0,
        # so no candidate is at or above 0, and none may win.
        a, lambda0, tau = 4.999922800686578e-05, 1879.047957630584, 4.792461863126556e-08
        params = ChannelParams(a, a, lambda0, tau)
        assert params.in_regime and find_intersections(params).points == ()
        assert single_user_duty(a, lambda0, tau) > 0.0
        with pytest.raises(ArithmeticError, match="every candidate rate is rounding noise below zero"):
            solve(params)

    def test_one_set_up_per_solve(self, monkeypatch):
        calls = collections.Counter()

        def count(module, name):
            fn = getattr(module, name)

            def counted(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, counted)

        for module, name in ((channel, "hit_probs"), (siso, "hit_probs"), (siso, "_curves_of")):
            count(module, name)
        for module in (channel, siso):
            count(module, "binary_entropy")
        report = solve(FIG2)
        assert report.regime_ok and len(report.search.points) == 1
        assert calls["hit_probs"] == 1 and calls["_curves_of"] == 1
        # four entropies for the set-up, one slot entropy per candidate rated
        assert calls["binary_entropy"] <= 4 + len(report.candidates)

    def test_capacity_dominates_single_user_candidates(self):
        rng = random.Random(25)
        for _ in range(30):
            params = random_in_regime(rng)
            report = solve(params)
            solo = [
                c.rate
                for c in report.candidates
                if c.strategy in (Strategy.ONLY_USER1, Strategy.ONLY_USER2)
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

    def test_candidates_are_listed_in_tie_order(self, monkeypatch):
        # Only real candidates: with no interior root, the two solo duties,
        # user 2 first.  No channel searched so far has two in-box roots, so
        # the search is patched to return two; they come first, in root order.
        assert [c.strategy for c in solve(FIG1).candidates] == [Strategy.ONLY_USER2, Strategy.ONLY_USER1]
        points = (DutyPair(0.2, 0.3), DutyPair(0.25, 0.35))
        monkeypatch.setattr(siso, "_intersections", lambda *_: (points, ()))
        report = solve(FIG2)
        assert [c.strategy for c in report.candidates] == [
            Strategy.BOTH_ACTIVE, Strategy.BOTH_ACTIVE, Strategy.ONLY_USER2, Strategy.ONLY_USER1
        ]
        assert [c.duty for c in report.candidates[:2]] == list(points)
        assert [c.duty.mu1 for c in report.candidates[2:]] == [0.0, single_user_duty(10.0, 0.001, 0.02)]

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
            return real(params, spec)._replace(capacity=expected.capacity + margin)

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

    def test_grid_carries_a_missed_optimum(self, monkeypatch):
        # Out of regime and both active, with the interior candidates hidden:
        # only the edges are enumerated, and the step-1e-2 grid witness
        # carries the result to within its error bound, by a real margin on
        # any host.  Then seeded near-equal moderate peaks, the same way.
        channels = [ChannelParams(10.0, 12.0, 0.001, 0.05), *seeded_out_of_regime()[1]]
        expected = [solve(params) for params in channels]
        assert expected[0].strategy is Strategy.BOTH_ACTIVE and not expected[0].regime_ok
        monkeypatch.setattr(siso, "_intersections", lambda *_: ((), ()))
        for params, want in zip(channels, expected):
            report = solve(params)
            grid = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=0))
            assert report.capacity > max(c.rate for c in report.candidates) + siso.TIE_TOL, params
            assert (report.capacity, report.optimum) == (grid.capacity, grid.duty)
            assert report.strategy is Strategy.BOTH_ACTIVE
            assert 0.0 <= want.capacity - report.capacity <= grid.error_bound, params
            expected_rate = mutual_info_rate(params, report.optimum)
            assert abs(report.capacity - expected_rate) <= 4.0 * math.ulp(1.0) * abs(expected_rate), params

    def test_search_matches_a_fine_scan(self):
        # Seeded out-of-regime channels with unsaturated hit levels: the
        # roots of g - f that the search finds are the sign changes of a
        # 1,001-point scan, one in each of its intervals.  None of them has
        # more than one root.
        rng = random.Random(2026)
        kinds = collections.Counter()
        while sum(kinds.values()) < 300:
            a1, a2, lam0 = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-5, 1)
            params = ChannelParams(a1, a2, lam0, 10 ** rng.uniform(0, 2.5) * math.log(2) / (a1 + a2 + lam0))
            hp = hit_probs(params)
            if params.in_regime or max(hp.p1, hp.p2, hp.p3, hp.p4) > 0.999:
                continue
            d = siso._curves_of(hp)[1]()
            fine = [d(k / 1000) for k in range(1001)]
            assert 0.0 not in fine
            changes = [k for k in range(1000) if (fine[k] < 0.0) != (fine[k + 1] < 0.0)]
            search = find_intersections(params)
            roots = sorted(pt.mu1 for pt in search.points + search.rejected)
            assert [math.floor(r * 1000) for r in roots] == changes, params
            assert search == solve(params).search
            kinds[len(roots)] += 1
        assert set(kinds) == {0, 1}, kinds

    @pytest.mark.parametrize("edge", [0, 1])
    def test_always_on_edge_above_the_rest_replaces_them(self, monkeypatch, edge):
        # solve rates no always-on edge (the property below), but out of
        # regime its grid witness covers them: the lattice ends on 1.0
        # exactly.  No channel has an edge win by more than rounding, so the
        # grid's rate is raised by hand on each edge: user 1 against user 2's
        # light (mu2 = 1), then user 2 against user 1's.
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        assert not params.in_regime
        hp = hit_probs(params)
        p, h = (hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies
        k = (1, 2)[edge]
        duty = siso._solo_duty(p[0], p[k], h[0], h[k])
        rate_grid = gridsearch._rate_grid

        def raised(hp, tau, m1, m2, w=None):
            return rate_grid(hp, tau, m1, m2, w) + np.where((m2, m1)[edge] == 1.0, 1.0 / tau, 0.0)

        monkeypatch.setattr(gridsearch, "_rate_grid", raised)
        report = solve(params)
        assert report.grid_checked and report.strategy is Strategy.BOTH_ACTIVE
        on, free = ((report.optimum.mu2, report.optimum.mu1), (report.optimum.mu1, report.optimum.mu2))[edge]
        # The rate is concave along the edge, so the lattice's best point is
        # within one step of the closed-form duty.
        assert on == 1.0 and abs(free - duty) <= 1e-2
        assert report.capacity == pytest.approx(mutual_info_rate(params, report.optimum) + 1.0 / params.tau, rel=1e-12)
        assert report.capacity > max(c.rate for c in report.candidates) + 1.0

    def test_always_on_edges_never_beat_the_solo_candidates(self):
        # A slot is a hit when any photon arrives, so the light of a user who
        # is always on is noise independent of the other's input, and by data
        # processing I(mu1, 1) <= I(mu1, 0), likewise I(1, mu2) <= I(0, mu2).
        # So the two edges that solve does not rate, each at its closed-form
        # duty, stay below the better solo candidate, at every dead time.
        rng, checked = random.Random(2028), 0
        for _ in range(2000):
            a1, a2, lam0 = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-5, 1)
            params = ChannelParams(a1, a2, lam0, 10 ** rng.uniform(-2, 2.5) * math.log(2) / (a1 + a2 + lam0))
            hp = hit_probs(params)
            p, h = (hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies
            try:
                solo = (DutyPair(0.0, siso._solo_duty(p[1], p[3], h[1], h[3])), DutyPair(siso._solo_duty(p[2], p[3], h[2], h[3]), 0.0))
            except ArithmeticError:
                continue
            best = max(siso._rate(p, h, duty.mu1, duty.mu2) / params.tau for duty in solo)
            for k in (1, 2):  # user 2 always on, then user 1
                try:
                    x = siso._solo_duty(p[0], p[k], h[0], h[k])
                except ArithmeticError:  # a peak far below the other's light cancels the chord
                    continue
                edge = DutyPair(x, 1.0) if k == 1 else DutyPair(1.0, x)
                assert siso._rate(p, h, edge.mu1, edge.mu2) / params.tau <= best + siso.TIE_TOL, (params, edge)
                checked += 1
        assert checked > 3000

    def test_cancelled_always_on_edge_is_left_out(self, capsys):
        # User 1's peak is 1e-9 of user 2's light: the chord of the edge
        # mu2 = 1 cancels, which once made solve exit 4 while it rated the
        # always-on edges.  User 1 adds nothing there, and its own solo duty,
        # against lambda0 alone, is still defined: user 2 alone wins.
        params = ChannelParams(1e-7, 100.0, 0.001, 0.1)
        hp = hit_probs(params)
        with pytest.raises(ArithmeticError, match="entropy chord cancelled"):
            siso._solo_duty(hp.p1, hp.p2, *hp.entropies[:2])
        report = solve(params)
        assert not report.regime_ok and report.strategy is Strategy.ONLY_USER2
        assert report.capacity == report.candidates[0].rate
        from poisson_mac.cli import main

        assert main("solve --a1 1e-7 --a2 100 --tau 0.1".split()) == 0
        assert capsys.readouterr().out.endswith(",OnlyUser2,false\n")

    def test_out_of_regime_never_below_the_profile(self):
        # The dense profile maximiser of tests/oracles.py (step 1e-9 in mu1)
        # over 400 seeded out-of-regime channels, peaks up to 1e4 and
        # lambda0 from 1e-5 to 10.  The profile's rates are on numpy's exp
        # and logs, which may differ from math's in the last bits: at
        # capacities in the thousands, TIE_TOL is only a few ulps.
        rng = random.Random(1515)
        for _ in range(400):
            a1, a2, lam0 = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-5, 1)
            params = ChannelParams(a1, a2, lam0, 10 ** rng.uniform(0, 2.5) * math.log(2) / (a1 + a2 + lam0))
            report = solve(params)
            with np.errstate(all="ignore"):
                oracle, _ = profile_max(profile_of(hit_probs(params), params.tau))
            assert report.capacity >= oracle - max(siso.TIE_TOL, 8.0 * math.ulp(oracle)), params

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
    """The tests' 1-D profile maximiser (tests/oracles.py), the oracle of
    out-of-regime solve and of the continuous enumeration, on profiles whose
    answer is known exactly."""

    @staticmethod
    def _flat(rate):
        return lambda x: (rate(x), np.zeros_like(x))

    def test_rival_peak_is_refined(self):
        # A narrow peak of 1 + 1e-6 between coarse points samples at ~0.99984
        # there, below the broad peak's 1.0; only carrying it as a second
        # incumbent finds it.
        def rate(x):
            return np.maximum(1.0 - 1e3 * (x - 0.3) ** 2, 1.0 + 1e-6 - 1e3 * (x - 0.6004) ** 2)

        value, duty = profile_max(self._flat(rate))
        assert value == pytest.approx(1.0 + 1e-6, abs=1e-12)
        assert duty.mu1 == pytest.approx(0.6004, abs=1e-9) and duty.mu2 == 0.0

    def test_incumbent_moves_only_to_a_strictly_better_point(self):
        # The plateau starts half a coarse step before its first coarse
        # point; every zoom window reaches points as good, none better.
        value, duty = profile_max(self._flat(lambda x: np.where(x >= 0.2995, 1.0, 0.0)))
        assert value == 1.0
        assert duty.mu1 == np.linspace(0.0, 1.0, 1001)[300]

    def test_nan_never_wins(self):
        value, duty = profile_max(self._flat(lambda x: np.where(x > 0.5, np.nan, x)))
        assert value == 0.5 and duty.mu1 == 0.5

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_no_finite_rate_is_arithmetic_error(self, level):
        # Overflowed rates: there is nothing to maximise, and no duty to report.
        with pytest.raises(ArithmeticError, match="no finite rate"):
            profile_max(lambda x: (np.full_like(x, level), np.full_like(x, np.nan)))


    def test_incumbent_exactly_three_steps_away_is_kept(self):
        # Coarse samples 2 and 5 are 3 steps apart to the last bit, so 5 is a
        # second incumbent; only its window reaches the narrow peak at 0.0042.
        def rate(x):
            return np.maximum(1.0 - 10.0 * (x - 0.002) ** 2, 1.0 + 1e-6 - 1e7 * (x - 0.0042) ** 2)

        value, duty = profile_max(self._flat(rate))
        assert value == pytest.approx(1.0 + 1e-6, abs=1e-12)
        assert duty.mu1 == pytest.approx(0.0042, abs=1e-9)

    def test_lanes_match_one_lane_runs(self):
        # Nine lanes of rival peaks, a narrow rival between coarse points in
        # some, a plateau (ties), a NaN half and a lane with no finite rate:
        # each lane of one batch gives what the maximiser gives on it alone.
        rng = np.random.default_rng(12)
        c1, c2 = rng.uniform(0.0, 1.0, 9), rng.uniform(0.0, 1.0, 9) + 4e-4
        h2 = 1.0 + rng.choice([-1e-6, 0.0, 1e-6], 9)
        kind = np.array([0, 0, 1, 0, 2, 0, 3, 0, 0])  # 1 plateau, 2 NaN above 0.5, 3 all NaN

        def family(c1, c2, h2, kind):
            def profile(x):
                rate = np.maximum(1.0 - 1e3 * (x - c1) ** 2, h2 - 1e7 * (x - c2) ** 2)
                rate = np.where(kind == 1, np.where(x >= c1, 1.0, 0.0), rate)
                rate = np.where(((kind == 2) & (x > 0.5)) | (kind == 3), np.nan, rate)
                return rate, x * x

            return profile

        finite, rate, mu1, mu2 = (
            v.tolist() for v in profile_max_many(family(*(v[:, None] for v in (c1, c2, h2, kind))), 9)
        )
        assert finite == (kind != 3).tolist()
        for i, lane in enumerate(zip(c1.tolist(), c2.tolist(), h2.tolist(), kind.tolist())):
            if not finite[i]:
                with pytest.raises(ArithmeticError, match="no finite rate"):
                    profile_max(family(*lane))
                continue
            value, duty = profile_max(family(*lane))
            assert (rate[i], mu1[i], mu2[i]) == (value, duty.mu1, duty.mu2), lane
        assert len({mu1[i] for i in range(9) if finite[i]}) == 8


SATURATED = [
    ChannelParams(1000.0, 10.0, 0.001, 0.1),  # p1 = p3 = 1: den = 0 at mu1 = 1
    ChannelParams(1.0, 0.1, 10.0, 5.0),  # every hit level is 1: den = 0 everywhere
]


def _old_profile_of(hp, tau):
    """The profile oracle as it was before it ran the batch's g and rate."""
    (h1, h2, h3, h4), p1, p2, p3, p4 = hp.entropies, hp.p1, hp.p2, hp.p3, hp.p4
    dp_13, dp_24, dh_13, dh_24 = p1 - p3, p2 - p4, h1 - h3, h2 - h4

    def profile(mu1):
        nu1 = 1.0 - mu1
        den = mu1 * dp_13 + nu1 * dp_24
        a_m = np.exp(np.minimum((mu1 * dh_13 + nu1 * dh_24) / den, 700.0))
        g = (1.0 / (a_m + 1.0) - (mu1 * p3 + nu1 * p4)) / den
        mu2 = np.fmin(np.fmax(g, 0.0), 1.0)
        w0, w1, w2, w3 = mu1 * mu2, nu1 * mu2, mu1 * (1.0 - mu2), nu1 * (1.0 - mu2)
        ph = w0 * p1 + w1 * p2 + w2 * p3 + w3 * p4
        h = -ph * np.log(ph) - (1.0 - ph) * np.log1p(-ph)
        if not (ph.min() > 0.0 and ph.max() < 1.0):
            h = np.where((ph == 0.0) | (ph == 1.0), 0.0, h)
        return (h - (w0 * h1 + w1 * h2 + w2 * h3 + w3 * h4)) / tau, mu2

    return profile


class TestProfileKernel:
    """Out-of-regime solve, which runs math's exp and logs and no profile, and
    the tests' profile oracle (oracles.profile_of, the batch's g and rate on
    numpy's exp and logs), against its earlier form bit for bit."""

    @pytest.mark.parametrize(
        "params", [ChannelParams(10.0, 30.0, 0.001, 0.02), ChannelParams(8850.0, 4010.0, 0.001, 7.92e-05)]
    )
    def test_out_of_regime_solve_needs_no_lane_by_lane_math(self, monkeypatch, params):
        def unused(fn, x):
            raise AssertionError("siso._lanes called")

        monkeypatch.setattr(siso, "_lanes", unused)
        report = solve(params)
        assert not report.regime_ok and report.grid_checked

    def test_in_regime_batch_stays_lane_exact(self, monkeypatch):
        calls, lanes = [], siso._lanes
        monkeypatch.setattr(siso, "_lanes", lambda fn, x: calls.append(fn) or lanes(fn, x))
        solve_many([10.0, 1.0], [12.0, 20.0], 0.001, 0.02)
        assert set(calls) == {math.expm1, math.log, math.log1p, math.exp}

    def test_winning_point_agrees_with_the_scalar_rate(self):
        # Seeded out-of-regime channels with capacities in the thousands,
        # where TIE_TOL is a few ulps.  The profile that solve once ran could
        # win there by rounding noise and report its own lattice duty; now
        # the winner is a closed-form candidate, whose rate is the scalar rate.
        for params in seeded_out_of_regime()[0]:
            report = solve(params)
            assert report.capacity > 1e3 and (report.capacity, report.optimum, report.strategy) in [
                (c.rate, c.duty, c.strategy) for c in report.candidates
            ], params
            assert report.capacity == mutual_info_rate(params, report.optimum), params

    def test_profile_gives_the_bits_of_its_earlier_kernel(self):
        rng = random.Random(181)
        channels = list(SATURATED)
        for _ in range(200):
            a1, a2 = 10.0 ** rng.uniform(-3.0, 4.0), 10.0 ** rng.uniform(-3.0, 4.0)
            lambda0 = 10.0 ** rng.uniform(-4.0, 1.5)
            channels.append(ChannelParams(a1, a2, lambda0, 10.0 ** rng.uniform(0.0, 2.0) * math.log(2) / (a1 + a2 + lambda0)))
        mu1 = np.concatenate((np.arange(1001) * 1e-3, np.random.default_rng(181).uniform(0.0, 1.0, 300)))
        with np.errstate(all="ignore"):
            for params in channels:
                hp = hit_probs(params)
                new, old = profile_of(hp, params.tau)(mu1), _old_profile_of(hp, params.tau)(mu1)
                assert [v.tobytes() for v in new] == [v.tobytes() for v in old], params

    @pytest.mark.parametrize("params", SATURATED)
    def test_saturated_samples_keep_mu2_in_the_box(self, params):
        hp, mu1 = hit_probs(params), np.linspace(0.0, 1.0, 1001)
        den = mu1 * (hp.p1 - hp.p3) + (1.0 - mu1) * (hp.p2 - hp.p4)
        with np.errstate(all="ignore"):
            rate, mu2 = profile_of(hp, params.tau)(mu1)
        assert (den == 0.0).any()
        assert np.isfinite(mu2).all() and ((0.0 <= mu2) & (mu2 <= 1.0)).all()
        assert np.isfinite(rate[den == 0.0]).all()


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


def region_tau(a1_grid, a2_grid, fraction=0.8, lambda0=0.001):
    """One dead time per cell, fraction * ln2 / (a1 + a2 + lambda0), the rule of --tau-scale."""
    return fraction * math.log(2.0) / (np.add.outer(a1_grid, a2_grid) + lambda0)


class TestSweep:
    def test_labels_shape_and_diagonal(self):
        grid = [2.0, 6.0, 10.0]
        labels = sweep_strategy_region(grid, grid, 0.001, region_tau(grid, grid))
        assert len(labels) == 3 and all(len(row) == 3 for row in labels)
        for i in range(3):
            assert labels[i][i] is Strategy.BOTH_ACTIVE

    def test_transpose_symmetry_with_users_swapped(self):
        a1_grid, a2_grid = [2.0, 8.0], [3.0, 12.0]
        fwd = sweep_strategy_region(a1_grid, a2_grid, 0.001, region_tau(a1_grid, a2_grid))
        rev = sweep_strategy_region(a2_grid, a1_grid, 0.001, region_tau(a2_grid, a1_grid))
        swap = {
            Strategy.ONLY_USER1: Strategy.ONLY_USER2,
            Strategy.ONLY_USER2: Strategy.ONLY_USER1,
            Strategy.BOTH_ACTIVE: Strategy.BOTH_ACTIVE,
        }
        for i in range(len(a1_grid)):
            for j in range(len(a2_grid)):
                assert fwd[i][j] is swap[rev[j][i]]

    def test_per_cell_tau_is_the_cells_own(self):
        # Each cell is solved at its own dead time, in row order.
        a1_grid, a2_grid = [1.0, 10.0, 30.0], [2.0, 12.0]
        tau = region_tau(a1_grid, a2_grid, fraction=1.5)
        labels = sweep_strategy_region(a1_grid, a2_grid, 0.001, tau)
        for i, a1 in enumerate(a1_grid):
            for j, a2 in enumerate(a2_grid):
                assert labels[i][j] is solve(ChannelParams(a1, a2, 0.001, float(tau[i, j]))).strategy

    def test_fixed_tau_rule(self):
        labels = sweep_strategy_region([1.0], [20.0], 0.001, 0.02)
        assert labels[0][0] is Strategy.ONLY_USER2

    def test_constant_tau_array_gives_the_labels_of_the_float(self):
        # At tau = 0.02 the grid crosses the regime bound, so both kinds of lane run.
        a1_grid, a2_grid = [1.0, 5.0, 10.0, 30.0], [1.0, 12.0, 20.0]
        fixed = sweep_strategy_region(a1_grid, a2_grid, 0.001, 0.02)
        assert {label for row in fixed for label in row} == set(Strategy)
        assert sweep_strategy_region(a1_grid, a2_grid, 0.001, np.full((4, 3), 0.02)) == fixed

    @pytest.mark.parametrize("shape", [(2, 3), (6,), (2,), (1, 2), (3, 1), (1, 3, 2)])
    def test_tau_of_the_wrong_shape_is_refused(self, shape):
        with pytest.raises(ValueError, match=rf"^tau must be one dead time or one per cell, of shape \(3, 2\), got shape"):
            sweep_strategy_region([1.0, 2.0, 3.0], [4.0, 5.0], 0.001, np.full(shape, 0.02))

    def test_empty_axes(self):
        assert sweep_strategy_region([], [1.0], 0.001, 0.02) == []
        assert sweep_strategy_region([1.0, 2.0], [], 0.001, 0.02) == [[], []]
        assert sweep_strategy_region([1.0, 2.0], [], 0.001, np.empty((2, 0))) == [[], []]


@contextlib.contextmanager
def wall_bound(seconds):
    """Fail with TimeoutError, instead of hanging, after seconds of wall time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def curves_of(channels):
    """The batch's curves for a list of channels, with each one's scalar g - f:
    the d that find_intersections runs."""
    hps = [hit_probs(c) for c in channels]
    p = tuple(np.array([getattr(hp, k) for hp in hps]) for k in ("p1", "p2", "p3", "p4"))
    curves = siso._curves_many(p, tuple(siso._entropy_many(q) for q in p))
    return curves, [siso._curves_of(hp)[1]() for hp in hps]


def in_regime_row(a1, a2_values, fraction=0.8):
    return [a1] * len(a2_values), list(a2_values), [fraction * math.log(2.0) / (a1 + x + 0.001) for x in a2_values]


def golden_lane_counts(monkeypatch):
    """A list that each call of siso._golden_min_many appends its lane count to."""
    sizes, golden = [], siso._golden_min_many
    monkeypatch.setattr(siso, "_golden_min_many", lambda c, tol: sizes.append(c.slope.size) or golden(c, tol))
    return sizes


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

    def test_knife_edges_where_the_root_leaves_the_box(self):
        # At 0.8 of the regime bound the one interior root crosses mu1 = 0
        # where a2 is about 1.9 a1 (between 18.98 and 19.11 at a1 = 10), and
        # g - f at 0 changes sign.  Lanes a few ulps either side of each such
        # a2 put the searches' decisions within rounding of their thresholds.
        def channel(a1, a2):
            return ChannelParams(a1, a2, 0.001, 0.8 * math.log(2) / (a1 + a2 + 0.001))

        def roots(a1, a2):
            search = find_intersections(channel(a1, a2))
            return len(search.points) + len(search.rejected)

        a1, a2 = [], []
        for peak in (2.5, 5.0, 10.0, 20.0, 40.0):
            lo, hi = 1.8 * peak, 2.0 * peak
            assert (roots(peak, lo), roots(peak, hi)) == (1, 0)
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (mid, hi) if roots(peak, mid) == 1 else (lo, mid)
            edge = [lo]
            for _ in range(6):
                edge = [math.nextafter(edge[0], 0.0), *edge, math.nextafter(edge[-1], math.inf)]
            a1 += [peak] * len(edge)
            a2 += edge
        batch = assert_batch_matches_scalar(a1, a2, 0.001, [channel(x1, x2).tau for x1, x2 in zip(a1, a2)])
        assert set(batch.strategies()) == {Strategy.BOTH_ACTIVE, Strategy.ONLY_USER2}

    def test_knife_edges_where_mu2_leaves_the_box(self):
        # Just below the a2 where the interior root's mu2 crosses 0, mu2 is
        # -6e-11 to -6e-7: out of the box by more than BOX_SLACK, yet the
        # clipped pair rates within TIE_TOL of user 1 alone, so a root rated
        # without the box check would win the tie as both-active.
        def channel(a1, a2):
            return ChannelParams(a1, a2, 0.001, 0.8 * math.log(2) / (a1 + a2 + 0.001))

        a1, a2 = [], []
        for peak in (2.5, 10.0, 40.0):
            lo, hi = 0.3 * peak, 0.7 * peak
            assert not find_intersections(channel(peak, lo)).points and find_intersections(channel(peak, hi)).points
            while (mid := 0.5 * (lo + hi)) not in (lo, hi):
                lo, hi = (lo, mid) if find_intersections(channel(peak, mid)).points else (mid, hi)
            a1 += [peak] * 5
            a2 += [lo * (1.0 - 10.0**-k) for k in range(6, 11)]
        batch = assert_batch_matches_scalar(a1, a2, 0.001, [channel(x1, x2).tau for x1, x2 in zip(a1, a2)])
        assert batch.strategies() == [Strategy.ONLY_USER1] * len(a1)

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

    def test_no_lane_brackets_a_root(self, monkeypatch):
        # At a1 = 1 and a2 from 10 to 40, g - f < 0 at both ends of every
        # lane, so the golden-section pass gets no lane at all.
        a1, a2, tau = in_regime_row(1.0, [10.0 + k for k in range(31)])
        sizes = golden_lane_counts(monkeypatch)
        with wall_bound(30.0):
            batch = assert_batch_matches_scalar(a1, a2, 0.001, tau)
        assert sizes == [0]
        assert batch.strategies() == [Strategy.ONLY_USER2] * len(a2)

    def test_lanes_without_a_root_rate_no_interior_candidate(self, monkeypatch):
        # On the a1 = 1 row above a lane takes 4 expm1s (its hit levels), 4
        # exps (g at both ends, both solo duties), and 6 logs and 6 log1ps
        # (its four entropies, the two solo rates): no g or rate at a root.
        a1, a2, tau = in_regime_row(1.0, [10.0 + k for k in range(31)])
        counts, lanes = collections.Counter(), siso._lanes
        monkeypatch.setattr(siso, "_lanes", lambda fn, x: counts.update({fn: x.size}) or lanes(fn, x))
        solve_many(a1, a2, 0.001, tau)
        assert dict(counts) == {math.expm1: 124, math.exp: 124, math.log: 186, math.log1p: 186}

    def test_out_of_regime_lanes_enumerate_as_solve(self):
        # Seeded lanes at 1.01-1000x the regime bound: every lane the
        # enumeration marks finite gives solve's result to the bit, and some
        # have a root on [m*, 1], a row that in regime is nearly always empty.
        rng = np.random.default_rng(2)
        a1, a2 = 10.0 ** rng.uniform(-1.0, 2.0, 800), 10.0 ** rng.uniform(-1.0, 2.0, 800)
        lambda0 = 10.0 ** rng.uniform(-3.0, 0.0, 800)
        tau = np.exp(rng.uniform(math.log(1.01), math.log(1000.0), 800)) * math.log(2.0) / (a1 + a2 + lambda0)
        with np.errstate(all="ignore"):
            capacity, mu1, mu2, code, finite = siso._enumerate_many(a1, a2, lambda0, tau)
        right = 0
        for i in np.flatnonzero(finite).tolist():
            params = ChannelParams(float(a1[i]), float(a2[i]), float(lambda0[i]), float(tau[i]))
            report = solve(params)
            assert not report.regime_ok, params
            got = (capacity[i], mu1[i], mu2[i], siso._BY_RANK[code[i]])
            assert got == (report.capacity, *report.optimum, report.strategy), params
            d = siso._curves_of(hit_probs(params))[1]()
            m_star, d_m = siso._golden_min(d, 0.0, 1.0, 1e-14)
            right += d(1.0) >= 0.0 and (d(m_star) if d_m is None else d_m) <= 0.0
        assert finite.sum() > 500 and right > 0

    def test_mixed_grid_searches_only_the_lanes_that_can_cross(self, monkeypatch):
        # Rows a1 = 1 (g - f < 0 at both ends from a2 ~ 1.9) and a1 = 10
        # (roots up to a2 ~ 19) over a2 from 1 to 40.
        rows = [in_regime_row(x, [1.0 + 1.5 * k for k in range(27)]) for x in (1.0, 10.0)]
        a1, a2, tau = ([v for row in rows for v in row[i]] for i in range(3))
        sizes = golden_lane_counts(monkeypatch)
        with wall_bound(30.0):
            batch = assert_batch_matches_scalar(a1, a2, 0.001, tau)
        assert len(sizes) == 1 and 0 < sizes[0] < len(a1)
        assert set(batch.strategies()) == set(Strategy)

    def test_passes_on_zero_lanes(self):
        curves, _ = curves_of([])
        with wall_bound(30.0):
            m_star, d_m = siso._golden_min_many(curves, 1e-14)
            assert m_star.shape == d_m.shape == (0,)
            empty = np.empty(0)
            assert siso._root_many(curves, empty, empty, empty, empty).shape == (0,)
            assert solve_many([], [], 0.001, []).capacity.shape == (0,)
            # sweep-peak with only the continuous reference solves no finite-tau lane.
            assert solve_many([10.0], [], 0.001, 0.02).capacity.shape == (0,)

    def test_no_lane_in_regime_skips_the_enumeration(self, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("enumerated a batch with no lane in regime")

        monkeypatch.setattr(siso, "_enumerate_many", refuse)
        assert solve_many([], [], 0.001, []).capacity.shape == (0,)
        channels = [ChannelParams(10.0, 30.0, 0.001, 0.02), ChannelParams(3.0, 4.0, 0.001, 2.5)]
        batch = solve_many(*zip(*((p.a1, p.a2, p.lambda0, p.tau) for p in channels)))
        reports = [solve(p) for p in channels]
        assert batch.capacity.tolist() == [r.capacity for r in reports]
        assert batch.mu1.tolist() == [r.optimum.mu1 for r in reports]
        assert batch.mu2.tolist() == [r.optimum.mu2 for r in reports]
        assert batch.strategies() == [r.strategy for r in reports]
        # sweep-peak with only continuous rows, as in its golden case.
        from poisson_mac.cli import main

        assert main("sweep-peak --a1 10 --a2 5:10:5 --tau 0".split()) == 0
        assert capsys.readouterr().out == (
            "# command=sweep-peak a1=10 lambda0=0.001 a2=5:10:5 tau=0\n"
            "a2,tau,mu1,mu2,capacity\n"
            "5,0,0.36695335548,0.00815585482558,3.67354638935\n"
            "10,0,0.266188032485,0.266188032485,4.33358119883\n"
        )

    def test_passes_match_their_scalar_loops(self):
        # g - f <= 0 at the golden-section pass's first sample, at its
        # second, at its 14th (far out of regime), and nowhere: at 45x the
        # regime bound the background saturates the hit levels, g - f >= 0.025
        # at the ends and > 0 in between, and the pass runs to its width.
        channels = [
            FIG2,
            ChannelParams(17.47, 4.94, 0.001, 0.5 * math.log(2) / 22.411),
            ChannelParams(300.0, 200.0, 3.0, 0.12),
            ChannelParams(0.0025, 0.1, 14.0, 2.2),
        ]
        curves, fns = curves_of(channels)
        samples = collections.Counter()
        counted = [lambda x, i=i, fn=fn: samples.update([i]) or fn(x) for i, fn in enumerate(fns)]
        scalar = [siso._golden_min(fn, 0.0, 1.0, 1e-14) for fn in counted]
        assert [samples[i] for i in range(4)] == [1, 2, 14, 69]
        m_star, d_m = siso._golden_min_many(curves, 1e-14)
        assert [x.hex() for x in m_star.tolist()] == [x.hex() for x, _ in scalar]
        assert [x.hex() for x in d_m.tolist()] == [(math.nan if v is None else v).hex() for _, v in scalar]
        assert (d_m[:3] <= 0.0).all() and scalar[3][1] is None and fns[3](m_star[3]) > 0.0
        for lo, hi in ((np.zeros(4), m_star), (m_star, np.ones(4))):
            flo, fhi = (np.array([fn(x) for fn, x in zip(fns, ends.tolist())]) for ends in (lo, hi))
            roots = siso._root_many(curves, lo, hi, flo, fhi)
            brackets = zip(lo.tolist(), hi.tolist(), flo.tolist(), fhi.tolist())
            want = [siso._root(fn, *b) for fn, b in zip(fns, brackets)]
            assert [x.hex() for x in roots.tolist()] == [x.hex() for x in want]

    def test_nan_width_counts_as_finished(self):
        # With a NaN tolerance every width test fails, as for a NaN width:
        # a lane whose first sample has g - f <= 0 leaves with it, and the
        # others get the midpoint of [0, 1] with no value, as from the scalar
        # loop.
        second = ChannelParams(17.47, 4.94, 0.001, 0.5 * math.log(2) / 22.411)
        curves, fns = curves_of([FIG1, FIG2, SYM, second])
        with wall_bound(30.0):
            m_star, d_m = siso._golden_min_many(curves, math.nan)
        scalar = [siso._golden_min(fn, 0.0, 1.0, math.nan) for fn in fns]
        assert m_star.tolist() == [x for x, _ in scalar]
        assert d_m[:3].tolist() == [v for _, v in scalar[:3]]
        assert (m_star[3], scalar[3][1]) == (0.5, None) and math.isnan(d_m[3])

    def test_lane_evaluations_on_the_readme_grid(self, monkeypatch):
        # The cells of sweep-region --a1 1:30 --a2 1:30 --cells 30 at the
        # default rule.  Evaluating only what solve reads takes 7,083
        # evaluations of g - f over the 900 lanes: 1,800 at the ends of
        # [0, 1], 906 in the golden-section pass, where each of the 669 lanes
        # searched leaves at its first or second sample, where g - f <= 0,
        # and 4,377 in the root pass over the 669 roots (6.5 a root; the
        # earlier bisection took 35,015, for 37,721 in all).  Running the
        # golden-section pass to its width, as before its early exit, made
        # 83,667, and one more sample per searched lane would add 669.
        axis = [1.0 + 29.0 * i / 29 for i in range(30)]
        rows = [in_regime_row(x, axis) for x in axis]
        a1, a2, tau = ([v for row in rows for v in row[i]] for i in range(3))
        d, golden = siso._CurvesMany.d, siso._golden_min_many
        lanes, searched = [], []

        def counted(curves, mu1):
            lanes.append(mu1.size)
            return d(curves, mu1)

        def recorded(curves, tol):
            n = curves.slope.size
            searched.append(np.maximum(d(curves, np.zeros(n)), d(curves, np.ones(n))))
            return golden(curves, tol)

        monkeypatch.setattr(siso._CurvesMany, "d", counted)
        monkeypatch.setattr(siso, "_golden_min_many", recorded)
        assert_batch_matches_scalar(a1, a2, 0.001, tau)
        assert sum(lanes) <= 7_100
        [ends] = searched
        assert 0 < ends.size < len(a1)
        assert (ends >= 0.0).all()
