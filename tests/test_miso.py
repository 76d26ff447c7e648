"""Multi-antenna reduction: staircase PMFs, joint objective, summed-peak solve."""

import itertools
import math
import random

import pytest

from poisson_mac.channel import ChannelParams, DutyPair, mutual_info
from poisson_mac.miso import (
    JointPmf,
    MisoConfig,
    miso_mutual_info,
    miso_pmf_enumeration,
    nu_pmf,
    solve_miso,
    subset_rates,
)
from poisson_mac.siso import solve

CFG_2X2 = MisoConfig((5.0, 5.0), (6.0, 6.0), 0.001, 0.02)


def _collapse(config, peaks, q):
    """The all-on/all-off PMF with q's mean no-hit factor E_q[exp(-A_S tau)]:
    its on-mass is E_q[1 - exp(-A_S tau)] / (1 - exp(-A_all tau))."""
    hits = [-math.expm1(-r * config.tau) for r in subset_rates(peaks).tolist()]
    on = min(1.0, sum(w * h for w, h in zip(q.masses, hits)) / hits[-1])
    masses = [0.0] * len(q.masses)
    masses[0], masses[-1] = 1.0 - on, on
    return JointPmf(tuple(masses))


def _random_config(rng, max_antennas, tau_factor):
    """Peaks 10^U(-1, 2), lambda0 10^U(-3, 0), tau at tau_factor times the regime bound."""
    peaks = [tuple(10 ** rng.uniform(-1, 2) for _ in range(rng.randint(1, max_antennas))) for _ in range(2)]
    lambda0 = 10 ** rng.uniform(-3, 0)
    bound = math.log(2.0) / (sum(peaks[0]) + sum(peaks[1]) + lambda0)
    return MisoConfig(*peaks, lambda0, tau_factor * bound)


def _random_pmf(rng, n_antennas):
    """A PMF over the on-sets of n_antennas, about a fifth of them of mass 0."""
    weights = [rng.random() ** 3 if rng.random() < 0.8 else 0.0 for _ in range(1 << n_antennas)]
    weights[rng.randrange(len(weights))] += 0.1
    return JointPmf(tuple(w / sum(weights) for w in weights))


def _slack(rate):
    """Rounding allowance of a comparison of per-slot rates."""
    return max(1e-12, 1e-9 * abs(rate))


class TestNuPmf:
    def test_two_antenna_example(self):
        dense = nu_pmf([0.6, 0.3]).masses
        assert dense[0] == pytest.approx(0.4)
        assert dense[0b01] == pytest.approx(0.3)
        assert dense[0b11] == pytest.approx(0.3)
        assert dense[0b10] == 0.0

    def test_equal_duties_two_point(self):
        dense = nu_pmf([0.5, 0.5, 0.5]).masses
        assert dense[0] == pytest.approx(0.5)
        assert dense[0b111] == pytest.approx(0.5)
        assert sum(1 for m in dense if m > 0) == 2

    def test_all_on(self):
        dense = nu_pmf([1.0, 1.0]).masses
        assert dense[0b11] == pytest.approx(1.0)

    def test_marginals_reproduced_exactly(self):
        rng = random.Random(41)
        for _ in range(50):
            duties = [rng.random() for _ in range(rng.randint(1, 6))]
            joint = nu_pmf(duties)
            for j, d in enumerate(duties):
                assert joint.marginal(j) == pytest.approx(d, abs=1e-15)

    def test_support_nested(self):
        # The on-sets of nonzero mass form a chain, ties among the duties included.
        rng = random.Random(42)
        for _ in range(50):
            duties = [rng.choice((rng.random(), 0.5)) for _ in range(rng.randint(2, 6))]
            masses = nu_pmf(duties).masses
            support = sorted((i for i, m in enumerate(masses) if m > 0.0), key=int.bit_count)
            for prev, cur in zip(support, support[1:]):
                assert prev & cur == prev  # every on-set contains the previous

    def test_masses_sum_to_one(self):
        assert sum(nu_pmf([0.9, 0.1, 0.5, 0.5]).masses) == pytest.approx(1.0, abs=1e-15)

    def test_tied_duties_give_one_pmf(self):
        # The step between tied antennas has mass 0, so no order among them is needed.
        assert nu_pmf([0.4, 0.4]) == JointPmf((0.6, 0.0, 0.0, 0.4))
        assert nu_pmf([0.7, 0.2, 0.7]) == JointPmf((1.0 - 0.7, 0.0, 0.0, 0.0, 0.0, 0.7 - 0.2, 0.0, 0.2))


class TestJointPmf:
    def test_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            JointPmf((0.5, 0.6))
        with pytest.raises(ValueError):
            JointPmf((1.2, -0.2))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            JointPmf((0.5, 0.25, 0.25))

    def test_subset_rates_bitmask(self):
        rates = subset_rates([5.0, 7.0])
        assert list(rates) == [0.0, 5.0, 7.0, 12.0]


class TestJointObjective:
    def test_single_antenna_reduces_to_two_user_form(self):
        config = MisoConfig((10.0,), (12.0,), 0.001, 0.02)
        params = ChannelParams(10.0, 12.0, 0.001, 0.02)
        for mu1, mu2 in ((0.3, 0.4), (0.0, 0.9), (1.0, 1.0)):
            value = miso_mutual_info(
                config, JointPmf((1 - mu1, mu1)), JointPmf((1 - mu2, mu2))
            )
            assert value == pytest.approx(
                mutual_info(params, DutyPair(mu1, mu2)), abs=1e-15
            )

    def test_equal_duty_staircases_match_summed_peak_channel(self):
        params = ChannelParams(10.0, 12.0, 0.001, 0.02)
        rng = random.Random(43)
        for _ in range(20):
            mu1, mu2 = rng.random(), rng.random()
            value = miso_mutual_info(
                CFG_2X2, nu_pmf([mu1, mu1]), nu_pmf([mu2, mu2])
            )
            assert value == pytest.approx(
                mutual_info(params, DutyPair(mu1, mu2)), abs=1e-14
            )

    def test_staircase_beats_uniform_same_marginals(self):
        # Uniform over subsets has every marginal 0.5; the staircase with the
        # same marginals concentrates on (none, all) and scores at least as high.
        uniform = JointPmf((0.25, 0.25, 0.25, 0.25))
        stair = nu_pmf([0.5, 0.5])
        other = nu_pmf([0.4, 0.7])
        assert miso_mutual_info(CFG_2X2, stair, other) >= miso_mutual_info(
            CFG_2X2, uniform, other
        )

    def test_staircase_optimal_over_enumerated_family(self):
        rng = random.Random(44)
        for _ in range(20):
            d1 = [rng.random(), rng.random()]
            d2 = [rng.random(), rng.random()]
            best = miso_pmf_enumeration(CFG_2X2, d1, d2, step=1e-2)
            stair = miso_mutual_info(CFG_2X2, nu_pmf(d1), nu_pmf(d2))
            assert stair >= best - 1e-12

    def test_degenerate_duties_single_point(self):
        value = miso_pmf_enumeration(CFG_2X2, [1.0, 1.0], [1.0, 1.0], step=1e-2)
        direct = miso_mutual_info(CFG_2X2, nu_pmf([1.0, 1.0]), nu_pmf([1.0, 1.0]))
        assert value == pytest.approx(direct, abs=1e-15)

    def test_enumeration_refines_upward(self):
        d1, d2 = [0.45, 0.6], [0.3, 0.8]
        coarse = miso_pmf_enumeration(CFG_2X2, d1, d2, step=5e-2)
        fine = miso_pmf_enumeration(CFG_2X2, d1, d2, step=5e-3)
        assert fine >= coarse - 1e-15

    def test_pmf_validation_enforced(self):
        with pytest.raises(ValueError):
            miso_mutual_info(CFG_2X2, JointPmf((1.0, 0.0)), nu_pmf([0.5, 0.5]))


class TestSolveMiso:
    def test_matches_summed_peak_solve(self):
        report = solve_miso(CFG_2X2)
        siso = solve(ChannelParams(10.0, 12.0, 0.001, 0.02))
        assert report.capacity == siso.capacity
        assert report.optimum == siso.optimum

    def test_single_antenna_identical_report(self):
        config = MisoConfig((10.0,), (12.0,), 0.001, 0.02)
        assert solve_miso(config) == solve(ChannelParams(10.0, 12.0, 0.001, 0.02))

    def test_is_the_summed_peak_solve_at_the_regime_bound(self):
        # The report and the regime flag are the summed-peak channel's, with
        # tau one ulp below, at and one ulp above the bound, and far either side.
        rng = random.Random(45)
        for _ in range(40):
            bound = (config := _random_config(rng, 4, 1.0)).tau
            taus = (math.nextafter(bound, 0.0), bound, math.nextafter(bound, math.inf), 0.3 * bound, 3.0 * bound)
            configs = [config._replace(tau=tau) for tau in taus]
            assert [c.in_regime for c in configs] == [c.as_siso().in_regime for c in configs]
            assert [c.in_regime for c in configs] == [True, True, False, True, False]
            for config in configs:
                assert solve_miso(config) == solve(config.as_siso())

    def test_partition_invariance(self):
        base = solve_miso(MisoConfig((10.0,), (12.0,), 0.001, 0.02)).capacity
        for peaks1, peaks2 in (
            ((4.0, 6.0), (12.0,)),
            ((2.0, 3.0, 5.0), (5.0, 7.0)),
            ((10.0,), (3.0, 4.0, 5.0)),
        ):
            cap = solve_miso(MisoConfig(peaks1, peaks2, 0.001, 0.02)).capacity
            assert cap == pytest.approx(base, abs=1e-12)

    def test_expanded_pmfs_are_aligned_two_point(self):
        # The optimal duties, given to every antenna of their user, make
        # all-on/all-off staircases that rate the capacity.
        report = solve_miso(CFG_2X2)
        pmfs = [nu_pmf([mu, mu]) for mu in report.optimum]
        for nu in pmfs:
            assert nu.masses[0] + nu.masses[-1] == pytest.approx(1.0, abs=1e-15)
        assert miso_mutual_info(CFG_2X2, *pmfs) / CFG_2X2.tau == pytest.approx(report.capacity, rel=1e-14)

    @pytest.mark.parametrize(
        "config", [CFG_2X2, MisoConfig((5.0, 5.0), (6.0, 6.0), 0.001, 0.1)], ids=["in-regime", "out-of-regime"]
    )
    def test_grid_over_duty_vectors_never_beats_reduction(self, config):
        # Brute-force per-antenna duties (staircase inner PMF) on a coarse
        # grid; the summed-peak reduction must dominate, out of regime too
        # (tau is 3.2 times the bound there).  The objective is evaluated in
        # batch: with masses Q stacked row-wise, the mixed hit probability
        # for every PMF pair is Q1 @ hits @ Q2.T.
        import numpy as np

        report = solve_miso(config)
        assert report.regime_ok == (config is CFG_2X2)
        step = 0.05
        levels = [k * step for k in range(int(round(1 / step)) + 1)]
        stacked = np.array(
            [nu_pmf([d1, d2]).masses for d1 in levels for d2 in levels]
        )
        rates = (
            subset_rates(config.peaks_user1)[:, None]
            + subset_rates(config.peaks_user2)[None, :]
            + config.lambda0
        )
        hits = -np.expm1(-rates * config.tau)
        ent = -hits * np.log(hits) - (1 - hits) * np.log1p(-hits)
        ph = stacked @ hits @ stacked.T
        mix = stacked @ ent @ stacked.T
        best = float(np.max(-ph * np.log(ph) - (1 - ph) * np.log1p(-ph) - mix))
        assert best / config.tau <= report.capacity + 1e-9

    def test_equal_duties_maximize_nu_family_at_fixed_sum(self):
        # Among duty vectors with the same per-user total, the aligned equal
        # split wins on a grid over the staircase family.
        total1, total2 = 0.6, 0.8
        ref = miso_mutual_info(
            CFG_2X2, nu_pmf([total1 / 2] * 2), nu_pmf([total2 / 2] * 2)
        )
        for delta1 in (0.05, 0.1, 0.2, 0.3):
            for delta2 in (0.05, 0.1, 0.2, 0.4):
                d1 = [total1 / 2 + delta1, total1 / 2 - delta1]
                d2 = [total2 / 2 + delta2, total2 / 2 - delta2]
                assert ref >= miso_mutual_info(CFG_2X2, nu_pmf(d1), nu_pmf(d2)) - 1e-12

    def test_regime_flag(self):
        assert solve_miso(CFG_2X2).regime_ok
        wide = MisoConfig((20.0, 20.0), (20.0,), 0.001, 0.02)
        assert not wide.in_regime
        assert not solve_miso(wide).regime_ok

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MisoConfig((), (1.0,), 0.001, 0.02)
        with pytest.raises(ValueError):
            MisoConfig((1.0, -2.0), (1.0,), 0.001, 0.02)
        with pytest.raises(ValueError):
            MisoConfig((1.0,), (1.0,), 0.0, 0.02)


class TestReductionAtEveryDeadTime:
    """The chord argument of miso's docstring, which needs no regime."""

    def test_collapse_to_all_on_all_off_never_lowers_the_rate(self):
        # 1-4 antennas a user, tau at 0.1-100 times the regime bound.
        rng = random.Random(46)
        for _ in range(400):
            config = _random_config(rng, 4, 10 ** rng.uniform(-1, 2))
            q1, q2 = _random_pmf(rng, len(config.peaks_user1)), _random_pmf(rng, len(config.peaks_user2))
            rate = miso_mutual_info(config, q1, q2)
            assert miso_mutual_info(config, _collapse(config, config.peaks_user1, q1), q2) >= rate - _slack(rate)
            assert miso_mutual_info(config, q1, _collapse(config, config.peaks_user2, q2)) >= rate - _slack(rate)

    def test_enumeration_never_beats_the_reduction_out_of_regime(self):
        # 1-2 antennas a user, tau at 1.1-30 times the regime bound.  The duty
        # grid holds the reduction's own duties, where the two meet.
        rng = random.Random(47)
        for _ in range(16):
            config = _random_config(rng, 2, rng.uniform(1.1, 30.0))
            report = solve_miso(config)
            rate = report.capacity * config.tau
            assert not report.regime_ok
            grids = [
                list(itertools.product((0.0, 0.25, 0.5, 0.75, 1.0, mu), repeat=len(peaks)))
                for mu, peaks in zip(report.optimum, (config.peaks_user1, config.peaks_user2))
            ]
            best = max(miso_pmf_enumeration(config, d1, d2, step=0.05) for d1 in grids[0] for d2 in grids[1])
            assert best <= rate + _slack(rate)
            assert best == pytest.approx(rate, rel=1e-12)
