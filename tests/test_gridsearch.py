"""Brute-force baselines: grid capacity, finite differences, PMF enumeration."""

import math
import random

import numpy as np
import pytest

from poisson_mac import continuous, gridsearch
from poisson_mac.channel import ChannelParams, DutyPair, grad_mutual_info, mutual_info
from poisson_mac.continuous import ContinuousParams
from poisson_mac.gridsearch import (
    BLOCK_CELLS,
    GridSpec,
    _grid_max,
    fd_gradient,
    grid_capacity,
    miso_pmf_enumeration,
)
from poisson_mac.miso import MisoConfig, miso_mutual_info, nu_pmf
from poisson_mac.siso import solve
from poisson_mac.symmetric import symmetric_fixed_point

FIG2 = ChannelParams(10.0, 12.0, 0.001, 0.02)


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(step=0.0)
        with pytest.raises(ValueError):
            GridSpec(step=0.2)
        with pytest.raises(ValueError):
            GridSpec(refine_rounds=7)

    def test_final_step(self):
        assert GridSpec(1e-2, 3).final_step == pytest.approx(1e-5)


class TestGridCapacity:
    def test_symmetric_duty_near_fixed_point(self):
        params = ChannelParams(10.0, 10.0, 0.001, 0.02)
        result = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=3))
        mu = symmetric_fixed_point(10.0, 0.001, 0.02)
        assert result.duty.mu1 == pytest.approx(mu, abs=1e-4)
        assert result.duty.mu2 == pytest.approx(mu, abs=1e-4)

    def test_tiny_peaks_tiny_capacity(self):
        params = ChannelParams(1e-6, 1e-6, 1e-7, 0.02)
        result = grid_capacity(params, GridSpec(step=5e-2, refine_rounds=1))
        assert result.capacity < 1e-4

    def test_never_exceeds_solver(self):
        rng = random.Random(61)
        for _ in range(8):
            a1, a2 = rng.uniform(0.5, 30), rng.uniform(0.5, 30)
            lam0 = rng.uniform(1e-4, 1.0)
            params = ChannelParams(a1, a2, lam0, 0.8 * math.log(2) / (a1 + a2 + lam0))
            result = grid_capacity(params, GridSpec(step=1e-2, refine_rounds=2))
            report = solve(params)
            assert result.capacity <= report.capacity + 1e-12
            assert result.capacity >= report.capacity - result.error_bound

    def test_refinement_never_decreases(self):
        values = [
            grid_capacity(FIG2, GridSpec(step=1e-2, refine_rounds=r)).capacity
            for r in range(4)
        ]
        assert all(y >= x for x, y in zip(values, values[1:]))

    def test_error_bound_reported(self):
        result = grid_capacity(FIG2, GridSpec(step=1e-2, refine_rounds=2))
        assert result.error_bound == pytest.approx(
            result.gradient_bound * result.final_step
        )
        assert result.error_bound > 0


def _mirrored_tie(m1, m2):
    # Exactly symmetric under the label swap (sums and products of the same
    # terms commute), with maxima at (0.2, 0.7) and (0.7, 0.2).
    return -((m1 - 0.2) ** 2 + (m2 - 0.7) ** 2) * ((m1 - 0.7) ** 2 + (m2 - 0.2) ** 2)


class TestGridMax:
    """The maximiser behind grid_capacity, on objectives
    whose answer is known exactly."""

    def test_rival_peak_is_refined(self):
        # A narrow spike of 1.2 between coarse cells samples at ~0.78 there,
        # below the broad peak's 1.0; only carrying it as a second incumbent
        # finds it.
        def rate(m1, m2):
            return np.maximum(1.0 - 10.0 * np.hypot(m1 - 0.3, m2 - 0.3), 1.2 - 60.0 * np.hypot(m1 - 0.705, m2 - 0.705))

        value, duty = _grid_max(rate, GridSpec(step=1e-2, refine_rounds=3))
        assert value == pytest.approx(1.2, abs=1e-3)
        assert duty.mu1 == pytest.approx(0.705, abs=1e-4) and duty.mu2 == pytest.approx(0.705, abs=1e-4)
        assert _grid_max(rate, GridSpec(step=1e-2, refine_rounds=0))[0] == 1.0

    def test_incumbent_moves_only_to_a_strictly_better_cell(self):
        # Every refinement window of the flat top holds cells as good as the
        # incumbent, none better: the first coarse cell of the top stays.
        def rate(m1, m2):
            return np.minimum(0.3 - np.maximum(np.abs(m1 - 0.5), np.abs(m2 - 0.5)), 0.247)

        value, duty = _grid_max(rate, GridSpec(step=1e-2, refine_rounds=2))
        assert value == 0.247
        assert duty == _grid_max(rate, GridSpec(step=1e-2, refine_rounds=0))[1]
        assert duty.mu1 == duty.mu2 == pytest.approx(0.45, abs=1e-12)

    def test_equal_final_values_go_to_the_first_incumbent(self):
        _, duty = _grid_max(_mirrored_tie, GridSpec(step=1e-2, refine_rounds=2))
        assert duty.mu1 == pytest.approx(0.2, abs=1e-3) and duty.mu2 == pytest.approx(0.7, abs=1e-3)


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def _grid_bits(result):
    return _bits(
        result.capacity, result.duty.mu1, result.duty.mu2, result.final_step, result.gradient_bound, result.error_bound
    )


def _blocking_cases():
    """Seeded channels from 0.05x to 30x the regime bound, equal peaks in and
    out of regime, and a saturated channel."""
    rng = random.Random(83)
    cases = []
    for fraction in (0.05, 0.4, 0.95, 1.5, 4.0, 12.0, 30.0):
        a1, a2, lam0 = rng.uniform(0.5, 50), rng.uniform(0.5, 50), rng.uniform(1e-3, 1.0)
        cases.append(ChannelParams(a1, a2, lam0, fraction * math.log(2) / (a1 + a2 + lam0)))
    for fraction in (0.6, 3.0):
        cases.append(ChannelParams(10.0, 10.0, 0.001, fraction * math.log(2) / 20.001))
    cases.append(ChannelParams(1000.0, 1000.0, 0.1, 0.5))
    return cases


CASES = _blocking_cases()
# More cells than any grid here: one block, the whole coarse grid in one call.
ONE_BLOCK = 1 << 30
# Axis lengths 101, 301 and 1001.  The default block holds all 101 rows, 217
# rows (301 = 217 + 84) or 65 rows (1001 = 15 x 65 + 26); 4000 cells hold 39,
# 13 or 3 rows, none of which divides its axis either.
BLOCK_SIZES = (BLOCK_CELLS, 4000)
SPECS = (GridSpec(1e-2, 3), GridSpec(1.0 / 300.0, 1))
FULL = GridSpec(1e-3, 0)


class TestRowBlocks:
    """Row blocks change no bit: every result equals the one-block pass, which
    evaluates the whole coarse grid in one call as the code before them did."""

    @staticmethod
    def _same_at_every_block_size(monkeypatch, run, label):
        monkeypatch.setattr(gridsearch, "BLOCK_CELLS", ONE_BLOCK)
        expected = run()
        for cells in BLOCK_SIZES:
            monkeypatch.setattr(gridsearch, "BLOCK_CELLS", cells)
            assert run() == expected, (label, cells)

    def test_grid_capacity(self, monkeypatch):
        runs = [(p, s) for p in CASES for s in SPECS] + [(p, FULL) for p in CASES[1::4]]
        for params, spec in runs:
            # Every field is read inside run, so the lazy gradient bound is
            # computed at the block size under test.
            self._same_at_every_block_size(
                monkeypatch, lambda: _grid_bits(grid_capacity(params, spec)), (params, spec)
            )

    def test_grid_max(self, monkeypatch):
        def cont(params, spec):
            cp = ContinuousParams(params.a1, params.a2, params.lambda0)
            return lambda: _grid_max(lambda m1, m2: continuous._rate_grid(cp, m1, m2), spec)

        runs = [cont(p, s) for p in CASES for s in SPECS] + [cont(CASES[3], GridSpec(1e-3, 3))]
        runs += [lambda spec=spec: _grid_max(_mirrored_tie, spec) for spec in SPECS + (FULL,)]
        for k, run in enumerate(runs):

            def bits():
                value, duty = run()
                return _bits(value, duty.mu1, duty.mu2)

            self._same_at_every_block_size(monkeypatch, bits, k)


class TestFiniteDifferences:
    def test_gradient_matches_closed_form(self):
        g = grad_mutual_info(FIG2, DutyPair(0.3, 0.4))
        fd = fd_gradient(FIG2, DutyPair(0.3, 0.4))
        assert fd[0] == pytest.approx(g[0], rel=1e-6)
        assert fd[1] == pytest.approx(g[1], rel=1e-6)

    def test_boundary_distance_enforced(self):
        with pytest.raises(ValueError):
            fd_gradient(FIG2, DutyPair(0.0, 0.5), h=1e-6)


class TestPmfEnumeration:
    def test_matches_staircase_within_resolution(self):
        config = MisoConfig((5.0, 5.0), (6.0, 6.0), 0.001, 0.02)
        d1, d2 = [0.45, 0.6], [0.3, 0.8]
        best = miso_pmf_enumeration(config, d1, d2, step=1e-3)
        stair = miso_mutual_info(config, nu_pmf(d1), nu_pmf(d2))
        assert best <= stair + 1e-12
        assert best >= stair - 1e-4  # enumeration resolution

    def test_single_antenna_degenerate(self):
        config = MisoConfig((10.0,), (12.0,), 0.001, 0.02)
        best = miso_pmf_enumeration(config, [0.3], [0.4], step=1e-2)
        direct = miso_mutual_info(config, nu_pmf([0.3]), nu_pmf([0.4]))
        assert best == pytest.approx(direct, abs=1e-15)

    def test_rejects_many_antennas(self):
        config = MisoConfig((1.0, 1.0, 1.0), (1.0,), 0.001, 0.01)
        with pytest.raises(ValueError):
            miso_pmf_enumeration(config, [0.1, 0.2, 0.3], [0.5])
