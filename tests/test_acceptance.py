"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Every tolerance is pinned here; the
stated runtime budgets are enforced as assertions.
"""

import math
import random
import time
from contextlib import contextmanager

import pytest

from poisson_mac.channel import (
    ChannelParams,
    DutyPair,
    alpha_cont,
    grad_mutual_info,
    hessian_mutual_info,
    hit_prob,
    hit_probs,
    mutual_info,
)
from poisson_mac.continuous import ContinuousParams, cont_capacity
from poisson_mac.gridsearch import (
    GridSpec,
    fd_gradient,
    fd_hessian,
    grid_capacity,
    miso_pmf_enumeration,
)
from poisson_mac.miso import MisoConfig, miso_mutual_info, nu_pmf, solve_miso
from poisson_mac.siso import (
    Strategy,
    find_intersections,
    single_user_duty,
    solve,
    sweep_strategy_region,
)
from poisson_mac.symmetric import (
    boundary_half_sums,
    line_constrained_max,
    peak_threshold,
    symmetric_fixed_point,
)

LAMBDA0 = 0.001
TAU = 0.02


@contextmanager
def criterion(number: int, budget_seconds: float, label: str):
    """Time a criterion body and print its PASS/FAIL line."""
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"ACCEPTANCE {number} FAIL ({elapsed:.2f}s): {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s): {label}")
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def test_criterion_1_constants():
    with criterion(1, 1.0, "dark log-odds 10.8198 and cross-ratio 9.51"):
        p4 = hit_prob(LAMBDA0, TAU)
        log_odds = math.log((1 - p4) / p4)
        assert log_odds == pytest.approx(10.8198, abs=1e-3)

        hp = hit_probs(ChannelParams(10.0, 10.0, LAMBDA0, TAU))
        h1, h2, h3, h4 = hp.entropies
        cross_ratio = (h1 - h2 - h3 + h4) / (hp.p1 - hp.p2 - hp.p3 + hp.p4)
        assert cross_ratio == pytest.approx(9.51, abs=0.02)
        # The gap log_odds > cross_ratio is the non-concavity witness: it puts
        # an indefinite Hessian point next to the all-off corner.
        assert log_odds > cross_ratio
        h = hessian_mutual_info(
            ChannelParams(10.0, 10.0, LAMBDA0, TAU), DutyPair(1e-9, 1e-9)
        )
        assert h[0][0] * h[1][1] - h[0][1] * h[1][0] < 0


def test_criterion_2_figure_1_and_2():
    with criterion(2, 1.0, "no-intersection and one-intersection instances"):
        fig1 = ChannelParams(1.0, 20.0, LAMBDA0, TAU)
        inter1 = find_intersections(fig1)
        assert len(inter1.points) == 0
        assert solve(fig1).strategy is Strategy.ONLY_USER2

        fig2 = ChannelParams(10.0, 12.0, LAMBDA0, TAU)
        inter2 = find_intersections(fig2)
        assert len(inter2.points) == 1
        assert solve(fig2).strategy is Strategy.BOTH_ACTIVE


def test_criterion_3_symmetric_optima():
    with criterion(3, 5.0, "equal-peak optima on the diagonal at the fixed point"):
        checked = 0
        for a in (5.0, 10.0, 12.5, 20.0):
            for tau in (0.02, 0.01, 0.005):
                if tau > math.log(2) / (2 * a + LAMBDA0):
                    continue
                report = solve(ChannelParams(a, a, LAMBDA0, tau))
                assert abs(report.optimum.mu1 - report.optimum.mu2) <= 1e-9
                mu = symmetric_fixed_point(a, LAMBDA0, tau)
                assert report.optimum.mu1 == pytest.approx(mu, abs=1e-9)
                checked += 1
        assert checked == 11  # (20, 0.02) and only it is out of regime


def test_criterion_4_continuous_convergence():
    with criterion(4, 30.0, "capacity and duty converge to the continuous channel"):
        ref, _ = cont_capacity(ContinuousParams(10.0, 12.0, LAMBDA0))
        cap4 = solve(ChannelParams(10.0, 12.0, LAMBDA0, 1e-4)).capacity
        cap5 = solve(ChannelParams(10.0, 12.0, LAMBDA0, 1e-5)).capacity
        assert (ref - cap4) / ref < 1e-2
        assert (ref - cap5) / ref < 1e-3
        duty_gap = abs(single_user_duty(10.0, LAMBDA0, 1e-5) - alpha_cont(10.0 / LAMBDA0))
        assert duty_gap < 1e-3


def test_criterion_5_oracle_equivalence():
    with criterion(5, 300.0, "solver within grid-oracle error bound on 50 instances"):
        rng = random.Random(20260808)
        spec = GridSpec(step=1e-2, refine_rounds=3)  # final step 1e-5
        assert spec.final_step == pytest.approx(1e-5)
        for _ in range(50):
            a1 = rng.uniform(0.5, 30.0)
            a2 = rng.uniform(0.5, 30.0)
            lam0 = rng.uniform(1e-4, 1.0)
            tau = 0.8 * math.log(2) / (a1 + a2 + lam0)
            params = ChannelParams(a1, a2, lam0, tau)
            assert params.in_regime
            report = solve(params)
            grid = grid_capacity(params, spec)
            assert abs(report.capacity - grid.capacity) <= grid.error_bound + 1e-9


def _random_partition(rng: random.Random, total: float, max_parts: int) -> tuple[float, ...]:
    k = rng.randint(1, max_parts)
    raw = [rng.expovariate(1.0) for _ in range(k)]
    scale = total / sum(raw)
    return tuple(r * scale for r in raw)


def test_criterion_6_miso_equivalence():
    with criterion(6, 120.0, "antenna partitions match the summed-peak solve"):
        siso_capacity = solve(ChannelParams(10.0, 12.0, LAMBDA0, TAU)).capacity
        rng = random.Random(17)
        for _ in range(20):
            config = MisoConfig(
                peaks_user1=_random_partition(rng, 10.0, 4),
                peaks_user2=_random_partition(rng, 12.0, 4),
                lambda0=LAMBDA0,
                tau=TAU,
            )
            assert solve_miso(config).capacity == pytest.approx(
                siso_capacity, abs=1e-12
            )
        # The enumerated fixed-marginal family never beats the staircase PMF.
        config = MisoConfig((5.0, 5.0), (6.0, 6.0), LAMBDA0, TAU)
        for _ in range(5):
            d1 = [rng.random(), rng.random()]
            d2 = [rng.random(), rng.random()]
            best = miso_pmf_enumeration(config, d1, d2, step=1e-3)
            stair = miso_mutual_info(config, nu_pmf(d1), nu_pmf(d2))
            assert best <= stair + 1e-12
            assert best >= stair - 1e-12  # the staircase point is on the grid


def test_criterion_7_derivatives():
    with criterion(7, 10.0, "closed forms match finite differences at 100 points"):
        rng = random.Random(7)
        for _ in range(100):
            a1, a2 = rng.uniform(0.5, 30.0), rng.uniform(0.5, 30.0)
            lam0 = rng.uniform(1e-3, 1.0)
            tau = rng.uniform(0.3, 0.9) * math.log(2) / (a1 + a2 + lam0)
            params = ChannelParams(a1, a2, lam0, tau)
            duty = DutyPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            g = grad_mutual_info(params, duty)
            fd = fd_gradient(params, duty, h=1e-6)
            assert g[0] == pytest.approx(fd[0], rel=1e-6, abs=1e-9)
            assert g[1] == pytest.approx(fd[1], rel=1e-6, abs=1e-9)
            h = hessian_mutual_info(params, duty)
            fh = fd_hessian(params, duty, h=1e-4)
            for i in (0, 1):
                for j in (0, 1):
                    assert h[i][j] == pytest.approx(fh[i][j], rel=1e-4, abs=1e-7)


def test_criterion_8_schur_dichotomy():
    with criterion(8, 60.0, "majorization below threshold; split dichotomy above"):
        thr = peak_threshold(LAMBDA0, TAU)
        low = thr.value / 2
        params_low = ChannelParams(low, low, LAMBDA0, TAU)
        rng = random.Random(88)
        for _ in range(1000):
            mu1, mu2 = rng.random(), rng.random()
            mean = 0.5 * (mu1 + mu2)
            assert mutual_info(params_low, DutyPair(mu1, mu2)) <= (
                mutual_info(params_low, DutyPair(mean, mean)) + 1e-12
            )

        a = 10.0
        bounds = boundary_half_sums(a, LAMBDA0, TAU, thr)
        params = ChannelParams(a, a, LAMBDA0, TAU)
        grad_cap = 2.0 * math.log((1 - hit_prob(LAMBDA0, TAU)) / hit_prob(LAMBDA0, TAU))
        band = grad_cap * 1e-4  # value resolution of the 1e-4 line grid
        # Half-sums at or below the axis crossing: the one-user split wins.
        for hs in (0.25 * bounds.axis, 0.6 * bounds.axis, 0.99 * bounds.axis):
            best, _ = line_constrained_max(a, LAMBDA0, TAU, hs, step=1e-4)
            split = mutual_info(params, DutyPair(2 * hs, 0.0))
            assert split >= best - 1e-12
        # Half-sums at or above the diagonal crossing: the balanced pair wins.
        for hs in (1.01 * bounds.diagonal, 0.1, 0.25, 0.4):
            best, _ = line_constrained_max(a, LAMBDA0, TAU, hs, step=1e-4)
            balanced = mutual_info(params, DutyPair(hs, hs))
            assert balanced >= best - 1e-12
        # Inside the sliver between the two crossings both ends compete and
        # sit within the grid band of the line maximum.
        hs = 0.5 * (bounds.axis + bounds.diagonal)
        best, _ = line_constrained_max(a, LAMBDA0, TAU, hs, step=1e-4)
        assert mutual_info(params, DutyPair(2 * hs, 0.0)) >= best - band
        assert mutual_info(params, DutyPair(hs, hs)) >= best - band


def test_criterion_9_strategy_region():
    with criterion(9, 600.0, "50x50 strategy map: diagonal, wedges, row runs"):
        grid = [1.0 + 29.0 * k / 49.0 for k in range(50)]
        rule = lambda a1, a2: 0.8 * math.log(2) / (a1 + a2 + LAMBDA0)
        labels = sweep_strategy_region(grid, grid, LAMBDA0, rule)
        for i in range(50):
            assert labels[i][i] is Strategy.BOTH_ACTIVE
        for i, a1 in enumerate(grid):
            for j, a2 in enumerate(grid):
                if labels[i][j] is Strategy.ONLY_USER2:
                    assert a2 > a1
                elif labels[i][j] is Strategy.ONLY_USER1:
                    assert a1 > a2
        # Within each row every label forms one contiguous run.
        for row in labels:
            runs = 1 + sum(1 for x, y in zip(row, row[1:]) if x is not y)
            assert runs == len(set(row))
