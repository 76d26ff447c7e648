"""Property tests of the shared kernels (the gradient algebra and the
root finder behind the symmetric analysis), of the continuous reference under
a label swap and at equal peaks, of solve on
either side of the regime bound, of the in-regime search's early exit
against the full golden-section pass, of solve_many against solve, of solve
on weak signals (a capacity at or above zero, or ArithmeticError), of
solve_miso under regroupings of the same antenna peaks, and of the CSV row
template's float field against the f-string format.

Needs hypothesis (the `test` extra); without it the module is skipped.
Examples are derandomized, so every run checks the same cases.
"""

import math
import struct

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from poisson_mac.channel import ChannelParams, DutyPair, entropy_slope, grad_mutual_info, hit_prob, hit_probs  # noqa: E402
from poisson_mac.continuous import ContinuousParams, cont_capacity  # noqa: E402
from poisson_mac.gridsearch import _grad_norm_grid, _rate_grid  # noqa: E402
from poisson_mac.miso import MisoConfig, solve_miso  # noqa: E402
from poisson_mac import cli, siso  # noqa: E402
from poisson_mac.siso import TIE_TOL, find_intersections, g_mac, solve, solve_many  # noqa: E402
from poisson_mac.symmetric import (  # noqa: E402
    FIXED_POINT_TOL,
    flip_log_odds,
    peak_threshold,
    symmetric_fixed_point,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=25, database=None)

peaks = st.floats(0.5, 50.0)
backgrounds = st.floats(1e-3, 1.0)
duties = st.floats(0.01, 0.99)
# Fraction of the regime bound ln2/(a1+a2+lambda0).
fractions = st.floats(0.01, 1.0)
# From 0.01x to 30x the regime bound.  About half of the draws are out of
# regime, where solve runs its scan, edges and grid check (~0.5 ms each).
solve_fractions = st.floats(0.01, 30.0)
SOLVE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=15, database=None)


def _channel(a1, a2, lambda0, fraction):
    return ChannelParams(a1, a2, lambda0, fraction * math.log(2.0) / (a1 + a2 + lambda0))


@SETTINGS
@given(peaks, peaks, backgrounds)
def test_cont_capacity_label_swap(a1, a2, lambda0):
    rate, duty = cont_capacity(ContinuousParams(a1, a2, lambda0))
    rate_sw, duty_sw = cont_capacity(ContinuousParams(a2, a1, lambda0))
    # The roots are found in mu1 in one channel and in the other user's duty
    # in the swapped one; both land on the optimum to well within 1e-6.
    assert rate_sw == pytest.approx(rate, rel=0.0, abs=1e-12)
    assert abs(duty_sw.mu1 - duty.mu2) <= 1e-6
    assert abs(duty_sw.mu2 - duty.mu1) <= 1e-6


@SETTINGS
@given(st.floats(1e-2, 1e3), st.floats(1e-4, 10.0))
def test_cont_capacity_equal_peaks_equal_duties(a, lambda0):
    # Equal users share one optimal duty: the enumeration's root of
    # cont_g - cont_f lies on the diagonal, where cont_f is the identity.
    _, duty = cont_capacity(ContinuousParams(a, a, lambda0))
    assert abs(duty.mu1 - duty.mu2) <= 1e-12


@SETTINGS
@given(peaks, peaks, backgrounds, fractions, duties, duties)
def test_grad_norm_grid_matches_closed_form_gradient(a1, a2, lambda0, fraction, mu1, mu2):
    params = _channel(a1, a2, lambda0, fraction)
    norm = float(_grad_norm_grid(hit_probs(params), params.tau, np.array([[mu1]]), np.array([[mu2]]))[0, 0])
    expected = math.hypot(*grad_mutual_info(params, DutyPair(mu1, mu2))) / params.tau
    # A relative test, with a floor for gradients that cancel to nearly zero.
    assert norm == pytest.approx(expected, rel=1e-9, abs=1e-9)


@SETTINGS
@given(st.floats(0.1, 100.0), st.floats(1e-4, 1.0), fractions)
def test_symmetric_fixed_point_residual(a, lambda0, fraction):
    tau = fraction * math.log(2.0) / (2.0 * a + lambda0)
    mu = symmetric_fixed_point(a, lambda0, tau)
    assert 0.0 < mu < 1.0
    assert abs(mu - g_mac(ChannelParams(a, a, lambda0, tau), mu)) <= FIXED_POINT_TOL


@SETTINGS
@given(st.floats(1e-4, 1.0), st.floats(1e-3, 0.2))
def test_peak_threshold_brackets_the_flip(lambda0, tau):
    found = peak_threshold(lambda0, tau)
    target = entropy_slope(hit_prob(lambda0, tau))
    if not found.found:
        # No sign change up to the cap: the flip level is still above target.
        assert found.value == math.inf
        assert flip_log_odds(found.search_cap, lambda0, tau) >= target
        return
    a = found.value
    assert 0.0 < a <= found.search_cap
    assert flip_log_odds(a * (1.0 - 1e-6), lambda0, tau) > target
    assert flip_log_odds(min(a * (1.0 + 1e-6), found.search_cap), lambda0, tau) <= target


@SOLVE_SETTINGS
@given(peaks, peaks, backgrounds, solve_fractions)
def test_solve_within_slot_bound_and_above_single_user(a1, a2, lambda0, fraction):
    params = _channel(a1, a2, lambda0, fraction)
    capacity = solve(params).capacity
    # At most one bit (ln2 nats) per slot, up to the rounding of I/tau.
    assert capacity <= math.log(2.0) / params.tau * (1.0 + 1e-12)
    # Each user alone, on a 1e-4 grid of its duty, independent of solve's
    # single-user candidates.
    hp, mu = hit_probs(params), np.linspace(0.0, 1.0, 10001)
    solo = max(np.max(_rate_grid(hp, params.tau, mu, 0.0)), np.max(_rate_grid(hp, params.tau, 0.0, mu)))
    assert capacity >= solo - TIE_TOL


@SOLVE_SETTINGS
@given(peaks, peaks, backgrounds, solve_fractions)
def test_solve_label_swap(a1, a2, lambda0, fraction):
    capacity = solve(_channel(a1, a2, lambda0, fraction)).capacity
    swapped = solve(_channel(a2, a1, lambda0, fraction)).capacity
    assert swapped == pytest.approx(capacity, rel=1e-12, abs=0.0)


def _full_golden_min(fn, lo, hi, tol):
    """The golden-section pass as it ran before its early exit: always to a
    width of tol, returning the midpoint and no value."""
    a, b = lo, hi
    c = b - siso._INV_GOLDEN * (b - a)
    d = a + siso._INV_GOLDEN * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - siso._INV_GOLDEN * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + siso._INV_GOLDEN * (b - a)
            fd = fn(d)
    return 0.5 * (a + b), None


def _log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(_log_uniform(1e-2, 1e3), _log_uniform(1e-2, 1e3), _log_uniform(1e-4, 10.0), fractions)
def test_early_exit_finds_the_full_pass_roots(a1, a2, lambda0, fraction):
    # In regime g - f is convex, so its first sample <= 0 splits its roots as
    # well as the minimum does.  The root searches start from other brackets, so
    # their roots may differ within the rounding noise of g - f (~1e-13).
    params = _channel(a1, a2, lambda0, fraction)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(siso, "_golden_min", _full_golden_min)
        full, full_strategy = find_intersections(params), solve(params).strategy
    early = find_intersections(params)
    assert (len(early.points), len(early.rejected)) == (len(full.points), len(full.rejected))
    for got, want in zip(early.points + early.rejected, full.points + full.rejected):
        assert abs(got.mu1 - want.mu1) <= 1e-12
    assert solve(params).strategy is full_strategy


# Small batches of in-regime channels, each lane with its own background.
# Sixty batches give a few hundred lanes, enough that a last-bit difference
# in one lane's exp (numpy's against the math module's) shows.
lane_batches = st.lists(
    st.tuples(st.floats(0.05, 50.0), st.floats(0.05, 50.0), st.floats(1e-4, 10.0), fractions), min_size=1, max_size=8
)
BATCH_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60, database=None)


@BATCH_SETTINGS
@given(lane_batches)
def test_solve_many_equals_solve_lane_by_lane(lanes):
    params = [_channel(*lane) for lane in lanes]
    batch = solve_many(*zip(*((p.a1, p.a2, p.lambda0, p.tau) for p in params)))
    for i, (p, strategy) in enumerate(zip(params, batch.strategies())):
        report = solve(p)
        assert strategy is report.strategy
        assert (batch.capacity[i], batch.mu1[i], batch.mu2[i]) == (report.capacity, report.optimum.mu1, report.optimum.mu2)


# Weak signals, often far below the background, at 0.001x to 30x the regime
# bound, with equal peaks in about half the lanes: the candidate rates are
# often rounding noise around zero.
weak_peaks = _log_uniform(1e-14, 1e-6)
weak_lanes = st.lists(
    st.tuples(weak_peaks, weak_peaks, st.booleans(), _log_uniform(1e-6, 1e2), st.floats(1e-3, 30.0)), min_size=1, max_size=8
)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(weak_lanes)
def test_weak_signals_give_a_rate_at_or_above_zero_or_an_error(lanes):
    # A value or a typed error, never a capacity below zero; and the batch
    # gives solve's bits on every lane that solve answers.
    params = [_channel(a1, a1 if equal else a2, lambda0, fraction) for a1, a2, equal, lambda0, fraction in lanes]
    solved = []
    for p in params:
        try:
            report = solve(p)
        except ArithmeticError:
            continue
        assert report.capacity >= 0.0, p
        solved.append((p, report))
    if solved:
        batch = solve_many(*zip(*((p.a1, p.a2, p.lambda0, p.tau) for p, _ in solved)))
        for i, (strategy, (p, report)) in enumerate(zip(batch.strategies(), solved)):
            assert strategy is report.strategy, p
            got = (batch.capacity[i], batch.mu1[i], batch.mu2[i])
            assert [x.hex() for x in got] == [report.capacity.hex(), report.optimum.mu1.hex(), report.optimum.mu2.hex()], p


@st.composite
def antenna_partitions(draw):
    """Two groupings of one user's peak atoms into antennas, in drawn orders."""
    atoms = draw(st.lists(st.floats(0.05, 20.0), min_size=1, max_size=6))

    def grouping():
        order = draw(st.permutations(atoms))
        cuts = sorted(draw(st.sets(st.integers(1, len(atoms) - 1)))) if len(atoms) > 1 else []
        ends = [0, *cuts, len(atoms)]
        return tuple(sum(order[i:j]) for i, j in zip(ends, ends[1:]))

    return grouping(), grouping()


@BATCH_SETTINGS
@given(antenna_partitions(), antenna_partitions(), backgrounds, fractions)
def test_solve_miso_antenna_partition_invariance(user1, user2, lambda0, fraction):
    tau = fraction * math.log(2.0) / (sum(user1[0]) + sum(user2[0]) + lambda0)
    configs = [MisoConfig(peaks1, peaks2, lambda0, tau) for peaks1, peaks2 in zip(user1, user2)]
    capacities = [solve_miso(config).capacity for config in configs]
    # The summed peaks of two groupings differ only by the rounding of the sum.
    assert capacities[1] == pytest.approx(capacities[0], rel=1e-12, abs=0.0)
    for config, capacity in zip(configs, capacities):
        assert capacity == solve(config.as_siso()).capacity


# Every double: hypothesis' own float draws, and raw bit patterns.
all_doubles = st.one_of(
    st.floats(), st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
)


@settings(derandomize=True, deadline=None, max_examples=2000, database=None)
@given(all_doubles)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(-0.0)
@example(5e-324)
@example(1e-320)
def test_row_template_writes_a_float_as_the_f_string_does(x):
    assert "%.12g" % x == f"{x:.12g}"
    assert cli._row_template(("mu1", "strategy")) % (x, "BothActive") == f"{x:.12g},BothActive\n"
