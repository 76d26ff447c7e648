"""Property tests of the shared kernels (the profile maximiser, the gradient
algebra and the bisection behind the symmetric analysis), and of solve on
either side of the regime bound.

Needs hypothesis (the `test` extra); without it the module is skipped.
Examples are derandomized, so every run checks the same cases.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from poisson_mac.channel import ChannelParams, DutyPair, entropy_slope, grad_mutual_info, hit_prob, hit_probs  # noqa: E402
from poisson_mac.continuous import ContinuousParams, cont_capacity  # noqa: E402
from poisson_mac.gridsearch import _grad_norm_grid, _rate_grid  # noqa: E402
from poisson_mac.siso import TIE_TOL, g_mac, solve  # noqa: E402
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
# regime, where solve runs its profile and grid checks (~3 ms each).
solve_fractions = st.floats(0.01, 30.0)
SOLVE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=15, database=None)


def _channel(a1, a2, lambda0, fraction):
    return ChannelParams(a1, a2, lambda0, fraction * math.log(2.0) / (a1 + a2 + lambda0))


@SETTINGS
@given(peaks, peaks, backgrounds)
def test_cont_capacity_label_swap(a1, a2, lambda0):
    rate, duty = cont_capacity(ContinuousParams(a1, a2, lambda0))
    rate_sw, duty_sw = cont_capacity(ContinuousParams(a2, a1, lambda0))
    # The profile runs over mu1 in one channel and over the other user's
    # duty in the swapped one; both land on the optimum to well within 1e-6.
    assert rate_sw == pytest.approx(rate, rel=0.0, abs=1e-12)
    assert abs(duty_sw.mu1 - duty.mu2) <= 1e-6
    assert abs(duty_sw.mu2 - duty.mu1) <= 1e-6


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
