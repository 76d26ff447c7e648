"""Brute-force baselines: grid capacity, finite differences, PMF enumeration."""

import math
import random
import re

import numpy as np
import pytest

from poisson_mac import gridsearch, siso
from poisson_mac.channel import (
    ChannelParams,
    DutyPair,
    _grad_terms,
    _rate,
    _weighted_rate,
    _weights,
    binary_entropy,
    grad_mutual_info,
    hit_probs,
    mutual_info,
    p_hat,
)
from poisson_mac.gridsearch import GridSpec, _grid_max, fd_gradient, grid_capacity
from poisson_mac.miso import MisoConfig, miso_mutual_info, miso_pmf_enumeration, nu_pmf
from poisson_mac.siso import solve
from poisson_mac.symmetric import symmetric_fixed_point

FIG2 = ChannelParams(10.0, 12.0, 0.001, 0.02)
# Channels whose hit levels round to 1 or an ulp or so below it; on
# ChannelParams(1, 0.1, 10, 5) the slot probability rounds an ulp above 1.
SATURATED = (
    ChannelParams(1000.0, 1000.0, 0.001, 1.0),  # every hit level rounds to 1
    ChannelParams(1.0, 0.1, 10.0, 5.0),
    ChannelParams(1000.0, 10.0, 0.001, 0.1),
    # At step 3e-2 a refinement window holds NaN cells beside a better one.
    ChannelParams(0.06680523841052471, 0.5131909992854794, 15.838569506565392, 2.293482078800965),
)


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
            result.gradient_bound * result.spec.final_step
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


def _old_entropy_arr(q):
    """miso._entropy_arr as it was before its unmasked branch."""
    out = np.zeros_like(q)
    inside = (q > 0.0) & (q < 1.0)
    qi = q[inside]
    out[inside] = -qi * np.log(qi) - (1.0 - qi) * np.log1p(-qi)
    return out


def _old_rate_grid(hp, tau, m1, m2, w=None):
    """gridsearch._rate_grid as it was before it ran the batch solver's rate
    (now channel._rate): entropy 0 where the slot probability rounds outside
    (0, 1), and the weights broadcast from m1 and m2 on every call, whatever
    cached weights w it is handed."""
    h1, h2, h3, h4 = hp.entropies
    w = _weights(m1, m2)
    ph = w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4
    mix = w[0] * h1 + w[1] * h2 + w[2] * h3 + w[3] * h4
    return (_old_entropy_arr(ph) - mix) / tau


def _one_expression_entropy(q, xp):
    """siso._entropy_many with its unmasked branch as the one expression it was
    before it ran in place (its masked branch is unchanged)."""
    if q.size and q.min() > 0.0 and q.max() < 1.0:
        return -q * siso._call(xp, "log", q) - (1.0 - q) * siso._call(xp, "log1p", -q)
    return siso._entropy_many(q, xp)


def _one_expression_rate(p, h, w, entropy):
    """channel._weighted_rate as the one expression it was before it summed in place."""
    ph = w[0] * p[0] + w[1] * p[1] + w[2] * p[2] + w[3] * p[3]
    return entropy(ph) - (w[0] * h[0] + w[1] * h[1] + w[2] * h[2] + w[3] * h[3])


def _one_expression_grad_terms(hp, mu1, mu2):
    """channel._grad_terms with its slot probability as the one expression it was
    before it summed in place (as channel.p_hat did)."""
    h1, h2, h3, h4 = hp.entropies
    c1 = mu2 * (hp.p1 - hp.p2) + (1.0 - mu2) * (hp.p3 - hp.p4)
    c2 = mu1 * (hp.p1 - hp.p3) + (1.0 - mu1) * (hp.p2 - hp.p4)
    e1 = mu2 * (h1 - h2) + (1.0 - mu2) * (h3 - h4)
    e2 = mu1 * (h1 - h3) + (1.0 - mu1) * (h2 - h4)
    w = _weights(mu1, mu2)
    ph = w[0] * hp.p1 + w[1] * hp.p2 + w[2] * hp.p3 + w[3] * hp.p4
    return c1, c2, e1, e2, ph


def _old_local_peaks(values, g, sep, count):
    """gridsearch._local_peaks as it was before it skipped the last mask."""
    picked = []
    while len(picked) < count:
        i, j = np.unravel_index(np.argmax(values), values.shape)
        picked.append((float(values[i, j]), float(g[i]), float(g[j])))
        values[np.ix_(np.abs(g - g[i]) < sep, np.abs(g - g[j]) < sep)] = -np.inf
    return picked


class TestWitnessHelpers:
    """The oracles' entropy on numpy, the grid's rate and its peak picking give
    the bits of their earlier forms: miso._entropy_arr, which masked every
    entropy, and _rate_grid's own kernel."""

    def test_entropy_matches_the_masked_form(self):
        rng = np.random.default_rng(7)
        inside = [rng.uniform(0.0, 1.0, 1001), rng.uniform(0.0, 1.0, (37, 41)), np.array([5e-324, 0.5, 1.0 - 2**-53])]
        inside += [np.exp(-rng.uniform(0.0, 700.0, 500)), -np.expm1(-rng.uniform(0.0, 36.0, 500))]
        edges = [np.array([0.0, 0.3, 1.0]), np.array([0.0, 0.4]), np.array([0.6, 1.0]), np.array([np.nan, 0.2])]
        edges += [np.array([-0.1, 0.4]), np.array([1.5, 0.4])]
        mixed = rng.uniform(-0.5, 1.5, 400)
        mixed[rng.integers(0, 400, 40)] = rng.choice([0.0, 1.0, np.nan], 40)
        for q in inside + edges + [mixed, mixed.reshape(20, 20), np.empty(0), np.empty((0, 3))]:
            new, old = siso._entropy_many(q, np), _old_entropy_arr(q)
            assert new.shape == old.shape and new.dtype == old.dtype
            # The old form's bits in [0, 1], where it gives 0 at the ends; NaN elsewhere.
            kept = (q >= 0.0) & (q <= 1.0)
            assert new[kept].tobytes() == old[kept].tobytes(), q
            assert np.isnan(new[~kept]).all(), q

    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_local_peaks_match_the_masking_form(self, count):
        rng = np.random.default_rng(count)
        g = np.linspace(0.0, 1.0, 101)
        smooth = np.sin(7.0 * g)[:, None] * np.cos(5.0 * g)[None, :]
        for values in (rng.uniform(0.0, 1.0, (101, 101)), smooth, np.round(smooth, 1)):
            new = gridsearch._local_peaks(values.copy(), g, 0.03, count)
            assert new == _old_local_peaks(values.copy(), g, 0.03, count)

    @pytest.mark.parametrize("spec", [GridSpec(1e-2, 0), GridSpec(), GridSpec(3e-2, 2)])
    def test_grid_capacity_is_unchanged(self, monkeypatch, spec):
        rng = random.Random(31)
        channels = list(SATURATED)
        for _ in range(12):
            a1, a2 = math.exp(rng.uniform(-3.0, 4.0)), math.exp(rng.uniform(-3.0, 4.0))
            lambda0 = math.exp(rng.uniform(-7.0, 2.0))
            channels.append(ChannelParams(a1, a2, lambda0, rng.uniform(0.1, 5.0) * math.log(2) / (a1 + a2 + lambda0)))
        results = [grid_capacity(params, spec) for params in channels]
        monkeypatch.setattr(gridsearch, "_rate_grid", _old_rate_grid)
        monkeypatch.setattr(gridsearch, "_local_peaks", _old_local_peaks)
        for params, new in zip(channels, results):
            old = grid_capacity(params, spec)
            assert (new.capacity, new.duty) == (old.capacity, old.duty), params


def _seeded_channels(count, seed):
    """SATURATED and count channels at peaks 1e-4 to 1e4, lambda0 1e-6 to 10 and
    tau 0.01 to 1000 times the regime bound."""
    rng, channels = random.Random(seed), list(SATURATED)
    for _ in range(count):
        a1, a2, lam0 = 10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-6, 1)
        channels.append(ChannelParams(a1, a2, lam0, 10 ** rng.uniform(-2, 3) * math.log(2) / (a1 + a2 + lam0)))
    return channels


def _float_outcome(fn, *args):
    """The bits of a float result, or the ValueError text of binary_entropy."""
    try:
        return fn(*args).hex()
    except ValueError as exc:
        return str(exc)


class TestInPlaceKernels:
    """channel._weighted_rate, _grad_terms, p_hat (all three on
    channel._weighted_sum) and siso._entropy_many sum in place: the bits of
    their one-expression forms, on floats, on lanes and on the grid's planes,
    and no input written.  The math module's lanes are 1-D, so the 2-D planes
    run on numpy's logs, as the grid does."""

    @staticmethod
    def assert_unwritten(arrays, copies):
        assert all(a.tobytes() == c.tobytes() for a, c in zip(arrays, copies))

    @pytest.mark.parametrize("xp", [math, np])
    def test_entropy_has_the_one_expression_bits(self, xp):
        rng = np.random.default_rng(36)
        qs = [rng.uniform(0.0, 1.0, 1001), np.exp(-rng.uniform(0.0, 700.0, 500)), -np.expm1(-rng.uniform(0.0, 36.0, 500))]
        qs += [np.array([5e-324, 0.5, 1.0 - 2**-53]), rng.uniform(-0.5, 1.5, 300), np.empty(0)]
        if xp is np:
            qs += [q.reshape(-1, 50) for q in (rng.uniform(0.0, 1.0, 2500), rng.uniform(-0.5, 1.5, 2500))]
        for q in qs:
            before = q.copy()
            new, old = siso._entropy_many(q, xp), _one_expression_entropy(q, xp)
            assert new.shape == old.shape and new.tobytes() == old.tobytes(), q
            self.assert_unwritten([q], [before])

    def test_rate_has_the_one_expression_bits_on_floats(self):
        rng = random.Random(36)
        for params in _seeded_channels(600, 36):
            hp = hit_probs(params)
            w = _weights(rng.random(), rng.random())
            new = _float_outcome(_weighted_rate, hp, hp.entropies, w)
            assert new == _float_outcome(_one_expression_rate, hp, hp.entropies, w, binary_entropy), params

    def test_slot_probability_has_the_one_expression_bits_on_floats(self):
        rng = random.Random(39)
        for params in _seeded_channels(600, 39):
            hp = hit_probs(params)
            for duty in (DutyPair(rng.random(), rng.random()), DutyPair(0.0, rng.random()), DutyPair(1.0, 1.0)):
                new, old = _grad_terms(hp, *duty), _one_expression_grad_terms(hp, *duty)
                assert [x.hex() for x in new] == [x.hex() for x in old], (params, duty)
                assert p_hat(params, duty).hex() == old[4].hex(), (params, duty)

    def test_grad_terms_have_the_one_expression_bits_on_the_lattice(self):
        g, _ = gridsearch._lattice(1e-2)
        for params in _seeded_channels(40, 40):
            hp = hit_probs(params)
            new, old = _grad_terms(hp, g[:, None], g[None, :]), _one_expression_grad_terms(hp, g[:, None], g[None, :])
            assert [x.tobytes() for x in new] == [x.tobytes() for x in old], params

    @pytest.mark.parametrize("xp", [math, np])
    def test_rate_has_the_one_expression_bits_on_lanes(self, xp):
        channels, rng = _seeded_channels(600, 37), np.random.default_rng(37)
        p = tuple(np.array(x) for x in zip(*map(hit_probs, channels)))
        h = tuple(siso._entropy_many(x, xp) for x in p)
        n = len(channels)
        # The batch's candidate rows: duties in the square, and a user silent.
        for m1, m2 in ((rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)), (np.zeros(n), rng.uniform(0.0, 1.0, n))):
            w = _weights(m1, m2)
            inputs = [*p, *h, *w, m1, m2]
            copies = [a.copy() for a in inputs]
            new = _weighted_rate(p, h, w, lambda q: siso._entropy_many(q, xp))
            old = _one_expression_rate(p, h, w, lambda q: _one_expression_entropy(q, xp))
            assert new.tobytes() == old.tobytes()
            self.assert_unwritten(inputs, copies)

    def test_rate_has_the_one_expression_bits_on_the_lattice(self):
        g, lattice = gridsearch._lattice(1e-2)
        w = tuple(a.copy() for a in lattice)  # writable, so that a write would show rather than raise
        nan_planes = 0
        for params in _seeded_channels(40, 38):
            hp = hit_probs(params)
            new = _weighted_rate(hp, hp.entropies, w, lambda q: siso._entropy_many(q, np))
            old = _one_expression_rate(hp, hp.entropies, w, lambda q: _one_expression_entropy(q, np))
            assert new.tobytes() == old.tobytes(), params
            plane = gridsearch._rate_grid(hp, params.tau, g[:, None], g[None, :], lattice)
            assert plane.tobytes() == (old / params.tau).tobytes(), params
            nan_planes += bool(np.isnan(old).any())
        self.assert_unwritten(w, lattice)
        assert nan_planes >= 1  # ChannelParams(1, 0.1, 10, 5)


class TestLattice:
    """grid_capacity rates its full pass on the weights gridsearch._lattice
    caches: the bits of the weights broadcast afresh on every call."""

    def test_cached_pass_has_the_broadcast_bits(self, monkeypatch):
        rng = random.Random(30)
        channels = list(SATURATED)
        for k in range(2000):
            a1, a2, lam0 = 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-3, 4), 10 ** rng.uniform(-5, 1)
            # Half in regime, half at 1-300x the bound.
            factor = rng.uniform(0.05, 1.0) if k % 2 else 10 ** rng.uniform(0.0, 2.5)
            channels.append(ChannelParams(a1, a2, lam0, factor * math.log(2) / (a1 + a2 + lam0)))
        passes, grid_max = [], gridsearch._grid_max

        def recording(rate, spec, values):
            passes.append(values)
            return grid_max(rate, spec, values)

        monkeypatch.setattr(gridsearch, "_grid_max", recording)
        nan_planes = 0
        for params in channels:
            hp = hit_probs(params)
            p, h = (hp.p1, hp.p2, hp.p3, hp.p4), hp.entropies

            def broadcast(m1, m2):
                return _rate(p, h, m1, m2, lambda q: siso._entropy_many(q, np)) / params.tau

            # 1e-2, 5e-2, 1e-2, ...: each step evicts the other's lattice.
            for step in (1e-2, 5e-2):
                g = np.linspace(0.0, 1.0, round(1.0 / step) + 1)
                result = grid_capacity(params, GridSpec(step, 0))
                expected = broadcast(g[:, None], g[None, :])
                assert passes[-1].tobytes() == expected.tobytes(), (params, step)
                assert (result.capacity, result.duty) == grid_max(broadcast, GridSpec(step, 0)), (params, step)
                nan_planes += bool(np.isnan(expected).any())
        assert nan_planes >= 2  # ChannelParams(1, 0.1, 10, 5) at both steps

    def test_cached_lattice_is_read_only(self, monkeypatch):
        grid_capacity(FIG2, GridSpec(5e-2, 0))
        lattice = gridsearch._lattice(1e-2)
        assert gridsearch._lattice.cache_info().currsize == 1
        g, w = lattice
        assert g.tobytes() == np.linspace(0.0, 1.0, 101).tobytes()
        for a in (g, *w):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0.5
            with pytest.raises(ValueError):
                a *= 2.0
        # A witness that scribbles over its full pass leaves the next solve as it was.
        local_peaks = gridsearch._local_peaks

        def scribbling(values, g, sep, count):
            picked = local_peaks(values, g, sep, count)
            values[...] = np.inf
            return picked

        monkeypatch.setattr(gridsearch, "_local_peaks", scribbling)
        params = ChannelParams(10.0, 30.0, 0.001, 0.02)
        first, second = solve(params), solve(params)
        assert not params.in_regime and first.grid_checked
        assert first == second
        assert gridsearch._lattice(1e-2) is lattice


class TestFiniteDifferences:
    def test_gradient_matches_closed_form(self):
        g = grad_mutual_info(FIG2, DutyPair(0.3, 0.4))
        fd = fd_gradient(FIG2, DutyPair(0.3, 0.4))
        assert fd[0] == pytest.approx(g[0], rel=1e-6)
        assert fd[1] == pytest.approx(g[1], rel=1e-6)

    def test_boundary_distance_enforced(self):
        with pytest.raises(ValueError):
            fd_gradient(FIG2, DutyPair(0.0, 0.5))


class TestPmfEnumeration:
    """miso.miso_pmf_enumeration, the multi-antenna oracle."""

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

    @pytest.mark.parametrize(
        "duties, message",
        [
            (([1.5], [0.3]), "duties must lie in [0, 1], got [1.5]"),
            (([0.3], [-0.5]), "duties must lie in [0, 1], got [-0.5]"),
            (([0.3], [math.nan]), "duties must lie in [0, 1], got [nan]"),
        ],
    )
    def test_rejects_duties_outside_the_unit_interval(self, duties, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            miso_pmf_enumeration(MisoConfig((5.0,), (6.0,), 1e-3, 0.02), *duties)

    @pytest.mark.parametrize("step", [0.0, -1e-3, 1.5, math.inf, math.nan])
    def test_rejects_a_step_outside_the_unit_interval(self, step):
        config = MisoConfig((5.0, 5.0), (6.0,), 1e-3, 0.02)
        with pytest.raises(ValueError, match=f"^{re.escape(f'step must lie in (0, 1], got {step}')}$"):
            miso_pmf_enumeration(config, [0.3, 0.4], [0.5], step=step)
