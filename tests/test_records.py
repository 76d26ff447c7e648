"""The public records of the command path: NamedTuples with a fixed field
order, built by position or by keyword, immutable, equal and hashed by value,
and validated with the messages the commands print."""

import math
import re

import pytest

from poisson_mac import channel
from poisson_mac.channel import (
    ChannelParams,
    DutyPair,
    HitProbs,
    alpha_cont,
    binary_entropy,
    entropy_slope,
    hit_prob,
    hit_probs,
    phi,
)
from poisson_mac.continuous import ContinuousParams, ConvergenceRow, convergence_report
from poisson_mac.gridsearch import GridResult, GridSpec, grid_capacity
from poisson_mac.miso import JointPmf, MisoConfig
from poisson_mac.siso import (
    Candidate,
    IntersectionSearch,
    LineCoefficients,
    SolveBatch,
    SolveReport,
    SufficiencyRecord,
    solve,
    sufficiency_tests,
    uvw,
)
from poisson_mac.symmetric import BoundaryHalfSums, SymmetricReport, ThresholdSearch, solve_symmetric

FIG2 = ChannelParams(10.0, 12.0, 0.001, 0.02)

# Each record's fields, written out.
FIELDS = {
    ChannelParams: ("a1", "a2", "lambda0", "tau"),
    HitProbs: ("p1", "p2", "p3", "p4"),
    DutyPair: ("mu1", "mu2"),
    LineCoefficients: ("u", "v", "w"),
    Candidate: ("duty", "strategy", "rate"),
    SufficiencyRecord: ("single_user_sufficient", "adding_user2_helps", "adding_user1_helps"),
    IntersectionSearch: ("points", "rejected", "reliable"),
    SolveReport: ("capacity", "optimum", "strategy", "candidates", "near_ties", "regime_ok", "search", "grid_checked"),
    SolveBatch: ("capacity", "mu1", "mu2", "code", "regime_ok"),
    ThresholdSearch: ("value", "found", "search_cap", "residual"),
    BoundaryHalfSums: ("axis", "diagonal"),
    SymmetricReport: (
        "a", "lambda0", "tau", "flip_level", "threshold", "boundary", "fixed_point", "capacity", "schur_mode",
    ),
    MisoConfig: ("peaks_user1", "peaks_user2", "lambda0", "tau"),
    JointPmf: ("masses",),
    ContinuousParams: ("a1", "a2", "lambda0"),
    ConvergenceRow: ("tau", "capacity", "duty", "cont_capacity", "cont_duty", "gap", "rel_gap", "report"),
    GridSpec: ("step", "refine_rounds"),
    GridResult: ("capacity", "duty", "params", "spec"),
}


def samples():
    """One instance of each record, as the library builds it where it can."""
    report, sym = solve(FIG2), solve_symmetric(10.0, 0.001, 0.02)
    grid = grid_capacity(FIG2, GridSpec(1e-2, 0))
    assert sym.boundary is not None and report.search.points
    return [
        FIG2,
        hit_probs(FIG2),
        report.optimum,
        uvw(FIG2),
        report.candidates[0],
        sufficiency_tests(FIG2),
        report.search,
        report,
        SolveBatch((4.5,), (0.2,), (0.3,), (0,), (True,)),  # solve_many's arrays hash by identity
        sym.threshold,
        sym.boundary,
        sym,
        MisoConfig((5.0, 5.0), (6.0, 6.0), 0.001, 0.02),
        JointPmf((0.5, 0.25, 0.25, 0.0)),
        ContinuousParams(10.0, 12.0, 0.001),
        convergence_report(10.0, 12.0, 0.001, [1e-3])[0],
        grid.spec,
        grid,
    ]


SAMPLES = samples()


def test_every_record_has_a_sample():
    assert [type(s) for s in SAMPLES] == list(FIELDS)


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestRecordProtocol:
    def test_fields_in_the_declared_order(self, record):
        assert isinstance(record, tuple)
        assert type(record)._fields == FIELDS[type(record)]

    def test_positional_and_keyword_construction(self, record):
        cls = type(record)
        by_position = cls(*record)
        by_keyword = cls(**dict(zip(cls._fields, record)))
        assert by_position == by_keyword == record
        assert by_position is not record
        assert hash(by_position) == hash(by_keyword) == hash(record)

    def test_assignment_raises(self, record):
        for name in (*record._fields, "no_such_field"):
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name, None))

    def test_equality_is_by_value(self, record):
        cls = type(record)
        assert {record, cls(*record)} == {record}
        for i in range(len(record)):  # the same values but one, built past any check
            assert tuple.__new__(cls, (*record[:i], object(), *record[i + 1 :])) != record


def test_solve_report_grid_check_defaults_to_false():
    report = solve(FIG2)
    assert SolveReport(*report[:-1]).grid_checked is False
    assert SolveReport._field_defaults == {"grid_checked": False}


def test_channel_params_repr_is_unchanged():
    assert repr(ChannelParams(10.0, 12.0, 0.001, 0.02)) == "ChannelParams(a1=10.0, a2=12.0, lambda0=0.001, tau=0.02)"


DARK = "; for a dark-current-free study use lambda0 = 1e-9 * (a1 + a2)"
REJECTED = [
    (lambda: ChannelParams(math.inf, 12.0, 0.001, 0.02), "a1 must be finite, got inf"),
    (lambda: ChannelParams(10.0, 12.0, math.nan, -1.0), "lambda0 must be finite, got nan"),
    (lambda: ChannelParams(10.0, -12.0, 0.0, 0.02), "a2 must be positive, got -12.0"),
    (lambda: ChannelParams(10.0, 12.0, 0.0, 0.02), "lambda0 must be positive, got 0.0" + DARK),
    (lambda: ChannelParams(a1=10.0, a2=12.0, lambda0=0.001, tau=0.0), "tau must be positive, got 0.0"),
    (lambda: DutyPair(1.5, 0.5), "mu1 must lie in [0, 1], got 1.5"),
    (lambda: DutyPair(mu1=0.5, mu2=-0.25), "mu2 must lie in [0, 1], got -0.25"),
    (lambda: DutyPair(math.nan, 0.5), "mu1 must lie in [0, 1], got nan"),
    (lambda: ContinuousParams(10.0, math.nan, 0.001), "a2 must be finite, got nan"),
    (lambda: ContinuousParams(a1=10.0, a2=12.0, lambda0=0.0), "lambda0 must be positive, got 0.0"),
    (lambda: MisoConfig((), (6.0,), 0.001, 0.02), "peaks_user1 must list at least one antenna"),
    (lambda: MisoConfig((5.0,), (1.0,) * 17, 0.001, 0.02), f"peaks_user2 supports at most 16 antennas, got {(1.0,) * 17}"),
    (lambda: MisoConfig((5.0, 0.0), (6.0,), 0.001, 0.02), "peaks_user1 must be positive, got (5.0, 0.0)"),
    (lambda: MisoConfig((5.0,), (math.inf,), 0.001, 0.02), "peaks_user2 must be finite, got (inf,)"),
    (lambda: MisoConfig((-math.inf,), (6.0,), 0.001, 0.02), "peaks_user1 must be finite, got (-inf,)"),
    (lambda: MisoConfig((1e308, 1e308), (1.0,), 0.001, 0.02), "the sum of peaks_user1 must be finite, got (1e+308, 1e+308)"),
    (lambda: MisoConfig((5.0,), (1e308, 1e308), 0.001, 0.02), "the sum of peaks_user2 must be finite, got (1e+308, 1e+308)"),
    (lambda: MisoConfig((5.0,), (6.0,), 0.001, tau=0.0), "tau must be positive, got 0.0"),
    (lambda: JointPmf((0.5, 0.25, 0.25)), "masses length must be a power of two, got 3"),
    (lambda: JointPmf(masses=(1.5, -0.5)), "PMF masses must be nonnegative"),
    (lambda: JointPmf((0.25, 0.25)), "PMF masses must sum to 1, got 0.5"),
    (lambda: JointPmf((math.nan, 1.0)), "PMF masses must be finite, got (nan, 1.0)"),
    (lambda: JointPmf((math.nan, math.nan)), "PMF masses must be finite, got (nan, nan)"),
    (lambda: GridSpec(0.0), "step must lie in (0, 0.1], got 0.0"),
    (lambda: GridSpec(step=math.nan), "step must lie in (0, 0.1], got nan"),
    (lambda: GridSpec(refine_rounds=7), "refine_rounds must lie in [0, 6], got 7"),
    (lambda: GridSpec(1e-2, 2.5), "refine_rounds must be an integer, got 2.5"),
    # The primitives' guards fail on NaN too.
    (lambda: hit_prob(math.nan, 0.02), "rate x must be nonnegative, got nan"),
    (lambda: hit_prob(1.0, math.nan), "tau must be positive, got nan"),
    (lambda: binary_entropy(math.nan), "probability must lie in [0, 1], got nan"),
    (lambda: entropy_slope(math.nan), "entropy_slope needs q in (0, 1), got nan"),
    (lambda: phi(math.nan), "phi needs x >= 0, got nan"),
    (lambda: alpha_cont(math.nan), "alpha_cont needs x > 0, got nan"),
]


@pytest.mark.parametrize("build, message", REJECTED, ids=[m for _, m in REJECTED])
def test_bad_input_is_rejected_with_the_same_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FIG2._replace(tau=-1.0), "tau must be positive, got -1.0"),
        (lambda: DutyPair(0.5, 0.5)._replace(mu1=2.0), "mu1 must lie in [0, 1], got 2.0"),
        (lambda: ContinuousParams(10.0, 12.0, 0.001)._replace(a2=0.0), "a2 must be positive, got 0.0"),
        (lambda: MisoConfig((5.0,), (6.0,), 0.001, 0.02)._replace(lambda0=math.inf), "lambda0 must be finite, got inf"),
        (lambda: JointPmf._make([(0.5, 0.25, 0.25)]), "masses length must be a power of two, got 3"),
        (lambda: GridSpec()._replace(step=0.2), "step must lie in (0, 0.1], got 0.2"),
        (lambda: GridSpec._make([1e-2, 2.5]), "refine_rounds must be an integer, got 2.5"),
    ],
)
def test_replace_and_make_check_as_the_constructor_does(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_replace_recomputes_the_entropies():
    hp = hit_probs(FIG2)._replace(p4=0.5)
    assert hp.entropies == (*hit_probs(FIG2).entropies[:3], binary_entropy(0.5))


def test_grid_spec_defaults():
    assert GridSpec() == GridSpec(step=1e-2, refine_rounds=3) == (1e-2, 3)


def test_valid_edges_are_accepted():
    assert DutyPair(0.0, 1.0) == (0.0, 1.0)
    assert JointPmf((1.0 + 5e-10, -5e-10)).n_antennas == 1
    assert MisoConfig((1.0,) * 16, (2.0,), 0.001, 0.02).as_siso() == (16.0, 2.0, 0.001, 0.02)
    assert MisoConfig((8e307, 8e307), (1e308,), 0.001, 0.02).as_siso() == (1.6e308, 1e308, 0.001, 0.02)


class TestHitProbsEntropies:
    def test_bit_for_bit_binary_entropy_of_each_level(self):
        hp = hit_probs(FIG2)
        assert [float.hex(h) for h in hp.entropies] == [float.hex(binary_entropy(p)) for p in hp]

    def test_computed_once_per_instance(self, monkeypatch):
        calls = []
        monkeypatch.setattr(channel, "binary_entropy", lambda q: calls.append(q) or binary_entropy(q))
        hp = HitProbs(0.4, 0.3, 0.2, 0.1)
        reads = {hp.entropies for _ in range(3)}
        assert calls == [0.4, 0.3, 0.2, 0.1] and len(reads) == 1
        HitProbs(0.4, 0.3, 0.2, 0.1).entropies
        assert len(calls) == 8

    def test_entropies_cannot_be_assigned(self):
        hp = hit_probs(FIG2)
        with pytest.raises(AttributeError, match="^cannot assign to field 'entropies'$"):
            hp.entropies = (0.0,) * 4
