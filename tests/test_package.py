"""The package namespace: every public name, read lazily from its home module."""

import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import poisson_mac

SUBMODULES = ("channel", "continuous", "gridsearch", "miso", "siso", "symmetric")
PUBLIC = """
    Candidate ChannelParams ContinuousParams ConvergenceRow DutyPair GridResult GridSpec HitProbs
    IntersectionSearch JointPmf LineCoefficients MisoConfig SchurMode SchurRegion
    SolveBatch SolveReport Strategy SufficiencyRecord SymmetricReport ThresholdSearch BoundaryHalfSums
    alpha_cont binary_entropy boundary_half_sums cont_capacity cont_f cont_g cont_mutual_info_rate
    convergence_report entropy_slope f_mac fd_gradient fd_hessian find_intersections flip_log_odds g_mac
    grad_mutual_info grid_capacity hessian_mutual_info hit_prob hit_probs line_constrained_max
    miso_mutual_info miso_pmf_enumeration mutual_info mutual_info_rate nu_pmf p_hat peak_threshold phi
    schur_classify single_user_duty solve solve_many solve_miso solve_symmetric
    subset_rates sufficiency_tests sweep_strategy_region symmetric_fixed_point uvw
""".split()


def fresh_python(code):
    """stdout of a fresh interpreter running code, with this checkout's package on the path."""
    src = str(Path(poisson_mac.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout


def test_public_names_are_kept():
    assert sorted(poisson_mac.__all__) == sorted(PUBLIC)


def test_each_name_is_its_home_modules_object():
    modules = [importlib.import_module(f"poisson_mac.{m}") for m in SUBMODULES]
    for name in PUBLIC:
        homes = [m for m in modules if name in m.__all__]
        assert len(homes) == 1, (name, homes)
        assert getattr(poisson_mac, name) is getattr(homes[0], name), name
    assert set(PUBLIC) <= set(dir(poisson_mac))
    assert not set(PUBLIC) & set(vars(poisson_mac))  # read from the home module on each access, never cached


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        poisson_mac.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from poisson_mac import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_submodules_import_from_the_package():
    code = "from poisson_mac import cli, gridsearch; print(cli.main.__module__, gridsearch.grid_capacity.__module__)"
    assert fresh_python(code) == "poisson_mac.cli poisson_mac.gridsearch\n"


def test_readme_quick_start_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    snippet = re.search(r"## Library quick start\n\n```python\n(.*?)```", readme, re.S).group(1)
    report = "print(f'{report.capacity:.12g}', report.strategy.name, [f'{c:.9g}' for c in batch.capacity],"
    report += " [s.name for s in batch.strategies()], [s.name for s in labels[1]])"
    out = fresh_python(snippet + report)
    assert out == "4.53858634865 BOTH_ACTIVE ['4.53858635', '6.81588948'] ['BOTH_ACTIVE', 'ONLY_USER2'] ['ONLY_USER1', 'BOTH_ACTIVE']\n"
