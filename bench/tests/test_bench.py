"""Tests of the benchmark itself: generators, checks, tracing and metric names.

Run with ``python -m pytest bench/tests`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest

import checks
import run
import workloads
from poisson_mac import cli
from poisson_mac.channel import ChannelParams
from poisson_mac.miso import MisoConfig
from tracer import Tracer


def _take(workload: str, seed: int, n: int) -> list[list[workloads.Command]]:
    return list(itertools.islice(workloads.blocks(workload, seed), n))


def _instances(argv: tuple[str, ...]):
    """Every channel instance a command solves, as an object with in_regime."""
    f = dict(zip(argv[1::2], argv[2::2]))
    l0 = float(f["--lambda0"])
    kind = argv[0]
    if kind in ("solve", "intersections"):
        yield ChannelParams(float(f["--a1"]), float(f["--a2"]), l0, float(f["--tau"]))
    elif kind == "solve-miso":
        peaks = [tuple(float(p) for p in f[k].split(",")) for k in ("--peaks1", "--peaks2")]
        yield MisoConfig(*peaks, l0, float(f["--tau"]))
    elif kind == "symmetric":
        yield ChannelParams(float(f["--a"]), float(f["--a"]), l0, float(f["--tau"]))
    elif kind == "sweep-region":
        scale = float(f["--tau-scale"])
        assert 0.2 < scale <= 1.0
        cells = int(f["--cells"])
        grids = [workloads.range_values(*map(float, f[k].split(":")), cells) for k in ("--a1", "--a2")]
        for x1, x2 in itertools.product(*grids):
            # The CLI's per-cell rule.
            yield ChannelParams(x1, x2, l0, scale * math.log(2.0) / (x1 + x2 + l0))
    elif kind == "sweep-peak":
        a2s = workloads.range_values(*map(float, f["--a2"].split(":")), int(f["--cells"]))
        for tau in map(float, f["--tau"].split(",")):
            for a2 in a2s:
                if tau > 0.0:
                    yield ChannelParams(float(f["--a1"]), a2, l0, tau)
    elif kind == "converge":
        for tau in map(float, f["--taus"].split(",")):
            yield ChannelParams(float(f["--a1"]), float(f["--a2"]), l0, tau)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    assert _take(workload, 7, 3) == _take(workload, 7, 3)
    assert _take(workload, 7, 3) != _take(workload, 8, 3)


@pytest.mark.parametrize("workload", ["single", "sweep"])
def test_single_and_sweep_stay_in_regime(workload):
    for block in _take(workload, 3, 10):
        for cmd in block:
            assert all(p.in_regime for p in _instances(cmd.argv)), cmd.argv


def test_fallback_solves_are_out_of_regime():
    kinds = set()
    for block in _take("fallback", 3, 10):
        for cmd in block:
            kinds.add(cmd.argv[0])
            if cmd.argv[0] in ("solve", "intersections"):
                (p,) = _instances(cmd.argv)
                assert not p.in_regime
                assert p.tau <= workloads.FALLBACK_RATIO[1] * workloads.regime_bound(p.a1 + p.a2)
    assert kinds == {"solve", "intersections", "sweep-peak", "converge"}


def _traced(blocks):
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    results = run.new_results(blocks)
    tracer.install()
    try:
        run.run_round(main, results, lambda i: setattr(tracer, "cmd_id", i))
    finally:
        tracer.uninstall()
    return tracer, results


@pytest.fixture(scope="module")
def sample_blocks():
    # The cheapest few commands of each workload's first block.
    return [
        sorted(_take(workload, 5, 1)[0], key=lambda c: c.instances)[:4] for workload in workloads.WORKLOADS
    ]


def test_traced_and_untraced_outputs_match(sample_blocks):
    plain = run.new_results(sample_blocks)
    run.run_round(cli.main, plain)
    tracer, traced = _traced(sample_blocks)
    assert [r.errors for r in plain] == [r.errors for r in traced]
    assert run.digest(plain) == run.digest(traced)
    assert not hasattr(cli.solve, "__wrapped__")


def test_self_times_fit_within_command_wall(sample_blocks):
    tracer, traced = _traced(sample_blocks)
    per_command = [0.0] * len(traced)
    for cmd, self_s in zip(tracer.cmd, tracer.self_time):
        per_command[cmd] += self_s
    for i, r in enumerate(traced):
        assert 0.0 < per_command[i] <= r.walls[0]
    totals = tracer.totals()
    assert totals["cli.main"][0] == len(traced)
    assert totals["gridsearch.grid_capacity"][0] > 0


def test_failures_are_counted_and_the_run_goes_on():
    def crashing(argv):
        raise ZeroDivisionError("float division by zero")

    wall, output, error = run.run_command(crashing, ["solve"])
    assert error == "ZeroDivisionError" and output == ""
    good = workloads.Command(("solve", "--a1", "10", "--a2", "12", "--tau", "0.02"), 1)
    invalid = workloads.Command(("solve", "--a1", "-1", "--a2", "1", "--tau", "1"), 1)
    results = run.new_results([[invalid, good]])
    run.run_round(cli.main, results)
    run.run_round(cli.main, results)
    assert results[0].errors == ["exit 2", "exit 2"] and results[0].failed_runs == 2
    assert results[1].errors == [] and results[1].failed_runs == 0 and results[1].output


def test_saturated_outcomes_name_the_error():
    def crashing(argv):
        raise ZeroDivisionError("float division by zero")

    assert run.saturated_outcomes(crashing) == {"solve": "ZeroDivisionError", "intersections": "ZeroDivisionError"}
    assert run.saturated_outcomes(lambda argv: 0) == {"solve": "ok", "intersections": "ok"}


def _output(argv):
    wall, output, error = run.run_command(cli.main, argv)
    assert error is None
    return output


def test_checks_pass_good_output_and_catch_bad_output():
    argv = ("solve", "--a1", "10.0", "--a2", "12.0", "--lambda0", "0.001", "--tau", "0.02")
    good = _output(argv)
    checker = checks.Checker()
    assert checker.check(0, argv, good) == []
    assert checker.oracle(1) == {}
    lines = good.splitlines()
    row = lines[2].split(",")
    for bad_capacity in ("40.0", "1.0"):  # above ln2/tau; below the single-user rate
        row[4] = bad_capacity
        bad = "\n".join(lines[:2] + [",".join(row)]) + "\n"
        assert checker.check(0, argv, bad)
    row[4] = "4.5"  # within both bounds, below the grid oracle
    checker = checks.Checker()
    checker.check(0, argv, "\n".join(lines[:2] + [",".join(row)]) + "\n")
    assert checker.oracle(1)[0]


def test_label_swap_check_catches_asymmetry():
    argv = ("sweep-region", "--a1", "1.0:30.0", "--a2", "1.0:30.0", "--cells", "6", "--lambda0", "0.001", "--tau-scale", "0.8")
    good = _output(argv)
    assert checks.Checker().check(0, argv, good) == []
    lines = good.splitlines()
    cells = [line.split(",") for line in lines[2:]]
    i = next(k for k, c in enumerate(cells) if c[2] != "BothActive" and c[0] != c[1])
    cells[i][2] = checks._SWAPPED[cells[i][2]]
    bad = "\n".join(lines[:2] + [",".join(c) for c in cells]) + "\n"
    assert checks.Checker().check(0, argv, bad)


def test_single_user_rates_match_the_library():
    from poisson_mac.channel import DutyPair, mutual_info_rate
    from poisson_mac.continuous import ContinuousParams, cont_mutual_info_rate
    from poisson_mac.siso import single_user_duty

    for a, tau in ((1.0, 0.3), (10.0, 0.02), (50.0, 0.001)):
        p = ChannelParams(a, 1.0, 1e-3, tau)
        lib = mutual_info_rate(p, DutyPair(single_user_duty(a, 1e-3, tau), 0.0))
        assert checks.single_user_rate(a, 1e-3, tau) == pytest.approx(lib, rel=1e-12)
        cp = ContinuousParams(a, 1.0, 1e-3)
        best = max(cont_mutual_info_rate(cp, DutyPair(k / 10000, 0.0)) for k in range(10001))
        assert checks.cont_single_user_rate(a, 1e-3) >= best - 1e-12


def test_tail_has_ten_values_beyond_it():
    values = [float(v) for v in range(100)]
    value, percentile = run.tail(values)
    assert value == 89.0 and sum(v > value for v in values) == 10
    assert percentile == 90.0


def test_import_split_reads_the_importtime_log():
    log = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:      2315 |     102821 |       numpy",
            "import time:       946 |     176784 |   poisson_mac",
            "import time:      8799 |     191098 | poisson_mac.cli",
        ]
    )
    numpy_s, package_s = run.import_split(log)
    assert numpy_s == pytest.approx(0.102821)
    assert package_s == pytest.approx(0.191098 - 0.102821)


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    results = [run.Result(0, ("solve",), 1, walls=[1e-3 * k], scaled=[1e-3 * k], output="x") for k in range(1, 21)]
    e2e, _ = run.end_to_end(results, 0.2, 30.0)
    assert {k: v["unit"] for k, v in e2e.items()} == {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = run.per_layer(Tracer(), results, 1, 0.1, 0.05, 1.1)
    assert {k: v["unit"] for k, v in layers.items()} == {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
