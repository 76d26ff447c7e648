"""Command-line front end: schemas, determinism, config handling, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest

from poisson_mac import cli, continuous, miso, siso, symmetric
from poisson_mac.channel import DutyPair
from poisson_mac.cli import main

GOLDEN_CASES = runpy.run_path(str(Path(__file__).with_name("test_cli_golden.py")))["CASES"]
GOLDEN = {argv: (code, expected) for argv, code, expected in GOLDEN_CASES}
# The errors of a continuous reference that is rounding noise or overflows.
NOISE = r"numerical failure \(ArithmeticError: the continuous rate \S+ is not above its rounding floor \S+\)"
NO_RATE = r"numerical failure \(ArithmeticError: the continuous reference has no finite rate\)"
# Continuous rows that fail, with the exit code and stderr after "error: ".
CONTINUOUS_FAILURES = [
    # A later row below its rounding floor; such a row raises before a later
    # invalid one (a2 = -1), and a valid row does not.
    ("sweep-peak --a1 1e-20 --a2 1:1e-10 --cells 2 --tau 0", 4, NOISE),
    ("sweep-peak --a1 1e-20 --a2=1e-20:-1 --cells 2 --tau 0", 4, NOISE),
    ("sweep-peak --a1 10 --a2=12:-1 --cells 2 --tau 0", 2, r"a2 must be positive, got -1\.0"),
    # hi - lo overflows, so the first a2 is -1e308 + inf * 0, NaN.
    ("sweep-peak --a1 10 --a2=-1e308:1e308 --cells 2 --tau 0", 2, "a2 must be finite, got nan"),
    ("sweep-peak --a1 10 --a2 12 --lambda0 0 --tau 0", 2, r"lambda0 must be positive, got 0\.0"),
    ("sweep-peak --a1 1e308 --a2 1:2 --cells 2 --tau 0", 4, NO_RATE),
    ("converge --a1 1e308 --a2 1 --taus 1", 4, NO_RATE),
]
# A 2 x 2 sweep-region without a dead-time flag.
REGION = ("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "2")


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


def fresh_python(code, *args, check=True):
    """A fresh interpreter running code, with this checkout's package on the path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *args], env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=check,
    )


def rows_of(text):
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, l.split(","))) for l in lines[1:]]


class TestSolve:
    def test_fig2_schema_and_values(self, tmp_path):
        code, text = run(
            tmp_path, "solve", "--a1", "10", "--a2", "12",
            "--lambda0", "0.001", "--tau", "0.02",
        )
        assert code == 0
        assert text.startswith("# command=solve")
        assert "intersections=1" in text.splitlines()[0]
        header, rows = rows_of(text)
        assert header == [
            "a1", "a2", "lambda0", "tau", "capacity_nats", "mu1", "mu2",
            "strategy", "regime_ok",
        ]
        assert rows[0]["strategy"] == "BothActive"
        assert rows[0]["regime_ok"] == "true"
        assert float(rows[0]["capacity_nats"]) == pytest.approx(4.53858, abs=1e-4)

    def test_fig1_only_user2(self, tmp_path):
        code, text = run(tmp_path, "solve", "--a1", "1", "--a2", "20", "--tau", "0.02")
        assert code == 0
        _, rows = rows_of(text)
        assert rows[0]["strategy"] == "OnlyUser2"
        assert rows[0]["lambda0"] == "0.001"  # documented default

    def test_deterministic_output(self, tmp_path):
        args = ("solve", "--a1", "10", "--a2", "12", "--tau", "0.02")
        _, first = run(tmp_path, *args)
        _, second = run(tmp_path, *args)
        assert first == second

    def test_missing_field_is_validation_error(self, tmp_path, capsys):
        code, _ = run(tmp_path, "solve", "--a1", "10", "--tau", "0.02")
        assert code == 2
        assert "a2" in capsys.readouterr().err

    def test_bad_value_is_validation_error(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "solve", "--a1", "-3", "--a2", "12", "--tau", "0.02"
        )
        assert code == 2
        assert "a1" in capsys.readouterr().err

    def test_saturated_background_solves(self, tmp_path):
        # Every hit probability rounds to 1: capacity 0, not a crash.
        code, text = run(tmp_path, "solve", "--a1", "1", "--a2", "0.1", "--lambda0", "10", "--tau", "5")
        assert code == 0
        _, rows = rows_of(text)
        assert float(rows[0]["capacity_nats"]) == 0.0
        assert rows[0]["regime_ok"] == "false"

    def test_strict_out_of_regime(self, tmp_path):
        code, _ = run(
            tmp_path, "solve", "--a1", "10", "--a2", "30", "--tau", "0.02", "--strict"
        )
        assert code == 3


class TestStrict:
    @pytest.mark.parametrize(
        "argv",
        [
            "solve --a1 10 --a2 30 --tau 0.02",
            "solve-miso --peaks1 10,10 --peaks2 10 --tau 0.03",
            "intersections --a1 10 --a2 30 --tau 0.02",
            "sweep-peak --a1 20 --a2 20:30:5 --tau 0.05",
            "sweep-peak --a1 20 --a2 20:30:5 --tau 0,0.01,0.05",
            "sweep-region --a1 20:30:10 --a2 20:30:10 --tau 0.05",
            "sweep-region --a1 1:30 --a2 1:30 --cells 4 --tau-scale 1.5",
            "symmetric --a 20 --tau 0.02",
            "converge --a1 10 --a2 12 --taus 0.02,0.05",
        ],
    )
    def test_out_of_regime_exits_before_solving(self, tmp_path, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("solved under --strict")

        for name in ("solve", "solve_many", "find_intersections", "sweep_strategy_region"):
            monkeypatch.setattr(cli, name, refuse)
        # The handlers import these at call time, from their home modules.
        for module, name in (
            (continuous, "cont_capacity"), (continuous, "convergence_report"),
            (miso, "solve_miso"), (symmetric, "solve_symmetric"),
        ):
            monkeypatch.setattr(module, name, refuse)
        code, text = run(tmp_path, *argv.split(), "--strict")
        assert code == 3
        assert text == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("sweep-peak --a1 3 --a2 1e-3 --tau 5,-0.01", "tau must be positive, got -0.01"),
            ("sweep-region --a1 1:0 --a2 1e-3:10 --cells 4 --tau 1", "a1 must be positive, got 0.0"),
        ],
    )
    def test_invalid_cell_after_an_out_of_regime_one_is_named(self, tmp_path, capsys, argv, message):
        # Every cell is checked before any regime flag is read, so --strict
        # names the same bad field as the plain command line.
        for strict in ((), ("--strict",)):
            assert run(tmp_path, *argv.split(), *strict) == (2, "")
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_in_regime_region_passes(self, tmp_path):
        argv = ("sweep-region", "--a1", "1:30", "--a2", "1:30", "--cells", "4")
        code, strict_text = run(tmp_path, *argv, "--tau-scale", "1", "--strict")
        assert code == 0
        assert strict_text == run(tmp_path, *argv, "--tau-scale", "1")[1]

    def test_grid_flags_only_where_read(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "solve", "--a1", "10", "--a2", "12", "--tau", "0.02", "--grid-step", "1e-2")
        assert exc.value.code == 2


class TestConfigFile:
    def test_config_supplies_and_flags_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a1 = 10\na2 = 12\ntau = 0.02\n# comment\n", encoding="utf-8")
        code, text = run(tmp_path, "solve", "--config", str(cfg))
        assert code == 0
        _, rows = rows_of(text)
        assert rows[0]["a1"] == "10"

        code, text = run(tmp_path, "solve", "--config", str(cfg), "--a1", "1", "--a2", "20")
        assert code == 0
        _, rows = rows_of(text)
        assert rows[0]["a1"] == "1"
        assert rows[0]["strategy"] == "OnlyUser2"

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("a1 10\n", encoding="utf-8")
        code, _ = run(tmp_path, "solve", "--config", str(cfg))
        assert code == 2
        assert "key=value" in capsys.readouterr().err


class TestIntersections:
    def test_fig1_empty(self, tmp_path):
        code, text = run(
            tmp_path, "intersections", "--a1", "1", "--a2", "20", "--tau", "0.02"
        )
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["mu1", "mu2", "valid"]
        assert rows == []

    def test_fig2_single_valid(self, tmp_path):
        code, text = run(
            tmp_path, "intersections", "--a1", "10", "--a2", "12", "--tau", "0.02"
        )
        assert code == 0
        _, rows = rows_of(text)
        assert len(rows) == 1
        assert rows[0]["valid"] == "true"
        assert 0.0 <= float(rows[0]["mu1"]) <= 1.0

    def test_bool_column_past_the_first_row(self, tmp_path, monkeypatch):
        # No golden case prints a bool after a command's first row.
        found = siso.IntersectionSearch(
            points=(DutyPair(0.1, 0.2), DutyPair(0.3, 0.4)), rejected=(DutyPair(0.5, 1.0),), reliable=True
        )
        monkeypatch.setattr(cli, "find_intersections", lambda params: found)
        code, text = run(tmp_path, "intersections", "--a1", "10", "--a2", "12", "--tau", "0.02")
        assert code == 0
        assert text.splitlines()[1:] == ["mu1,mu2,valid", "0.1,0.2,true", "0.3,0.4,true", "0.5,1,false"]


class TestSolveMiso:
    def test_reduction_matches_solve(self, tmp_path):
        code, miso_text = run(
            tmp_path, "solve-miso", "--peaks1", "5,5", "--peaks2", "6,6",
            "--tau", "0.02",
        )
        assert code == 0
        _, miso_rows = rows_of(miso_text)
        code, siso_text = run(
            tmp_path, "solve", "--a1", "10", "--a2", "12", "--tau", "0.02"
        )
        _, siso_rows = rows_of(siso_text)
        assert miso_rows[0]["capacity_nats"] == siso_rows[0]["capacity_nats"]
        assert miso_rows[0]["a1"] == "10"


class TestSweeps:
    def test_sweep_peak_with_continuous_sentinel(self, tmp_path):
        code, text = run(
            tmp_path, "sweep-peak", "--a1", "12.5", "--a2", "5:15:5",
            "--tau", "0.02,0",
        )
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["a2", "tau", "mu1", "mu2", "capacity"]
        assert len(rows) == 6
        slotted = {r["a2"]: float(r["capacity"]) for r in rows if r["tau"] != "0"}
        cont = {r["a2"]: float(r["capacity"]) for r in rows if r["tau"] == "0"}
        assert set(slotted) == set(cont) == {"5", "10", "15"}
        for a2 in slotted:
            assert slotted[a2] < cont[a2]  # dead time only loses information

    def test_continuous_rows_are_cont_capacity_row_by_row(self, tmp_path, monkeypatch):
        # One cont_capacity per a2, in row order, and its rows again for a
        # repeated 0.
        solved, cont_capacity = [], continuous.cont_capacity
        monkeypatch.setattr(continuous, "cont_capacity", lambda cp: solved.append(cp) or cont_capacity(cp))
        code, text = run(tmp_path, "sweep-peak", "--a1", "7.5", "--a2", "0.05:40", "--cells", "9", "--tau", "0,0.01,0")
        assert code == 0
        a2_values = [0.05 + (40.0 - 0.05) * i / 8 for i in range(9)]
        assert solved == [continuous.ContinuousParams(7.5, a2, 0.001) for a2 in a2_values]
        header = ("a2", "tau", "mu1", "mu2", "capacity")
        assert rows_of(text)[0] == list(header)
        expected = []
        for a2 in a2_values:
            rate, duty = cont_capacity(continuous.ContinuousParams(7.5, a2, 0.001))
            expected.append(cli._row_template(header) % (a2, 0.0, duty.mu1, duty.mu2, rate))
        cont = [line for line in text.splitlines(keepends=True)[2:] if line.split(",")[1] == "0"]
        assert cont == expected + expected

    def test_sweep_region_labels(self, tmp_path):
        code, text = run(
            tmp_path, "sweep-region", "--a1", "1:21:10", "--a2", "1:21:10",
        )
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["a1", "a2", "strategy"]
        assert len(rows) == 9
        byab = {(r["a1"], r["a2"]): r["strategy"] for r in rows}
        assert byab[("1", "1")] == "BothActive"
        assert byab[("1", "21")] == "OnlyUser2"
        assert byab[("21", "1")] == "OnlyUser1"

    def test_sweep_region_cells_range(self, tmp_path):
        code, text = run(
            tmp_path, "sweep-region", "--a1", "1:30", "--a2", "1:30", "--cells", "3",
        )
        assert code == 0
        _, rows = rows_of(text)
        assert len(rows) == 9


class TestExitCodes:
    def test_saturated_solve_succeeds_out_of_regime(self, tmp_path):
        code, text = run(tmp_path, "solve", "--a1", "1000", "--a2", "1000", "--tau", "1")
        assert code == 0
        assert "intersections=0" in text.splitlines()[0]
        _, rows = rows_of(text)
        assert rows[0]["regime_ok"] == "false"

    def test_saturated_intersections_is_numerical_error(self, tmp_path, capsys):
        code, text = run(
            tmp_path, "intersections", "--a1", "1000", "--a2", "1000", "--tau", "1"
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("solve", "--a1", "inf", "--a2", "12", "--tau", "0.02"), "a1"),
            (("solve", "--a1", "10", "--a2", "12", "--tau", "inf"), "tau"),
            (("intersections", "--a1", "10", "--a2", "nan", "--tau", "0.02"), "a2"),
            (("solve-miso", "--peaks1", "5,inf", "--peaks2", "6", "--tau", "0.02"), "peaks1"),
            (("sweep-peak", "--a1", "10", "--a2", "5:15:5", "--tau", "0.02,inf"), "tau"),
            (("sweep-peak", "--a1", "inf", "--a2", "5:15:5", "--tau", "0"), "a1"),
            (("sweep-region", "--a1", "1:21:10", "--a2", "1:21:10", "--tau", "inf"), "tau"),
            (("sweep-region", "--a1", "1:inf", "--a2", "1:3", "--cells", "3"), "a1"),
            (("symmetric", "--a", "inf", "--tau", "0.02"), "a"),
            # Each peak is finite, but the summed peak a1 overflows.
            (("solve-miso", "--peaks1", "1e308,1e308", "--peaks2", "6", "--tau", "0.02"), "peaks1"),
            (("converge", "--a1", "10", "--a2", "12", "--taus", "inf"), "taus"),
            ((*REGION, "--tau-scale", "nan"), "tau-scale"),
        ],
    )
    def test_non_finite_input_is_validation_error(self, tmp_path, capsys, argv, field):
        code, _ = run(tmp_path, *argv)
        assert code == 2
        err = capsys.readouterr().err
        assert f"{field} must be finite" in err
        # The message reports what was typed, not a value derived from it.
        assert "nan" not in err or any("nan" in arg for arg in argv)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve", "--a1", "abc", "--a2", "12", "--tau", "0.02"), "a1 must be a number, got 'abc'"),
            (("solve", "--a1", "10", "--a2", "12", "--tau", "0.02", "--lambda0", "z"), "lambda0 must be a number"),
            (("solve-miso", "--peaks1", "5,q", "--peaks2", "6", "--tau", "0.02"), "peaks1 must be a number"),
            (("intersections", "--a1", "10", "--a2", "12", "--tau", "1/50"), "tau must be a number"),
            (("sweep-peak", "--a1", "10", "--a2", "5:15:5", "--tau", "0.02,x"), "tau must be a number, got 'x'"),
            (("sweep-peak", "--a1", "10", "--a2", "5:x:5", "--tau", "0.02"), "a2 must be a number"),
            (("sweep-region", "--a1", "1:30", "--a2", "1:30", "--cells", "x"), "cells must be an integer"),
            (("sweep-region", "--a1", "1:30:10", "--a2", "1:30:10", "--tau-scale", "x"), "tau-scale must be a number"),
            (("sweep-region", "--a1", "1:30:10", "--a2", "1:30:10", "--tau", "x"), "tau must be a number"),
            (("sweep-region", "--a1", "1:2:3:4", "--a2", "1:30:10"), "cannot parse a1 range '1:2:3:4'"),
            (("symmetric", "--a", "ten", "--tau", "0.02"), "a must be a number"),
        ],
    )
    def test_non_numeric_input_names_the_field(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "1"), "cells must be at least 2, got 1"),
            (("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "0"), "cells must be at least 2, got 0"),
            (("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "-4"), "cells must be at least 2, got -4"),
            (("sweep-region", "--a1", "1:3", "--a2", "1:3"), "range lo:hi needs --cells to fix the grid size"),
            (("sweep-region", "--a1", "3:1:1", "--a2", "1:3:1"), "a1 has no values, got '3:1:1'"),
            (("sweep-peak", "--a1", "3", "--a2", "5:1:1", "--tau", "0.01"), "a2 has no values, got '5:1:1'"),
            (("sweep-peak", "--a1", "3", "--a2", "1:5:1", "--tau", ","), "tau has no values, got ','"),
            (("converge", "--a1", "10", "--a2", "12", "--taus", ","), "taus has no values, got ','"),
        ],
    )
    def test_grid_without_cells_or_values_names_the_field(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("symmetric", "--a", "0", "--tau", "0.01"), "a must be positive, got 0.0"),
            (("symmetric", "--a", "-1", "--tau", "0.01"), "a must be positive, got -1.0"),
            (
                ("symmetric", "--a", "1", "--lambda0", "0", "--tau", "0.01"),
                "lambda0 must be positive, got 0.0; for a dark-current-free study use lambda0 = 2e-9 * a",
            ),
        ],
    )
    def test_symmetric_errors_name_its_one_peak(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ((*REGION, "--tau-scale", "-1"), "tau-scale must be positive, got '-1'"),
            ((*REGION, "--tau-scale", "0"), "tau-scale must be positive, got '0'"),
            ((*REGION, "--tau-scale", "inf"), "tau-scale must be finite, got 'inf'"),
            (("converge", "--a1", "10", "--a2", "12", "--taus", "0.01,nan"), "taus must be finite, got '0.01,nan'"),
            (("converge", "--a1", "10", "--a2", "12", "--taus", "1e-3,0"), "taus must be positive, got '1e-3,0'"),
            # The scale rule's cell would divide by a1 + a2 + lambda0 = 0: the bad field is named first.
            *(
                (
                    ("sweep-region", "--a1", "2", "--a2", "2", "--lambda0", "-4", "--tau-scale", "0.5", *strict),
                    "lambda0 must be positive, got -4.0; for a dark-current-free study use lambda0 = 1e-9 * (a1 + a2)",
                )
                for strict in ((), ("--strict",))
            ),
            *(
                (
                    ("sweep-region", "--a1", "2", "--a2", "-2", "--lambda0", "0", "--tau-scale", "0.5", *strict),
                    "a2 must be positive, got -2.0",
                )
                for strict in ((), ("--strict",))
            ),
        ],
    )
    def test_dead_time_errors_quote_the_typed_flag(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_fixed_tau_leaves_the_scale_unchecked(self, tmp_path):
        assert run(tmp_path, *REGION, "--tau", "0.05", "--tau-scale", "-1") == run(tmp_path, *REGION, "--tau", "0.05")

    def test_scale_rule_gives_each_cell_the_doubles_of_the_scalar_rule(self, tmp_path, monkeypatch):
        seen = []

        def record(a1_grid, a2_grid, lambda0, tau):
            seen.append((a1_grid, a2_grid, lambda0, tau))
            return [[siso.Strategy.BOTH_ACTIVE] * len(a2_grid) for _ in a1_grid]

        monkeypatch.setattr(cli, "sweep_strategy_region", record)
        argv = ("sweep-region", "--a1", "0.5:40", "--a2", "0.01:7", "--cells", "60", "--lambda0", "0.37")
        assert run(tmp_path, *argv, "--tau-scale", "0.7")[0] == 0
        (a1_grid, a2_grid, lambda0, tau), = seen
        rule = [[0.7 * math.log(2.0) / (a1 + a2 + lambda0) for a2 in a2_grid] for a1 in a1_grid]
        assert tau.shape == (60, 60) and tau.tolist() == rule

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("solve-miso", "--peaks1", "5,inf", "--peaks2", "6", "--tau", "0.02"), "peaks1 must be finite, got '5,inf'"),
            (("solve-miso", "--peaks1", "5", "--peaks2", "nan", "--tau", "0.02"), "peaks2 must be finite, got 'nan'"),
            (("solve-miso", "--peaks1", "5,-1", "--peaks2", "6", "--tau", "0.02"), "peaks1 must be positive, got '5,-1'"),
            (("solve-miso", "--peaks1", "5", "--peaks2", "0", "--tau", "0.02"), "peaks2 must be positive, got '0'"),
            (
                ("solve-miso", "--peaks1", "1e308,1e308", "--peaks2", "6", "--tau", "0.02"),
                "the sum of peaks1 must be finite, got '1e308,1e308'",
            ),
            (
                ("solve-miso", "--peaks1", ",".join(["1"] * 17), "--peaks2", "6", "--tau", "0.02"),
                f"peaks1 supports at most 16 antennas, got '{','.join(['1'] * 17)}'",
            ),
        ],
    )
    def test_solve_miso_errors_name_its_flags(self, tmp_path, capsys, argv, message):
        code, text = run(tmp_path, *argv)
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv",
        [
            # Rates and dead times so small that the hit probabilities underflow.
            ("solve", "--a1", "1e-300", "--a2", "1e-300", "--tau", "1e-300"),
            ("symmetric", "--a", "1e-300", "--tau", "1e-300"),
            # The symmetric fixed point cannot meet its residual bound.
            ("symmetric", "--a", "1e-10", "--tau", "1e-10"),
            # The continuous reference overflows: no candidate has a finite rate.
            ("sweep-peak", "--a1", "1e308", "--a2", "1:2", "--cells", "2", "--tau", "0"),
            ("converge", "--a1", "1e308", "--a2", "1", "--taus", "1"),
            # Peaks far below the background: the continuous rate is rounding noise.
            ("sweep-peak", "--a1", "1e-20", "--a2", "1e-20", "--tau", "0"),
            ("converge", "--a1", "1e-10", "--a2", "1e-10", "--taus", "1e-3"),
            # A peak that vanishes against the background (a2 + lambda0 is
            # lambda0): cont_g, divided by the subnormal a2, is NaN, and no
            # warning may precede the error.
            ("sweep-peak", "--a1", "1e-8", "--a2", "1e-320", "--lambda0", "30", "--tau", "0"),
            ("converge", "--a1", "1e-8", "--a2", "1e-320", "--lambda0", "30", "--taus", "0.01"),
            # Valid weak signals: the single-user duty's entropy chord cancels
            # to a duty outside [0, 1] (-2.12 here), in one solve and in a batch.
            ("solve", "--a1", "1e-8", "--a2", "1e-8", "--lambda0", "1", "--tau", "0.1"),
            ("sweep-peak", "--a1", "1e-8", "--a2", "1e-8:2e-8", "--cells", "2", "--lambda0", "1", "--tau", "0.1"),
            # The dark slot's hit probability rounds to 1 or underflows to 0.
            ("symmetric", "--a", "1", "--lambda0", "40", "--tau", "1"),
            ("symmetric", "--a", "1", "--lambda0", "1e-200", "--tau", "1e-200"),
            # Every candidate rate overflows to inf, in one solve and in a
            # batch, whose regime test overflows too.
            ("solve", "--a1", "1e308", "--a2", "1e308", "--tau", "1e-310"),
            ("sweep-peak", "--a1", "1e308", "--a2", "1e308", "--tau", "1e-310"),
            # In regime, no interior root, and both solo rates are rounding
            # noise below 0: in one solve, and in a one-cell sweep whose lane
            # falls back to it.
            ("solve", "--a1", "4.999922800686578e-05", "--a2", "4.999922800686578e-05",
             "--lambda0", "1879.047957630584", "--tau", "4.792461863126556e-08"),
            ("sweep-region", "--a1", "4.999922800686578e-05", "--a2", "4.999922800686578e-05",
             "--lambda0", "1879.047957630584", "--tau", "4.792461863126556e-08"),
            # Out of regime, the equal-peak balanced rate is -2.08e-16 of rounding noise.
            ("symmetric", "--a", "9.285456520672362e-08", "--lambda0", "1.4561527182693683",
             "--tau", "3.3934506191014346"),
        ],
    )
    def test_underflow_is_numerical_error(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv)
        assert code == 4
        assert text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: numerical failure") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            *((command, "--a1", "1e-20", "--a2", a2, "--tau", "0.02")
              for command in ("solve", "intersections", "sweep-peak", "sweep-region") for a2 in ("1e-20", "1")),
            ("symmetric", "--a", "1e-20", "--tau", "0.02"),
        ],
    )
    def test_hit_level_difference_rounding_to_zero_is_named(self, capsys, argv):
        # a1 vanishes beside lambda0 and a2, so p1 - p2 and p3 - p4 round to 0
        # and the curve search divides by 0: a named error on every command.
        assert main(list(argv)) == 4
        out, err = capsys.readouterr()
        assert out == "" and "ZeroDivisionError" not in err
        assert err.startswith(
            "error: numerical failure (ArithmeticError: g - f divides by a hit-level difference that rounds to 0 "
        ), err

    @pytest.mark.parametrize("command", ["solve", "sweep-region"])
    def test_rate_below_zero_is_never_printed(self, tmp_path, capsys, command):
        # In regime, no interior root, and the best solo rate is -1.31e-19:
        # nothing is printed, by one solve or by a one-cell sweep.
        argv = ("--a1", "2.85862709992799e-13", "--a2", "2.85862709992799e-13",
                "--lambda0", "5.8182242800704014e-05", "--tau", "3.307354087863232")
        assert main([command, *argv]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: numerical failure (ArithmeticError: every candidate rate is rounding noise below zero"
            " (the best is -1.31e-19))\n"
        )

    @pytest.mark.parametrize(
        "argv",
        [
            # The peak threshold's root is rounding noise: the half-sums
            # overflowed at the first line and were ~1e16 at the second.
            ("symmetric", "--a", "512.5202477033777", "--lambda0", "0.0029339146239736333", "--tau", "1.2741161428746491e-14"),
            ("symmetric", "--a", "0.003073778104790355", "--lambda0", "0.0006130141166780985", "--tau", "1.5667856323274545e-14"),
        ],
    )
    def test_noise_threshold_names_its_residual(self, tmp_path, capsys, argv):
        code, text = run(tmp_path, *argv)
        assert (code, text) == (4, "")
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: numerical failure \(ArithmeticError: peak-threshold residual \S+ above 1e-09 of the target \S+:"
            r" the flip level is rounding noise\)\n",
            err,
        ), err

    def test_noise_flip_level_names_itself(self, capsys):
        # The flip level is below its target already at a = lambda0: exit 4
        # with a message that names it.
        argv = ("symmetric", "--a", "10", "--lambda0", "1.0883405665963555", "--tau", "4.5800758862051256e-17")
        assert main(list(argv)) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (
            "error: numerical failure (ArithmeticError: the flip level -1.05802e+15 at a = 1.08834"
            " is already below the target 37.5376: it is rounding noise)\n"
        )

    def test_continuous_rounding_noise_names_its_floor(self, tmp_path, capsys):
        code, text = run(tmp_path, "sweep-peak", "--a1", "1e-20", "--a2", "1e-20", "--tau", "0")
        assert (code, text) == (4, "")
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: numerical failure \(ArithmeticError: the continuous rate \S+ is not above"
            r" its rounding floor \S+\)\n",
            err,
        ), err
        code, text = run(tmp_path, "sweep-peak", "--a1", "1e-6", "--a2", "1e-6", "--tau", "0")
        assert code == 0
        _, rows = rows_of(text)
        assert float(rows[0]["capacity"]) > 0.0

    @pytest.mark.parametrize("argv, code, message", CONTINUOUS_FAILURES, ids=[c[0] for c in CONTINUOUS_FAILURES])
    def test_continuous_rows_fail_in_row_order(self, tmp_path, capsys, argv, code, message):
        assert run(tmp_path, *argv.split()) == (code, "")
        err = capsys.readouterr().err
        assert re.fullmatch(f"error: {message}\n", err), err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "100000000"), "a1 has 100000000 values"),
            (("sweep-region", "--a1", "1:3:1e-9", "--a2", "1:3:1"), "a1 has 2000000000 values"),
            (("sweep-region", "--a1", "0:1:5e-324", "--a2", "1"), "a1 has inf values"),
            (("sweep-region", "--a1", "1:3", "--a2", "1:3", "--cells", "1001"), "a1 x a2 has 1002001 values"),
            (("sweep-peak", "--a1", "1", "--a2", "1:3", "--cells", "100000000", "--tau", "0.01"), "a2 has 100000000 values"),
            (("sweep-peak", "--a1", "1", "--a2", "1:3:1e-9", "--tau", "0.01"), "a2 has 2000000000 values"),
            (
                ("sweep-peak", "--a1", "1", "--a2", "1:3", "--cells", "500001", "--tau", "0.01,0"),
                "a2 x tau has 1000002 values",
            ),
        ],
    )
    def test_oversized_grid_is_refused_before_it_is_built(self, tmp_path, capsys, monkeypatch, argv, message):
        def bounded_range(*bounds):
            values = range(*bounds)
            assert len(values) <= cli.MAX_GRID, f"built a grid of {len(values)} values"
            return values

        def refuse(*args, **kwargs):
            raise AssertionError("solved an oversized grid")

        # The grid lists are comprehensions over range: a module global
        # shadows the builtin, so a list over the cap is never allocated.
        monkeypatch.setattr(cli, "range", bounded_range, raising=False)
        for name in ("solve_many", "sweep_strategy_region"):
            monkeypatch.setattr(cli, name, refuse)
        monkeypatch.setattr(continuous, "cont_capacity", refuse)
        start = time.perf_counter()
        code, text = run(tmp_path, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert text == ""
        assert capsys.readouterr().err == f"error: {message}, more than the limit of 1000000\n"

    def test_grid_at_the_cap_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID", 9)
        code, text = run(tmp_path, "sweep-region", "--a1", "1:3:1", "--a2", "1:3:1")
        assert code == 0
        assert len(rows_of(text)[1]) == 9
        code, text = run(tmp_path, "sweep-peak", "--a1", "1", "--a2", "1:3:1", "--tau", "0.01,0.02,0")
        assert code == 0
        assert len(rows_of(text)[1]) == 9
        code, _ = run(tmp_path, "sweep-region", "--a1", "1:3:1", "--a2", "1:4:1")
        assert code == 2
        assert capsys.readouterr().err == "error: a1 x a2 has 12 values, more than the limit of 9\n"
        code, _ = run(tmp_path, "sweep-region", "--a1", "1:10", "--a2", "1", "--cells", "10")
        assert code == 2
        assert capsys.readouterr().err == "error: a1 has 10 values, more than the limit of 9\n"

    def test_closed_pipe_exits_141_in_process(self, monkeypatch, capsys):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["solve", "--a1", "10", "--a2", "12", "--tau", "0.02"]) == 141
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "argv, lines_read",
        [
            # Like `poisson-mac sweep-region ... | head -1`: 10,000 rows
            # overflow the pipe, so the program is still writing when the
            # reader leaves.
            (("sweep-region", "--a1", "1:30", "--a2", "1:30", "--cells", "100"), 1),
            # A reader gone before the first byte: the whole CSV sits in
            # stdout's buffer until main flushes it.
            (("solve", "--a1", "10", "--a2", "12", "--tau", "0.02"), 0),
        ],
    )
    def test_closed_pipe_exits_141_quietly(self, argv, lines_read):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        code = "import sys; from poisson_mac.cli import main; sys.exit(main())"
        pipes = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE}
        with subprocess.Popen([sys.executable, "-c", code, *argv], env=env, **pipes) as proc:
            for _ in range(lines_read):
                assert proc.stdout.readline().startswith(b"# command=")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 141
        assert err == b""

    def test_unwritable_out_path_is_validation_error(self, tmp_path, capsys):
        code = main(["solve", "--a1", "10", "--a2", "12", "--tau", "0.02", "--out", str(tmp_path / "no" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: [Errno 2]")

    @pytest.mark.parametrize(
        "argv",
        [
            ("converge", "--a1", "10", "--a2", "12", "--taus", "1e-3", "--grid-step", "1e-2"),
            ("sweep-peak", "--a1", "10", "--a2", "5:10:5", "--tau", "0", "--grid-step", "1e-2"),
            ("sweep-peak", "--a1", "10", "--a2", "5:10:5", "--tau", "0", "--grid-refine", "1"),
            ("converge", "--a1", "10", "--a2", "12", "--taus", "1e-3", "--grid-refine", "1"),
        ],
    )
    def test_bad_reference_grid_is_validation_error(self, tmp_path, capsys, argv):
        # The continuous reference has no grid to set: its flags are gone,
        # and argparse rejects them with the validation exit code.
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert not (tmp_path / "out.csv").exists()
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


class TestSymmetricAndConverge:
    def test_symmetric_row(self, tmp_path):
        code, text = run(tmp_path, "symmetric", "--a", "10", "--tau", "0.02")
        assert code == 0
        header, rows = rows_of(text)
        assert "peak_threshold" in header
        assert rows[0]["schur_mode"] == "SplitRegions"
        assert float(rows[0]["fixed_point"]) == pytest.approx(0.267433, abs=1e-5)

    def test_converge_rows(self, tmp_path):
        code, text = run(
            tmp_path, "converge", "--a1", "10", "--a2", "12", "--taus", "1e-3,1e-4"
        )
        assert code == 0
        header, rows = rows_of(text)
        assert header == ["tau", "capacity", "cont_capacity", "gap", "mu1", "mu2"]
        assert len(rows) == 2
        assert float(rows[1]["gap"]) < float(rows[0]["gap"])

    def test_converge_rejects_zero_tau(self, tmp_path, capsys):
        code, _ = run(
            tmp_path, "converge", "--a1", "10", "--a2", "12", "--taus", "1e-3,0"
        )
        assert code == 2
        assert "taus" in capsys.readouterr().err


class TestParserCache:
    def test_main_builds_the_parser_once(self, tmp_path, capsys):
        # Well-formed calls are read from the command table and build no
        # parser; the first help or usage error builds it, once.
        for first in (["solve", "--help"], ["solve", "--a1"]):
            cli._build_parser.cache_clear()
            for _ in range(5):
                assert run(tmp_path, "solve", "--a1", "10", "--a2", "12", "--tau", "0.02")[0] == 0
                assert run(tmp_path, "symmetric", "--a", "10", "--tau", "0.02", "--strict")[0] == 0
            assert cli._build_parser.cache_info().currsize == 0
            for argv in (first, ["solve", "--help"], ["symmetric", "--a", "10", "--tau=0.02", "--no-such-flag"]):
                with pytest.raises(SystemExit):
                    main(argv)
                assert run(tmp_path, "solve", "--a1", "10", "--a2", "12", "--tau", "0.02")[0] == 0
            assert cli._build_parser.cache_info().misses == 1
        capsys.readouterr()

    def test_import_builds_no_parser(self):
        code = "import poisson_mac.cli as cli; print(cli._build_parser.cache_info().currsize)"
        assert fresh_python(code).stdout == "0\n"

    def test_module_run_builds_no_parser_for_a_well_formed_line(self):
        # `python -m poisson_mac.cli ...` reads sys.argv (main's argv=None);
        # sys.exit is replaced to read the run module's parser cache at exit.
        code = (
            "import runpy, sys\n"
            "def exit(status):\n"
            "    print(status, sys._getframe(1).f_globals['_build_parser'].cache_info().currsize)\n"
            "sys.exit = exit\n"
            "runpy.run_module('poisson_mac.cli', run_name='__main__', alter_sys=True)\n"
        )
        argv = "solve --a1 10 --a2 12 --tau 0.02"
        out = fresh_python(code, *argv.split()).stdout
        assert out == GOLDEN["solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02"][1] + "0 0\n"

    def test_errors_and_help_leave_the_parser_as_built(self, tmp_path, capsys):
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--a1", "10", "--no-such-flag", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep-region", "--help"])
        assert exc.value.code == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("a1 = 1\na2 = 20\ntau = 0.5\n", encoding="utf-8")
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "cfg.csv")]) == 0
        assert main(["solve", "--a1", "10", "--a2", "30", "--tau", "0.02", "--strict"]) == 3
        assert main(["solve", "--a1", "-3", "--a2", "12", "--tau", "0.02"]) == 2
        capsys.readouterr()
        for argv in ("solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02", "sweep-region --a1 1:30 --a2 1:30 --cells 12"):
            assert main(argv.split()) == GOLDEN[argv][0]
            assert capsys.readouterr().out == GOLDEN[argv][1]
        assert cli._build_parser.cache_info().misses == 1

    def test_help_is_the_same_on_every_call(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["solve", "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1]
        assert "--strict" in texts[0]


def argparse_vars(argv):
    """vars() of the parser's namespace for argv, or the exit it raised."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit as exc:
            return f"exit {exc.code}"


def table_read(argv):
    """The command table's namespace for argv, checked against argparse's."""
    args = cli._read_table(argv)
    if args is not None:
        assert vars(args) == argparse_vars(argv), argv
    return args


# The golden command lines that argparse reads: a value beginning with '-'
# and --flag=value.
ARGPARSE_GOLDEN = {
    "solve --a1 -3 --a2 12 --tau 0.02",
    "sweep-peak --a1 1e-20 --a2=1e-20:-1 --cells 2 --tau 0",
}
ALL_FLAGS = sorted({"--strict", *cli.COMMON_FLAGS, *(f for c in cli.COMMANDS.values() for f in c.flags)})
VALUES = ["10", "0.02", "1:3", "5,5", "1e-3,0", "solve", "x"]
HOSTILE = ["-", "--", "-3", "-1e-3", "-inf", "-h", "--help", "--ta", "--a1=3", "", "--grid-step", "--strict"]


class TestCommandTable:
    @pytest.mark.parametrize("argv", list(GOLDEN))
    def test_golden_command_lines(self, argv):
        paths = {"cfg": "run.cfg", "badcfg": "bad.cfg", "missing": "missing.cfg", "out": "out.csv"}
        args = table_read([token.format(**paths) for token in argv.split()])
        assert (args is None) == (argv in ARGPARSE_GOLDEN)

    def test_golden_argparse_lines_are_golden(self):
        assert ARGPARSE_GOLDEN <= set(GOLDEN)

    def test_any_command_line_reads_as_argparse_does(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @st.composite
        def argvs(draw):
            command = draw(st.sampled_from([*cli.COMMANDS, "", "-h", "--strict"]))
            own = sorted(cli.COMMON_FLAGS | cli.COMMANDS[command].flags) if command in cli.COMMANDS else ALL_FLAGS
            argv = [command]
            for _ in range(draw(st.integers(0, 6))):
                kind = draw(st.integers(0, 9))
                if kind < 5:  # one of the command's own flags, with a value
                    argv += [draw(st.sampled_from(own)), draw(st.sampled_from(VALUES))]
                elif kind == 5:
                    argv.append("--strict")
                elif kind == 6:  # a flag of any command
                    argv += [draw(st.sampled_from(ALL_FLAGS)), draw(st.sampled_from(VALUES))]
                elif kind == 7:  # a hostile value
                    argv += [draw(st.sampled_from(own)), draw(st.sampled_from(HOSTILE))]
                elif kind == 8:
                    argv.append(draw(st.sampled_from(HOSTILE)))
                else:  # a flag with no value
                    argv.append(draw(st.sampled_from(own)))
            return argv

        taken = []

        @settings(derandomize=True, deadline=None, max_examples=120, database=None)
        @given(argvs())
        def check(argv):
            taken.append(table_read(argv) is not None)

        check()
        assert 0.2 < sum(taken) / len(taken) < 0.8


# Runs each argv through main in one fresh interpreter; prints a JSON object
# with each run's exit code and stdout, and the numpy modules loaded before
# and after the runs.
FRESH_CLI = """
import contextlib, io, json, sys
from poisson_mac.cli import main

def numpy_modules():
    return sorted(m for m in sys.modules if m.startswith("numpy."))

before, runs = numpy_modules(), []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append((main(argv.split()), out.getvalue()))
print(json.dumps({"before": before, "runs": runs, "after": numpy_modules()}))
"""


def fresh_cli(*argvs):
    return json.loads(fresh_python(FRESH_CLI, *argvs).stdout)


class TestLazyNumpy:
    IN_REGIME = (
        "solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02",
        "intersections --a1 10 --a2 12 --tau 0.02",
        "symmetric --a 10 --tau 0.02",
        "solve-miso --peaks1 5,5 --peaks2 6,6 --tau 0.02",
    )

    def test_in_regime_commands_load_no_numpy(self):
        out = fresh_cli(*self.IN_REGIME)
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv] for argv in self.IN_REGIME]
        assert out["before"] == out["after"] == []

    def test_converge_loads_no_numpy(self):
        # The continuous reference enumerates its candidates in math code.
        argv = "converge --a1 10 --a2 12 --taus 1e-3,1e-4,1e-5"
        out = fresh_cli(argv)
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv]]
        assert out["before"] == out["after"] == []

    def test_continuous_sweep_peak_loads_no_numpy(self):
        # With no finite dead time, sweep-peak has no lane for the batch.
        argv = "sweep-peak --a1 10 --a2 5:10:5 --tau 0"
        out = fresh_cli(argv)
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv]]
        assert out["before"] == out["after"] == []

    @pytest.mark.parametrize(
        "argv",
        [
            "solve --a1 10 --a2 30 --tau 0.02",
            "sweep-region --a1 1:30 --a2 1:30 --cells 12",
            "sweep-peak --a1 20 --a2 5:40 --cells 3 --tau 0,0.01,0",
        ],
    )
    def test_first_array_use_loads_numpy(self, argv):
        out = fresh_cli(argv)
        assert out["before"] == []
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv]]
        assert "numpy.linalg" in out["after"]

    def test_numpy_already_loaded_is_used_as_is(self):
        code = "import numpy, types, poisson_mac.siso as s; print(s.np is numpy, type(numpy) is types.ModuleType)"
        assert fresh_python(code).stdout == "True True\n"

    def test_blocked_numpy_fails_at_import(self):
        code = "import sys; sys.modules['numpy'] = None; import poisson_mac"
        out = fresh_python(code, check=False)
        assert out.returncode == 1
        assert out.stderr.splitlines()[-1].startswith("ModuleNotFoundError: ")


# Imports the CLI in a fresh interpreter, then runs each argv through main;
# prints a JSON object with the package modules the import loaded, each run's
# exit code and stdout, and the package modules the runs added.
FRESH_LOADS = """
import contextlib, io, json, sys

def package_modules():
    return {m for m in sys.modules if m.split(".")[0] == "poisson_mac"}

import poisson_mac.cli
loaded, runs = package_modules(), []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        runs.append((poisson_mac.cli.main(argv.split()), out.getvalue()))
print(json.dumps({"import": sorted(loaded), "runs": runs, "added": sorted(package_modules() - loaded)}))
"""


class TestLazyModules:
    CLI_IMPORT = ["poisson_mac", "poisson_mac._numpy", "poisson_mac.channel", "poisson_mac.cli", "poisson_mac.siso"]

    @pytest.mark.parametrize(
        "argvs, added",
        [
            (
                (
                    "solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02",
                    "intersections --a1 10 --a2 12 --tau 0.02",
                    "sweep-region --a1 1:30 --a2 1:30 --cells 12",
                    "sweep-peak --a1 10 --a2 5:15:5 --tau 0.02 --strict",
                ),
                [],
            ),
            (("symmetric --a 10 --tau 0.02",), ["symmetric"]),
            (("solve-miso --peaks1 5,5 --peaks2 6,6 --tau 0.02",), ["miso"]),
            (("converge --a1 10 --a2 12 --taus 1e-3,1e-4,1e-5",), ["continuous"]),
            (("sweep-peak --a1 10 --a2 5:10:5 --tau 0",), ["continuous"]),
            (("solve --a1 10 --a2 30 --tau 0.02",), ["gridsearch"]),
        ],
    )
    def test_each_command_loads_only_the_modules_it_calls(self, argvs, added):
        out = json.loads(fresh_python(FRESH_LOADS, *argvs).stdout)
        assert out["import"] == self.CLI_IMPORT
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv] for argv in argvs]
        assert out["added"] == [f"poisson_mac.{m}" for m in added]


# Imports the CLI in a fresh interpreter, then runs each argv through main (a
# SystemExit counts as its code); prints a JSON object with each run's exit
# code and stdout, the modules the import and each run added to sys.modules
# (so that site's own imports do not count), and the parser cache's misses
# after each run.
FRESH_ADDED = """
import contextlib, io, json, sys

seen = set(sys.modules)

def added():
    global seen
    new, seen = sorted(set(sys.modules) - seen), set(sys.modules)
    return new

import poisson_mac.cli
steps, runs, misses = [added()], [], []
for argv in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
        try:
            runs.append((poisson_mac.cli.main(argv.split()), out.getvalue()))
        except SystemExit as exc:
            runs.append((exc.code, out.getvalue()))
    steps.append(added())
    misses.append(poisson_mac.cli._build_parser.cache_info().misses)
print(json.dumps({"runs": runs, "added": steps, "misses": misses}))
"""


class TestLeanStart:
    HEAVY = {"dataclasses", "inspect", "argparse"}
    COMMANDS = (*TestLazyNumpy.IN_REGIME, "converge --a1 10 --a2 12 --taus 1e-3,1e-4,1e-5")

    def test_import_and_in_regime_commands_load_no_dataclasses_or_argparse(self):
        out = json.loads(fresh_python(FRESH_ADDED, *self.COMMANDS).stdout)
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv] for argv in self.COMMANDS]
        assert "poisson_mac.cli" in out["added"][0]
        assert [sorted(self.HEAVY & set(step)) for step in out["added"]] == [[]] * (1 + len(self.COMMANDS))
        assert out["misses"] == [0] * len(self.COMMANDS)

    def test_out_of_regime_solve_loads_the_grid_but_no_dataclasses_or_miso(self):
        # numpy imports inspect itself, so only dataclasses is checked.
        argv = "solve --a1 10 --a2 30 --tau 0.02"
        out = json.loads(fresh_python(FRESH_ADDED, argv).stdout)
        assert [tuple(run) for run in out["runs"]] == [GOLDEN[argv]]
        assert "poisson_mac.gridsearch" in out["added"][1]
        assert [sorted({"dataclasses", "poisson_mac.miso"} & set(step)) for step in out["added"]] == [[], []]

    @pytest.mark.parametrize("argv, code", [("solve --help", 0), ("solve --a1 10 --no-such-flag 1", 2)])
    def test_help_or_a_usage_error_builds_the_parser_on_first_need(self, argv, code):
        solve = "solve --a1 10 --a2 12 --lambda0 0.001 --tau 0.02"
        out = json.loads(fresh_python(FRESH_ADDED, solve, argv, argv, solve).stdout)
        assert [run[0] for run in out["runs"]] == [0, code, code, 0]
        assert out["runs"][3][1] == GOLDEN[solve][1]
        assert (out["runs"][1][1].startswith("usage: poisson-mac solve")) == (code == 0)
        assert ["argparse" in step for step in out["added"]] == [False, False, True, False, False]
        assert out["misses"] == [0, 1, 1, 1]
