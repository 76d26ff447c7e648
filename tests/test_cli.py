"""Command-line front end: schemas, determinism, config handling, exit codes."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from poisson_mac import cli
from poisson_mac.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    return code, text


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

        for name in (
            "solve", "solve_many", "find_intersections", "sweep_strategy_region",
            "cont_capacity", "convergence_report", "solve_miso", "solve_symmetric",
        ):
            monkeypatch.setattr(cli, name, refuse)
        code, text = run(tmp_path, *argv.split(), "--strict")
        assert code == 3
        assert text == ""

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
            (("solve-miso", "--peaks1", "5,inf", "--peaks2", "6", "--tau", "0.02"), "peaks_user1"),
            (("sweep-peak", "--a1", "10", "--a2", "5:15:5", "--tau", "0.02,inf"), "tau"),
            (("sweep-peak", "--a1", "inf", "--a2", "5:15:5", "--tau", "0"), "a1"),
            (("sweep-region", "--a1", "1:21:10", "--a2", "1:21:10", "--tau", "inf"), "tau"),
            (("sweep-region", "--a1", "1:inf", "--a2", "1:3", "--cells", "3"), "a1"),
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
