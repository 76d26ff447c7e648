"""
Command-line front end: solve channel instances and emit CSV.

Commands
--------
solve          one instance: capacity, optimal duties, strategy
solve-miso     multi-antenna instance via the summed-peak reduction
intersections  stationarity-curve intersections of one instance
sweep-peak     capacity and duties against a2 for several dead times
               (tau = 0 selects the continuous reference)
sweep-region   strategy label over an (a1, a2) grid
symmetric      equal-peak report: flip level, threshold, fixed point
converge       capacity gap to the continuous reference over dead times

Every CSV starts with a '#' metadata line echoing all input parameters
(including defaulted ones), then a header row.  Numbers are written with 12
significant digits so identical inputs give byte-identical files.  Inputs
can come from a flat key=value config file; command-line flags win.

Each command is declared once, in COMMANDS.  main builds the parser from that
table, applies --strict and writes the CSV.

Exit status: 0 on success, 2 on a validation error (the message names the
offending field), 3 when --strict is set and an instance is out of regime
(checked before anything is solved), 4 when the arithmetic breaks down (hit
probabilities that round to 1 far out of regime), 141 (128 + SIGPIPE) when
the reader of the output goes away first, as in `... | head`; that case
prints nothing on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext, suppress
from dataclasses import asdict
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .channel import ChannelParams
from .continuous import ContinuousParams, cont_capacity, convergence_report
from .miso import MisoConfig, solve_miso
from .siso import find_intersections, regime_fraction_rule, solve, solve_many, sweep_strategy_region
from .symmetric import solve_symmetric

__all__ = ["main"]

DEFAULT_LAMBDA0 = 0.001
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OUT_OF_REGIME = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, in shell terms


def _fmt(x: object) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _number(text: object, name: str, kind: Callable[[Any], Any] = float) -> Any:
    """kind(text), or a ValueError that names the field."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got '{text}'") from None


def _parse_range(args: argparse.Namespace, name: str) -> list[float]:
    """A bare number, lo:hi (needs --cells), or lo:hi:step, all finite."""
    text = _require(args, name)
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"cannot parse {name} range '{text}'")
    values = [_number(p, name) for p in parts]
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{name} must be finite, got '{text}'")
    if len(values) == 1:
        return values
    if len(values) == 2:
        lo, hi = values
        cells = _flag(args, "cells", 0, int)
        if cells < 2:
            raise ValueError("range lo:hi needs --cells to fix the grid size")
        return [lo + (hi - lo) * i / (cells - 1) for i in range(cells)]
    lo, hi, step = values
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    n = int(math.floor((hi - lo) / step + 1e-9))
    return [lo + i * step for i in range(n + 1)]


def _parse_floats(args: argparse.Namespace, name: str) -> list[float]:
    """A required comma-separated list of numbers."""
    return [_number(p, name) for p in _require(args, name).split(",") if p != ""]


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got '{line}'")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _merged(args: argparse.Namespace, key: str, default: object = None) -> object:
    """Flag value if given, else config-file value, else default."""
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if args.config_values and key in args.config_values:
        return args.config_values[key]
    return default


def _require(args: argparse.Namespace, key: str) -> str:
    value = _merged(args, key)
    if value is None:
        raise ValueError(f"missing required parameter '{key}'")
    return str(value)


def _flag(args: argparse.Namespace, key: str, default: object = None, kind: Callable[[Any], Any] = float) -> Any:
    """A numeric parameter, required when it has no default."""
    return _number(_require(args, key) if default is None else _merged(args, key, default), key, kind)


def _lambda0(args: argparse.Namespace) -> float:
    return _flag(args, "lambda0", DEFAULT_LAMBDA0)


def _channel(args: argparse.Namespace) -> ChannelParams:
    return ChannelParams(_flag(args, "a1"), _flag(args, "a2"), _lambda0(args), _flag(args, "tau"))


# A handler is a generator of two steps.  It reads and validates its inputs,
# then yields a regime predicate, which main calls before the next step only
# under --strict; then it solves and yields (meta, header, rows) for main to
# write.  It reaches the library through this module's globals at call time,
# so patching them reaches the handlers.
Steps = Iterator[Any]

SOLVE_HEADER = ("a1", "a2", "lambda0", "tau", "capacity_nats", "mu1", "mu2", "strategy", "regime_ok")
SYMMETRIC_HEADER = ("a", "lambda0", "tau", "flip_level", "peak_threshold", "axis_half_sum")
SYMMETRIC_HEADER += ("diagonal_half_sum", "fixed_point", "capacity", "schur_mode")


def _cmd_solve(args: argparse.Namespace) -> Steps:
    params = _channel(args)
    yield lambda: params.in_regime
    report = solve(params)
    inputs = asdict(params)
    meta = {**inputs, "intersections": len(report.search.points)}
    row = [*inputs.values(), report.capacity, report.optimum.mu1, report.optimum.mu2]
    yield meta, SOLVE_HEADER, [row + [report.strategy.value, report.regime_ok]]


def _cmd_solve_miso(args: argparse.Namespace) -> Steps:
    config = MisoConfig(
        peaks_user1=tuple(_parse_floats(args, "peaks1")),
        peaks_user2=tuple(_parse_floats(args, "peaks2")),
        lambda0=_lambda0(args),
        tau=_flag(args, "tau"),
    )
    yield lambda: config.in_regime
    report = solve_miso(config)
    meta = {
        "peaks1": ":".join(_fmt(p) for p in config.peaks_user1),
        "peaks2": ":".join(_fmt(p) for p in config.peaks_user2),
        "lambda0": config.lambda0,
        "tau": config.tau,
    }
    row = [*asdict(config.as_siso()).values(), report.capacity, report.duty_user1, report.duty_user2]
    yield meta, SOLVE_HEADER, [row + [report.siso.strategy.value, report.regime_ok]]


def _cmd_intersections(args: argparse.Namespace) -> Steps:
    params = _channel(args)
    yield lambda: params.in_regime
    inter = find_intersections(params)
    rows = [[pt.mu1, pt.mu2, True] for pt in inter.points]
    rows += [[pt.mu1, pt.mu2, False] for pt in inter.rejected]
    yield {**asdict(params), "reliable": inter.reliable}, ("mu1", "mu2", "valid"), rows


def _cmd_sweep_peak(args: argparse.Namespace) -> Steps:
    a1 = _flag(args, "a1")
    lambda0 = _lambda0(args)
    a2_values = _parse_range(args, "a2")
    taus = _parse_floats(args, "tau")
    # The finite-tau (a2, tau) lanes in row order; tau = 0 rows are continuous.
    lanes = [(a2, tau) for tau in taus if tau != 0.0 for a2 in a2_values]
    yield lambda: all(ChannelParams(a1, a2, lambda0, tau).in_regime for a2, tau in lanes)
    batch = solve_many(a1, [a2 for a2, _ in lanes], lambda0, [tau for _, tau in lanes])
    solved = zip(batch.mu1.tolist(), batch.mu2.tolist(), batch.capacity.tolist())
    rows: list[list[object]] = []
    for tau in taus:
        for a2 in a2_values:
            if tau == 0.0:
                rate, duty = cont_capacity(ContinuousParams(a1, a2, lambda0))
                rows.append([a2, 0.0, duty.mu1, duty.mu2, rate])
            else:
                mu1, mu2, capacity = next(solved)
                rows.append([a2, tau, mu1, mu2, capacity])
    meta = {"a1": a1, "lambda0": lambda0, "a2": _require(args, "a2"), "tau": _require(args, "tau")}
    yield meta, ("a2", "tau", "mu1", "mu2", "capacity"), rows


def _cmd_sweep_region(args: argparse.Namespace) -> Steps:
    lambda0 = _lambda0(args)
    a1_values = _parse_range(args, "a1")
    a2_values = _parse_range(args, "a2")
    tau_flag = _merged(args, "tau")
    tau_scale = _flag(args, "tau-scale", 0.8)
    rule = regime_fraction_rule(tau_scale, lambda0) if tau_flag is None else _number(tau_flag, "tau")
    tau_of = rule if callable(rule) else lambda a1, a2: rule
    yield lambda: all(
        ChannelParams(a1, a2, lambda0, tau_of(a1, a2)).in_regime for a1 in a1_values for a2 in a2_values
    )
    labels = sweep_strategy_region(a1_values, a2_values, lambda0, rule)
    tau_meta = tau_flag if tau_flag is not None else f"scale:{_fmt(tau_scale)}"
    meta = {"a1": _require(args, "a1"), "a2": _require(args, "a2"), "lambda0": lambda0, "tau": tau_meta}
    rows = [[a1, a2, label.value] for a1, line in zip(a1_values, labels) for a2, label in zip(a2_values, line)]
    yield meta, ("a1", "a2", "strategy"), rows


def _cmd_symmetric(args: argparse.Namespace) -> Steps:
    a = _flag(args, "a")
    lambda0 = _lambda0(args)
    tau = _flag(args, "tau")
    params = ChannelParams(a, a, lambda0, tau)
    yield lambda: params.in_regime
    report = solve_symmetric(a, lambda0, tau)
    meta = {"a": a, "lambda0": lambda0, "tau": tau}
    boundary = (report.boundary.axis, report.boundary.diagonal) if report.boundary else (math.nan, math.nan)
    row = [*meta.values(), report.flip_level, report.threshold.value, *boundary]
    row += [report.fixed_point, report.capacity, report.schur_mode.value]
    yield meta, SYMMETRIC_HEADER, [row]


def _cmd_converge(args: argparse.Namespace) -> Steps:
    a1 = _flag(args, "a1")
    a2 = _flag(args, "a2")
    lambda0 = _lambda0(args)
    taus = _parse_floats(args, "taus")
    if any(t <= 0 for t in taus):
        raise ValueError("taus must all be positive for converge")
    yield lambda: all(ChannelParams(a1, a2, lambda0, tau).in_regime for tau in taus)
    report = convergence_report(a1, a2, lambda0, taus)
    meta = {"a1": a1, "a2": a2, "lambda0": lambda0, "taus": _require(args, "taus")}
    rows = [[r.tau, r.capacity, r.cont_capacity, r.gap, r.duty.mu1, r.duty.mu2] for r in report]
    yield meta, ("tau", "capacity", "cont_capacity", "gap", "mu1", "mu2"), rows


class Command(NamedTuple):
    """One subcommand: its handler, its help line and its own flags (flag -> help)."""

    handler: Callable[[argparse.Namespace], Steps]
    help: str
    flags: dict[str, str]


COMMON_FLAGS = {
    "--config": "flat key=value file; flags override",
    "--out": "output CSV path, '-' for stdout",
    "--lambda0": "background rate (default 0.001)",
}
PEAKS = {"--a1": "peak rate of user 1", "--a2": "peak rate of user 2"}
TAU = {"--tau": "dead time"}
TAUS = {"--taus": "comma-separated dead times"}
CELLS = {"--cells": "grid size for lo:hi ranges"}
MISO_PEAKS = {
    "--peaks1": "comma-separated peaks of user 1 antennas",
    "--peaks2": "comma-separated peaks of user 2 antennas",
}
SWEEP_PEAK = {
    "--a1": "fixed peak rate of user 1",
    "--a2": "a2 range lo:hi:step (or lo:hi with --cells)",
    "--tau": "comma-separated dead times; 0 = continuous reference",
}
SWEEP_REGION = {
    "--a1": "a1 range lo:hi:step (or lo:hi with --cells)",
    "--a2": "a2 range lo:hi:step (or lo:hi with --cells)",
    "--tau": "fixed dead time (overrides --tau-scale)",
    "--tau-scale": "tau = scale * ln2/(a1+a2+lambda0) per cell (default 0.8)",
}

COMMANDS = {
    "solve": Command(_cmd_solve, "solve one two-user instance", PEAKS | TAU),
    "solve-miso": Command(_cmd_solve_miso, "solve a multi-antenna instance", MISO_PEAKS | TAU),
    "intersections": Command(_cmd_intersections, "stationarity-curve intersections", PEAKS | TAU),
    "sweep-peak": Command(_cmd_sweep_peak, "sweep a2 for several dead times", SWEEP_PEAK | CELLS),
    "sweep-region": Command(_cmd_sweep_region, "strategy label over an (a1, a2) grid", SWEEP_REGION | CELLS),
    "symmetric": Command(_cmd_symmetric, "equal-peak report", {"--a": "shared peak rate"} | TAU),
    "converge": Command(_cmd_converge, "gap to the continuous reference", PEAKS | TAUS),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-mac",
        description="Sum-rate capacity of the two-user dead-time-limited photon-counting channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--strict", action="store_true", help="exit 3 before solving when out of regime")
        for flag, text in (COMMON_FLAGS | command.flags).items():
            p.add_argument(flag, help=text)
    return parser


def _drop_stdout() -> None:
    """Point stdout at the null device, so that the interpreter's last flush
    of the output still buffered cannot fail again.  A stdout without a
    descriptor is left alone: the interpreter does not flush it at exit."""
    with suppress(AttributeError, OSError, ValueError):
        fd = sys.stdout.fileno()
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, fd)
        os.close(null)


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.config_values = _read_config(args.config) if args.config else {}
        steps = COMMANDS[args.command].handler(args)
        in_regime = next(steps)
        if args.strict and not in_regime():
            print("out of regime: tau > ln2/(a1+a2+lambda0) for at least one instance", file=sys.stderr)
            return EXIT_OUT_OF_REGIME
        meta, header, rows = next(steps)
        path = str(_merged(args, "out", "-"))
        with nullcontext(sys.stdout) if path == "-" else open(path, "w", encoding="utf-8", newline="") as out:
            meta_line = " ".join(f"{k}={_fmt(v)}" for k, v in {"command": args.command, **meta}.items())
            out.write(f"# {meta_line}\n")
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(_fmt(v) for v in row) + "\n")
            out.flush()  # a closed pipe shows up here, not at interpreter exit
        return EXIT_OK
    except BrokenPipeError:
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
