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
(including defaulted ones), then a header row.  Each row is a tuple written
by one % template per header (_row_template), numbers with 12 significant
digits, so identical inputs give byte-identical files.  Inputs can come from
a flat key=value config file; command-line flags win.

Each command is declared once, in COMMANDS.  main reads a well-formed command
line, `command (--flag value | --strict)...` with every flag one of the
command's own, spelled in full, and no value that begins with '-', straight
from that table (_read_table), into a SimpleNamespace of the attributes
argparse would set.  Any other command line, --help, a usage error, an
abbreviated flag, --flag=value or a value such as -1e-3, goes to the argparse
parser, which is imported and built from the same table on first need, kept
for the process, and fills a SimpleNamespace too.  Either way main then
applies --strict and writes the CSV.  A sweep grid of more than MAX_GRID
values, in one range or in all its rows, is refused before it is built.

Importing this module runs only the package, _numpy, channel, siso and this
module, and imports neither numpy (see _numpy.py) nor argparse (see above).
The other library modules load when a command first needs them: symmetric
for symmetric, miso for solve-miso, continuous for converge and sweep-peak's
tau = 0 rows, and gridsearch (with numpy) for solve's out-of-regime check.
No command loads dataclasses: every record is a NamedTuple.  In regime,
solve, intersections, symmetric, solve-miso and converge run on the math
module alone, so a process that runs only those never loads numpy; the
sweeps and the out-of-regime checks load numpy on first use.

Exit status: 0 on success, 2 on a validation error (the library's own checks
name the field), 3 when --strict is set and an instance is out of regime
(checked before anything is solved), 4 when the arithmetic breaks down (hit
probabilities that round to 1 far out of regime, rates and dead times so small
that the arithmetic underflows, a hit-level difference that rounds to 0, a
continuous reference with no finite candidate rate, or every candidate rate,
or an equal-peak balanced rate, below zero: no capacity printed is negative),
141 (128 + SIGPIPE) when the reader of the output goes away first, as in
`... | head`; that case prints nothing on stderr.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from contextlib import nullcontext, suppress
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple, Sequence

from .channel import ChannelParams, _require_positive
from .siso import Strategy, find_intersections, regime_fraction_rule, solve, solve_many, sweep_strategy_region

if TYPE_CHECKING:
    import argparse  # else argparse loads with the parser (_build_parser)

    from .siso import SolveReport

__all__ = ["main"]

DEFAULT_LAMBDA0 = 0.001
EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_OUT_OF_REGIME = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 128 + 13  # killed by SIGPIPE, in shell terms
# Most values a sweep may have, in one range and in all its rows together: a
# grid's lists are built in memory before anything is solved.
MAX_GRID = 10**6


def _fmt(x: object) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


@functools.cache
def _row_template(header: tuple[str, ...]) -> str:
    """A CSV row's % template: %s for the text columns (bools as true/false), %.12g for the floats."""
    text = ("strategy", "schur_mode", "regime_ok", "valid")
    return ",".join("%s" if name in text else "%.12g" for name in header) + "\n"


def _number(text: object, name: str, kind: Callable[[Any], Any] = float) -> Any:
    """kind(text), or a ValueError that names the field."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a number'}, got '{text}'") from None


def _parse_range(args: SimpleNamespace, name: str) -> list[float]:
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
        if _merged(args, "cells") is None:
            raise ValueError("range lo:hi needs --cells to fix the grid size")
        cells = _flag(args, "cells", kind=int)
        if cells < 2:
            raise ValueError(f"cells must be at least 2, got {cells}")
        _check_size(name, cells)
        return [lo + (hi - lo) * i / (cells - 1) for i in range(cells)]
    lo, hi, step = values
    if step <= 0:
        raise ValueError(f"range step must be positive, got {step}")
    last = (hi - lo) / step + 1e-9  # +inf when the span or the step overflows
    if last < 0:
        raise ValueError(f"{name} has no values, got '{text}'")
    count = math.floor(last) + 1 if math.isfinite(last) else last
    _check_size(name, count)
    return [lo + i * step for i in range(count)]


def _check_size(name: str, count: float) -> None:
    """Refuse a grid of more than MAX_GRID values before it is built."""
    if count > MAX_GRID:
        raise ValueError(f"{name} has {count:.12g} values, more than the limit of {MAX_GRID}")


def _parse_floats(args: SimpleNamespace, name: str) -> list[float]:
    """A required comma-separated list of at least one number."""
    text = _require(args, name)
    if not (values := [_number(p, name) for p in text.split(",") if p != ""]):
        raise ValueError(f"{name} has no values, got '{text}'")
    return values


def _parse_peaks(args: SimpleNamespace, name: str, require_peaks: Callable[..., None]) -> tuple[float, ...]:
    """A list of peaks that miso's peak check passes, its messages naming the flag and quoting its text."""
    peaks = tuple(_parse_floats(args, name))
    require_peaks(name, peaks, f"'{_require(args, name)}'")
    return peaks


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


def _merged(args: SimpleNamespace, key: str, default: object = None) -> object:
    """Flag value if given, else config-file value, else default."""
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if args.config_values and key in args.config_values:
        return args.config_values[key]
    return default


def _require(args: SimpleNamespace, key: str) -> str:
    value = _merged(args, key)
    if value is None:
        raise ValueError(f"missing required parameter '{key}'")
    return str(value)


def _flag(args: SimpleNamespace, key: str, default: object = None, kind: Callable[[Any], Any] = float) -> Any:
    """A numeric parameter, required when it has no default."""
    return _number(_require(args, key) if default is None else _merged(args, key, default), key, kind)


def _lambda0(args: SimpleNamespace) -> float:
    return _flag(args, "lambda0", DEFAULT_LAMBDA0)


def _channel(args: SimpleNamespace) -> ChannelParams:
    return ChannelParams(_flag(args, "a1"), _flag(args, "a2"), _lambda0(args), _flag(args, "tau"))


# A handler is a generator of two steps.  It reads and validates its inputs,
# then yields a regime predicate, which main calls before the next step only
# under --strict; then it solves and yields (meta, header, rows) for main to
# write, where each row is a tuple and rows may be a generator.  It
# reaches channel and siso through this module's globals and the other
# library modules through an import inside the handler, so that a command
# loads only the modules it calls.  Either way it reads each name at call
# time, so patching it here (channel, siso) or at its home module (the
# others) reaches the handler.  Those imports are absolute: once the module
# is loaded, `import poisson_mac.miso as miso` costs ~0.4 us a call and a
# relative `from .miso import ...` ~1.4 us, 1-3 % of an in-regime command.
Steps = Iterator[Any]

SOLVE_HEADER = ("a1", "a2", "lambda0", "tau", "capacity_nats", "mu1", "mu2", "strategy", "regime_ok")
SYMMETRIC_HEADER = ("a", "lambda0", "tau", "flip_level", "peak_threshold", "axis_half_sum")
SYMMETRIC_HEADER += ("diagonal_half_sum", "fixed_point", "capacity", "schur_mode")


def _solve_row(params: ChannelParams, report: SolveReport) -> tuple:
    """The row of solve and solve-miso: the channel solved and its report."""
    return (*params, report.capacity, *report.optimum, report.strategy.value, "true" if report.regime_ok else "false")


def _cmd_solve(args: SimpleNamespace) -> Steps:
    params = _channel(args)
    yield lambda: params.in_regime
    report = solve(params)
    meta = {**params._asdict(), "intersections": len(report.search.points)}
    yield meta, SOLVE_HEADER, [_solve_row(params, report)]


def _cmd_solve_miso(args: SimpleNamespace) -> Steps:
    import poisson_mac.miso as miso

    # MisoConfig would name peaks_user1 and peaks_user2, not the flags.
    config = miso.MisoConfig(
        peaks_user1=_parse_peaks(args, "peaks1", miso._require_peaks),
        peaks_user2=_parse_peaks(args, "peaks2", miso._require_peaks),
        lambda0=_lambda0(args),
        tau=_flag(args, "tau"),
    )
    yield lambda: config.in_regime
    report = miso.solve_miso(config)
    meta = {
        "peaks1": ":".join(_fmt(p) for p in config.peaks_user1),
        "peaks2": ":".join(_fmt(p) for p in config.peaks_user2),
        "lambda0": config.lambda0,
        "tau": config.tau,
    }
    yield meta, SOLVE_HEADER, [_solve_row(config.as_siso(), report)]


def _cmd_intersections(args: SimpleNamespace) -> Steps:
    params = _channel(args)
    yield lambda: params.in_regime
    inter = find_intersections(params)
    rows = [(pt.mu1, pt.mu2, "true") for pt in inter.points]
    rows += [(pt.mu1, pt.mu2, "false") for pt in inter.rejected]
    yield {**params._asdict(), "reliable": inter.reliable}, ("mu1", "mu2", "valid"), rows


def _cmd_sweep_peak(args: SimpleNamespace) -> Steps:
    a1 = _flag(args, "a1")
    lambda0 = _lambda0(args)
    a2_values = _parse_range(args, "a2")
    taus = _parse_floats(args, "tau")
    _check_size("a2 x tau", len(a2_values) * len(taus))
    # The finite-tau (a2, tau) lanes in row order; tau = 0 rows are continuous.
    lanes = [(a2, tau) for tau in taus if tau != 0.0 for a2 in a2_values]
    yield lambda: all(ChannelParams(a1, a2, lambda0, tau).in_regime for a2, tau in lanes)
    solved_rows = iter([])
    if lanes:  # with no finite-tau lane, numpy is never loaded
        batch = solve_many(a1, [a2 for a2, _ in lanes], lambda0, [tau for _, tau in lanes])
        solved = zip(lanes, batch.mu1.tolist(), batch.mu2.tolist(), batch.capacity.tolist())
        solved_rows = iter([(a2, tau, mu1, mu2, capacity) for (a2, tau), mu1, mu2, capacity in solved])
    # The continuous rows, solved once each in row order and reused for a repeated 0.
    cont_rows: list[tuple[float, ...]] = []
    if 0.0 in taus:
        import poisson_mac.continuous as continuous

        for a2 in a2_values:
            rate, duty = continuous.cont_capacity(continuous.ContinuousParams(a1, a2, lambda0))
            cont_rows.append((a2, 0.0, duty.mu1, duty.mu2, rate))
    rows: list[tuple[float, ...]] = []
    for tau in taus:
        rows += cont_rows if tau == 0.0 else islice(solved_rows, len(a2_values))
    meta = {"a1": a1, "lambda0": lambda0, "a2": _require(args, "a2"), "tau": _require(args, "tau")}
    yield meta, ("a2", "tau", "mu1", "mu2", "capacity"), rows


def _cmd_sweep_region(args: SimpleNamespace) -> Steps:
    lambda0 = _lambda0(args)
    a1_values = _parse_range(args, "a1")
    a2_values = _parse_range(args, "a2")
    _check_size("a1 x a2", len(a1_values) * len(a2_values))
    tau_flag = _merged(args, "tau")
    if tau_flag is None:  # the scale rule is in use, so its flag is checked
        text = str(_merged(args, "tau-scale", 0.8))
        tau_scale = _number(text, "tau-scale")
        _require_positive("tau-scale", (tau_scale,), f"'{text}'")
        rule, tau_meta = regime_fraction_rule(tau_scale, lambda0), f"scale:{_fmt(tau_scale)}"
    else:
        rule, tau_meta = _number(tau_flag, "tau"), tau_flag
    tau_of = rule if callable(rule) else lambda a1, a2: rule
    yield lambda: all(
        ChannelParams(a1, a2, lambda0, tau_of(a1, a2)).in_regime for a1 in a1_values for a2 in a2_values
    )
    labels = sweep_strategy_region(a1_values, a2_values, lambda0, rule)
    meta = {"a1": _require(args, "a1"), "a2": _require(args, "a2"), "lambda0": lambda0, "tau": tau_meta}
    text = {id(s): s.value for s in Strategy}  # by identity: an Enum member hashes in Python code
    rows = ((a1, a2, text[id(label)]) for a1, line in zip(a1_values, labels) for a2, label in zip(a2_values, line))
    yield meta, ("a1", "a2", "strategy"), rows


def _cmd_symmetric(args: SimpleNamespace) -> Steps:
    import poisson_mac.symmetric as symmetric

    a, lambda0, tau = _flag(args, "a"), _lambda0(args), _flag(args, "tau")
    params = symmetric._channel(a, lambda0, tau)  # ChannelParams would name a1 and a2
    yield lambda: params.in_regime
    report = symmetric.solve_symmetric(a, lambda0, tau)
    meta = {"a": a, "lambda0": lambda0, "tau": tau}
    boundary = (report.boundary.axis, report.boundary.diagonal) if report.boundary else (math.nan, math.nan)
    row = (*meta.values(), report.flip_level, report.threshold.value, *boundary)
    yield meta, SYMMETRIC_HEADER, [(*row, report.fixed_point, report.capacity, report.schur_mode.value)]


def _cmd_converge(args: SimpleNamespace) -> Steps:
    import poisson_mac.continuous as continuous

    a1 = _flag(args, "a1")
    a2 = _flag(args, "a2")
    lambda0 = _lambda0(args)
    taus = _parse_floats(args, "taus")
    _require_positive("taus", taus, f"'{_require(args, 'taus')}'")
    yield lambda: all(ChannelParams(a1, a2, lambda0, tau).in_regime for tau in taus)
    report = continuous.convergence_report(a1, a2, lambda0, taus)
    meta = {"a1": a1, "a2": a2, "lambda0": lambda0, "taus": _require(args, "taus")}
    rows = [(r.tau, r.capacity, r.cont_capacity, r.gap, r.duty.mu1, r.duty.mu2) for r in report]
    yield meta, ("tau", "capacity", "cont_capacity", "gap", "mu1", "mu2"), rows


class Command(NamedTuple):
    """One subcommand: its handler, its help line and its own flags (flag -> help)."""

    handler: Callable[[SimpleNamespace], Steps]
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


# Each command's flags, as spelled on the command line, and their dests.
_DESTS = {
    name: {flag: flag[2:].replace("-", "_") for flag in COMMON_FLAGS | command.flags}
    for name, command in COMMANDS.items()
}


def _read_table(argv: Sequence[str]) -> SimpleNamespace | None:
    """A SimpleNamespace of the attributes argparse would set for argv when it
    is well formed: `command (--flag value | --strict)...`, every flag one of
    the command's own in full and no value beginning with '-' (argparse takes
    -3 as a value but rejects -1e-3).  None for any other argv, which is
    argparse's to read, help and usage errors included; so a well-formed
    command line never imports argparse."""
    if not argv or (dests := _DESTS.get(argv[0])) is None:
        return None
    values: dict[str, str | None] = dict.fromkeys(dests.values())
    strict = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--strict":
            strict = True
        elif (dest := dests.get(token)) is None or (value := next(tokens, "-")).startswith("-"):
            return None  # a flag at the end reads as a '-' value, and so goes to argparse too
        else:
            values[dest] = value  # the last occurrence wins, as in argparse
    return SimpleNamespace(command=argv[0], strict=strict, **values)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, for the command lines _read_table leaves
    to it: help, usage errors, abbreviations, --flag=value and values that
    begin with '-'.  Built on the first such call, not at import, and kept
    for the process: building it, and importing argparse, each cost more than
    an in-regime solve."""
    import argparse

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
    argv = sys.argv[1:] if argv is None else argv
    if (args := _read_table(argv)) is None:
        args = _build_parser().parse_args(argv, SimpleNamespace())
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
            out.writelines(map(_row_template(header).__mod__, rows))
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
