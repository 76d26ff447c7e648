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

Exit status: 0 on success, 2 on a validation error (the message names the
offending field), 3 when --strict is set and an instance is out of regime,
4 when the arithmetic breaks down (hit probabilities that round to 1 far out
of regime).
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import nullcontext
from typing import Callable, ContextManager, Iterable, Sequence, TextIO

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


def _fmt(x: object) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    if isinstance(x, bool):
        return "true" if x else "false"
    return str(x)


def _write_csv(
    out: TextIO,
    meta: dict[str, object],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
) -> None:
    meta_line = " ".join(f"{k}={_fmt(v)}" for k, v in meta.items())
    out.write(f"# {meta_line}\n")
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _parse_range(text: str, cells: int | None = None) -> list[float]:
    """A bare number, lo:hi (needs cells), or lo:hi:step."""
    parts = text.split(":")
    if len(parts) == 1:
        return [float(parts[0])]
    if len(parts) == 2:
        lo, hi = float(parts[0]), float(parts[1])
        if cells is None or cells < 2:
            raise ValueError("range lo:hi needs --cells to fix the grid size")
        return [lo + (hi - lo) * i / (cells - 1) for i in range(cells)]
    if len(parts) == 3:
        lo, hi, step = (float(p) for p in parts)
        if step <= 0:
            raise ValueError(f"range step must be positive, got {step}")
        n = int(math.floor((hi - lo) / step + 1e-9))
        return [lo + i * step for i in range(n + 1)]
    raise ValueError(f"cannot parse range '{text}'")


def _parse_floats(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p != ""]


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


def _open_out(args: argparse.Namespace) -> ContextManager[TextIO]:
    path = _merged(args, "out", "-")
    if path == "-":
        return nullcontext(sys.stdout)
    return open(str(path), "w", encoding="utf-8", newline="")


def _cells(args: argparse.Namespace) -> int | None:
    value = _merged(args, "cells")
    return int(value) if value is not None else None


def _cmd_solve(args: argparse.Namespace) -> int:
    params = ChannelParams(
        a1=float(_require(args, "a1")),
        a2=float(_require(args, "a2")),
        lambda0=float(_merged(args, "lambda0", DEFAULT_LAMBDA0)),
        tau=float(_require(args, "tau")),
    )
    if args.strict and not params.in_regime:
        print("out of regime: tau > ln2/(a1+a2+lambda0)", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    report = solve(params)
    meta = {
        "command": "solve",
        "a1": params.a1,
        "a2": params.a2,
        "lambda0": params.lambda0,
        "tau": params.tau,
        "intersections": len(report.search.points),
    }
    header = ["a1", "a2", "lambda0", "tau", "capacity_nats", "mu1", "mu2", "strategy", "regime_ok"]
    row = [
        params.a1,
        params.a2,
        params.lambda0,
        params.tau,
        report.capacity,
        report.optimum.mu1,
        report.optimum.mu2,
        report.strategy.value,
        report.regime_ok,
    ]
    with _open_out(args) as out:
        _write_csv(out, meta, header, [row])
    return EXIT_OK


def _cmd_solve_miso(args: argparse.Namespace) -> int:
    config = MisoConfig(
        peaks_user1=tuple(_parse_floats(_require(args, "peaks1"))),
        peaks_user2=tuple(_parse_floats(_require(args, "peaks2"))),
        lambda0=float(_merged(args, "lambda0", DEFAULT_LAMBDA0)),
        tau=float(_require(args, "tau")),
    )
    if args.strict and not config.in_regime:
        print("out of regime: tau > ln2/(total peak + lambda0)", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    report = solve_miso(config)
    siso = config.as_siso()
    meta = {
        "command": "solve-miso",
        "peaks1": ":".join(_fmt(p) for p in config.peaks_user1),
        "peaks2": ":".join(_fmt(p) for p in config.peaks_user2),
        "lambda0": config.lambda0,
        "tau": config.tau,
    }
    header = ["a1", "a2", "lambda0", "tau", "capacity_nats", "mu1", "mu2", "strategy", "regime_ok"]
    row = [
        siso.a1,
        siso.a2,
        config.lambda0,
        config.tau,
        report.capacity,
        report.duty_user1,
        report.duty_user2,
        report.siso.strategy.value,
        report.regime_ok,
    ]
    with _open_out(args) as out:
        _write_csv(out, meta, header, [row])
    return EXIT_OK


def _cmd_intersections(args: argparse.Namespace) -> int:
    params = ChannelParams(
        a1=float(_require(args, "a1")),
        a2=float(_require(args, "a2")),
        lambda0=float(_merged(args, "lambda0", DEFAULT_LAMBDA0)),
        tau=float(_require(args, "tau")),
    )
    if args.strict and not params.in_regime:
        print("out of regime: tau > ln2/(a1+a2+lambda0)", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    inter = find_intersections(params)
    meta = {
        "command": "intersections",
        "a1": params.a1,
        "a2": params.a2,
        "lambda0": params.lambda0,
        "tau": params.tau,
        "reliable": inter.reliable,
    }
    rows = [[pt.mu1, pt.mu2, True] for pt in inter.points]
    rows += [[pt.mu1, pt.mu2, False] for pt in inter.rejected]
    with _open_out(args) as out:
        _write_csv(out, meta, ["mu1", "mu2", "valid"], rows)
    return EXIT_OK


def _cmd_sweep_peak(args: argparse.Namespace) -> int:
    a1 = float(_require(args, "a1"))
    lambda0 = float(_merged(args, "lambda0", DEFAULT_LAMBDA0))
    a2_values = _parse_range(_require(args, "a2"), _cells(args))
    taus = _parse_floats(_require(args, "tau"))
    grid_step = float(_merged(args, "grid-step", 1e-3))
    grid_refine = int(_merged(args, "grid-refine", 3))
    # Every finite-tau row in one batch, in row order.
    finite_taus = [tau for tau in taus if tau != 0.0]
    batch = solve_many(
        a1,
        [a2 for _ in finite_taus for a2 in a2_values],
        lambda0,
        [tau for tau in finite_taus for _ in a2_values],
    )
    solved = zip(batch.mu1.tolist(), batch.mu2.tolist(), batch.capacity.tolist())
    rows: list[list[object]] = []
    for tau in taus:
        if tau == 0.0:
            for a2 in a2_values:
                rate, duty = cont_capacity(
                    ContinuousParams(a1, a2, lambda0),
                    step=grid_step,
                    refine_rounds=grid_refine,
                )
                rows.append([a2, 0.0, duty.mu1, duty.mu2, rate])
            continue
        for a2 in a2_values:
            mu1, mu2, capacity = next(solved)
            rows.append([a2, tau, mu1, mu2, capacity])
    if args.strict and not batch.regime_ok.all():
        print("out of regime for at least one cell", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    meta = {
        "command": "sweep-peak",
        "a1": a1,
        "lambda0": lambda0,
        "a2": _require(args, "a2"),
        "tau": _require(args, "tau"),
    }
    with _open_out(args) as out:
        _write_csv(out, meta, ["a2", "tau", "mu1", "mu2", "capacity"], rows)
    return EXIT_OK


def _cmd_sweep_region(args: argparse.Namespace) -> int:
    lambda0 = float(_merged(args, "lambda0", DEFAULT_LAMBDA0))
    a1_values = _parse_range(_require(args, "a1"), _cells(args))
    a2_values = _parse_range(_require(args, "a2"), _cells(args))
    tau_flag = _merged(args, "tau")
    tau_scale = float(_merged(args, "tau-scale", 0.8))
    rule: float | Callable[[float, float], float]
    if tau_flag is not None:
        rule = float(tau_flag)
    else:
        rule = regime_fraction_rule(tau_scale, lambda0)
    labels = sweep_strategy_region(a1_values, a2_values, lambda0, rule)
    meta = {
        "command": "sweep-region",
        "a1": _require(args, "a1"),
        "a2": _require(args, "a2"),
        "lambda0": lambda0,
        "tau": tau_flag if tau_flag is not None else f"scale:{_fmt(tau_scale)}",
    }
    rows = [
        [a1, a2, labels[i][j].value]
        for i, a1 in enumerate(a1_values)
        for j, a2 in enumerate(a2_values)
    ]
    with _open_out(args) as out:
        _write_csv(out, meta, ["a1", "a2", "strategy"], rows)
    return EXIT_OK


def _cmd_symmetric(args: argparse.Namespace) -> int:
    a = float(_require(args, "a"))
    lambda0 = float(_merged(args, "lambda0", DEFAULT_LAMBDA0))
    tau = float(_require(args, "tau"))
    params = ChannelParams(a, a, lambda0, tau)
    if args.strict and tau > math.log(2.0) / (2.0 * a + lambda0):
        print("out of regime: tau > ln2/(2a+lambda0)", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    report = solve_symmetric(a, lambda0, tau)
    meta = {"command": "symmetric", "a": a, "lambda0": lambda0, "tau": tau}
    header = [
        "a",
        "lambda0",
        "tau",
        "flip_level",
        "peak_threshold",
        "axis_half_sum",
        "diagonal_half_sum",
        "fixed_point",
        "capacity",
        "schur_mode",
    ]
    row = [
        a,
        lambda0,
        tau,
        report.flip_level,
        report.threshold.value,
        report.boundary.axis if report.boundary else math.nan,
        report.boundary.diagonal if report.boundary else math.nan,
        report.fixed_point,
        report.capacity,
        report.schur_mode.value,
    ]
    with _open_out(args) as out:
        _write_csv(out, meta, header, [row])
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    a1 = float(_require(args, "a1"))
    a2 = float(_require(args, "a2"))
    lambda0 = float(_merged(args, "lambda0", DEFAULT_LAMBDA0))
    taus = _parse_floats(_require(args, "taus"))
    if any(t <= 0 for t in taus):
        raise ValueError("taus must all be positive for converge")
    if args.strict and any(
        not ChannelParams(a1, a2, lambda0, t).in_regime for t in taus
    ):
        print("out of regime for at least one tau", file=sys.stderr)
        return EXIT_OUT_OF_REGIME
    rows = convergence_report(
        a1,
        a2,
        lambda0,
        taus,
        grid_step=float(_merged(args, "grid-step", 1e-3)),
        grid_refine=int(_merged(args, "grid-refine", 3)),
    )
    meta = {
        "command": "converge",
        "a1": a1,
        "a2": a2,
        "lambda0": lambda0,
        "taus": _require(args, "taus"),
    }
    csv_rows = [
        [r.tau, r.capacity, r.cont_capacity, r.gap, r.duty.mu1, r.duty.mu2]
        for r in rows
    ]
    with _open_out(args) as out:
        _write_csv(
            out, meta, ["tau", "capacity", "cont_capacity", "gap", "mu1", "mu2"], csv_rows
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson-mac",
        description="Sum-rate capacity of the two-user dead-time-limited photon-counting channel",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key=value file; flags override")
        p.add_argument("--out", help="output CSV path, '-' for stdout")
        p.add_argument("--lambda0", help="background rate (default 0.001)")
        p.add_argument("--strict", action="store_true", help="exit 3 when out of regime")
        p.add_argument("--grid-step", dest="grid_step", help="continuous-reference grid step (default 1e-3)")
        p.add_argument("--grid-refine", dest="grid_refine", help="tenfold refinement rounds (default 3)")

    p = sub.add_parser("solve", help="solve one two-user instance")
    common(p)
    p.add_argument("--a1", help="peak rate of user 1")
    p.add_argument("--a2", help="peak rate of user 2")
    p.add_argument("--tau", help="dead time")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("solve-miso", help="solve a multi-antenna instance")
    common(p)
    p.add_argument("--peaks1", help="comma-separated peaks of user 1 antennas")
    p.add_argument("--peaks2", help="comma-separated peaks of user 2 antennas")
    p.add_argument("--tau", help="dead time")
    p.set_defaults(fn=_cmd_solve_miso)

    p = sub.add_parser("intersections", help="stationarity-curve intersections")
    common(p)
    p.add_argument("--a1", help="peak rate of user 1")
    p.add_argument("--a2", help="peak rate of user 2")
    p.add_argument("--tau", help="dead time")
    p.set_defaults(fn=_cmd_intersections)

    p = sub.add_parser("sweep-peak", help="sweep a2 for several dead times")
    common(p)
    p.add_argument("--a1", help="fixed peak rate of user 1")
    p.add_argument("--a2", help="a2 range lo:hi:step (or lo:hi with --cells)")
    p.add_argument("--tau", help="comma-separated dead times; 0 = continuous reference")
    p.add_argument("--cells", type=int, help="grid size for lo:hi ranges")
    p.set_defaults(fn=_cmd_sweep_peak)

    p = sub.add_parser("sweep-region", help="strategy label over an (a1, a2) grid")
    common(p)
    p.add_argument("--a1", help="a1 range lo:hi:step (or lo:hi with --cells)")
    p.add_argument("--a2", help="a2 range lo:hi:step (or lo:hi with --cells)")
    p.add_argument("--tau", help="fixed dead time (overrides --tau-scale)")
    p.add_argument(
        "--tau-scale",
        dest="tau_scale",
        help="tau = scale * ln2/(a1+a2+lambda0) per cell (default 0.8)",
    )
    p.add_argument("--cells", type=int, help="grid size for lo:hi ranges")
    p.set_defaults(fn=_cmd_sweep_region)

    p = sub.add_parser("symmetric", help="equal-peak report")
    common(p)
    p.add_argument("--a", help="shared peak rate")
    p.add_argument("--tau", help="dead time")
    p.set_defaults(fn=_cmd_symmetric)

    p = sub.add_parser("converge", help="gap to the continuous reference")
    common(p)
    p.add_argument("--a1", help="peak rate of user 1")
    p.add_argument("--a2", help="peak rate of user 2")
    p.add_argument("--taus", help="comma-separated dead times")
    p.set_defaults(fn=_cmd_converge)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = _read_config(args.config) if args.config else {}
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ArithmeticError as exc:
        print(f"error: numerical failure ({type(exc).__name__}: {exc})", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
