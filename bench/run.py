"""
Benchmark of the poisson-mac command line.

    python3 bench/run.py --workload {single,sweep,fallback} --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/`` next to
this directory.  A run drives ``poisson_mac.cli.main(argv)`` in this process,
closed-loop from one client with no thread pool.  The seed fixes one round of
commands (workloads.py), which the run repeats for S seconds, and at least
MIN_REPETITIONS times.

Command times are reported at a reference host speed.  The host is shared:
other tenants slow it down by up to half for stretches of seconds to minutes,
and CPU time grows with wall time, so nothing waits.  Before each block the
run times a fixed probe that does the workload's kind of work (SPEED): a
pure-Python loop like the solver's scalar code, or array arithmetic on a grid
like the grid fallback's; each repetition's wall time is scaled by the
probe's reference time over its time now, and a command's time is the median
of its scaled repetitions.  The unscaled figures (best wall time per command)
are in the run record.  Outputs are checked after the timed phase (checks.py); a command
fails if it raises, exits non-zero, changes its output between repetitions
or fails a check, and the run goes on.  The workloads keep to instances the
program solves; the fallback record also notes, untimed and uncounted, what
the saturated instances of SATURATED_ARGV give ("ok" or the error's name).

--trace 0 reports the end-to-end metrics:
  setup_s          median wall time of fresh interpreters importing poisson_mac.cli,
                   each scaled by a bare interpreter's start-up time (setup_seconds)
  instances_per_s  instances solved in a round over the summed command times
  cmd_p50_ms       median command time
  cmd_tail_ms      command time with exactly ten commands beyond it
  peak_rss_mb      peak resident memory of this process during the timed phase
--trace 1 alternates untraced and traced repetitions (tracer.py) and reports
the per-layer metrics per round in unscaled seconds, with the spans written
to bench/out/.

The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
line before it is the run record: environment, error_rate, tail percentile
and the digest of the round's CSV output.  The record is also written to
bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_REPETITIONS = 3
# Each probe's best time on a quiet host (2-vCPU Intel Xeon VM, Python 3.11,
# numpy 2.4).
PYTHON_PROBE_REF_S = 5e-4
NUMPY_PROBE_REF_S = 4.4e-3
PROBE_STEPS = 4000
PROBE_GRID = 501
SETUP_SPAWNS = 7
# A bare interpreter's best start-up time on the same quiet host.
BARE_SPAWN_REF_S = 5e-2
IMPORTTIME_SPAWNS = 3
SPAWN_TIMEOUT_S = 60
TAIL_BEYOND = 10
EXIT_NO_PROGRAM = 2
# Instances whose hit probabilities round to 1; they crash the seed program.
SATURATED_ARGV = (
    ("solve", "--a1", "1000", "--a2", "1000", "--tau", "1"),
    ("intersections", "--a1", "1000", "--a2", "1000", "--tau", "1"),
)
# Thread pools of the numeric libraries: one client, one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def pin_environment() -> None:
    """Single-threaded numerics, small pages and the program's default sweep
    parallelism."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # numpy asks for huge pages for arrays of 4 MiB and more (the grid
    # fallback's); whether the shared host can hand them out, and how long it
    # compacts memory to do so, changes from minute to minute.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    os.environ.pop("POISSON_MAC_THREADS", None)
    os.environ["PYTHONPATH"] = str(SRC)


def _probe_step(x: float) -> float:
    return math.exp(-x) * 0.9 + 0.05 / (1.0 + x)


def _best_of_three(work: Callable[[], object]) -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - t0)
    return best


def _python_work() -> float:
    x = 0.5
    for _ in range(PROBE_STEPS):
        x = _probe_step(x)
    return x


def _numpy_work() -> float:
    """Array arithmetic like the grid fallback's, in arrays allocated afresh
    as the program's are, so the probe pays the same page faults."""
    import numpy as np

    g = np.linspace(1e-3, 1.0 - 1e-3, PROBE_GRID)
    m1, m2 = np.meshgrid(g, g, indexing="ij")
    ph = np.clip(0.5 * (m1 + m2), 1e-15, 1.0 - 1e-15)
    lo = np.log1p(-ph) - np.log(ph)
    return float(np.max(np.hypot(lo, m1)))


def python_speed() -> float:
    """Reference time over now of a fixed loop of float arithmetic and calls."""
    return PYTHON_PROBE_REF_S / _best_of_three(_python_work)


def numpy_speed() -> float:
    """Reference time over now of fixed array arithmetic on a grid."""
    return NUMPY_PROBE_REF_S / _best_of_three(_numpy_work)


# The probe that does the kind of work that dominates each workload.
SPEED = {"single": python_speed, "sweep": python_speed, "fallback": numpy_speed}


@dataclass
class Result:
    """One command of the round over all its repetitions."""

    block: int
    argv: tuple[str, ...]
    instances: int
    walls: list[float] = field(default_factory=list)
    # Wall times at the reference speed: wall * speed().
    scaled: list[float] = field(default_factory=list)
    output: str | None = None
    errors: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    @property
    def failed_runs(self) -> int:
        """Repetitions that raised or exited non-zero, or all of them on a bad output."""
        return len(self.walls) if self.problems else len(self.errors)


def run_command(main: Callable[[list[str]], int], argv: Sequence[str]) -> tuple[float, str, str | None]:
    """Wall time, stdout and error (None on success) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # any crash is a failed command; the run goes on
            code, error = None, type(exc).__name__
        wall = time.perf_counter() - t0
    if error is None and code != 0:
        error = f"exit {code}"
    return wall, out.getvalue(), error


def run_round(
    main: Callable,
    results: list[Result],
    on_command: Callable[[int], None] | None = None,
    speed: Callable[[], float] = python_speed,
) -> None:
    """One repetition of every command, in round order, probing the host's
    speed before each block."""
    block, scale = None, 1.0
    for i, r in enumerate(results):
        if r.block != block:
            block, scale = r.block, speed()
        if on_command is not None:
            on_command(i)
        wall, output, error = run_command(main, r.argv)
        r.walls.append(wall)
        r.scaled.append(wall * scale)
        if error is not None:
            r.errors.append(error)
        elif r.output is None:
            r.output = output
        elif output != r.output:
            r.problems.append("output changed between repetitions")


def saturated_outcomes(main: Callable) -> dict[str, str]:
    """"ok" or the error of each SATURATED_ARGV command, by command name."""
    return {argv[0]: run_command(main, argv)[2] or "ok" for argv in SATURATED_ARGV}


def new_results(blocks) -> list[Result]:
    return [Result(b, cmd.argv, cmd.instances) for b, block in enumerate(blocks) for cmd in block]


def check_outputs(results: list[Result], seed: int) -> None:
    from checks import Checker

    checker = Checker()
    for i, r in enumerate(results):
        if r.output is not None:
            r.problems += checker.check(i, r.argv, r.output)
    for i, problems in checker.oracle(seed).items():
        results[i].problems += problems


def digest(results: list[Result]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update((r.output or "").encode())
    return h.hexdigest()


def spawn_seconds(extra: Sequence[str] = (), code: str = "import poisson_mac.cli") -> tuple[float, str]:
    """Wall time and stderr of a fresh interpreter running code."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *extra, "-c", code],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=SPAWN_TIMEOUT_S,
        check=True,
    )
    return time.perf_counter() - t0, proc.stderr


def setup_seconds() -> tuple[float, float]:
    """Median import time of fresh interpreters, at the reference host speed
    and unscaled.  Each is scaled by BARE_SPAWN_REF_S over the start-up time
    of a bare interpreter spawned just before it, which slows down with the
    host as the import does; the in-process probes do not track it."""
    spawn_seconds()  # compiles the package's bytecode once
    scaled, walls = [], []
    for _ in range(SETUP_SPAWNS):
        bare = spawn_seconds(code="pass")[0]
        walls.append(spawn_seconds()[0])
        scaled.append(walls[-1] * BARE_SPAWN_REF_S / bare)
    return statistics.median(scaled), statistics.median(walls)


_IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)$")


def import_split(stderr: str) -> tuple[float, float]:
    """numpy and package seconds from one ``-X importtime`` log.

    The package figure is what the top-level poisson_mac imports cost
    beyond numpy: their cumulative time minus numpy's.
    """
    numpy_us = package_us = 0
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(2)), m.group(3), m.group(4)
        if name == "numpy":
            numpy_us = cumulative
        elif name.startswith("poisson_mac") and len(indent) == 1:
            package_us += cumulative
    return numpy_us * 1e-6, (package_us - numpy_us) * 1e-6


def environment(seed: int) -> dict[str, object]:
    import numpy

    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    sha = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "NUMPY_MADVISE_HUGEPAGE": os.environ["NUMPY_MADVISE_HUGEPAGE"],
        "POISSON_MAC_THREADS": os.environ.get("POISSON_MAC_THREADS"),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    return ordered[max(0, n - TAIL_BEYOND - 1)], 100.0 * (n - TAIL_BEYOND) / n


def metric(value: float, unit: str) -> dict[str, object]:
    return {"value": value, "unit": unit}


def command_stats(results: list[Result], times: list[float]) -> dict[str, float]:
    """Throughput, median and tail of one time per command."""
    solved = sum(r.instances for r in results if not r.failed_runs)
    return {
        "instances_per_s": solved / sum(times),
        "cmd_p50_ms": statistics.median(times) * 1e3,
        "cmd_tail_ms": tail(times)[0] * 1e3,
    }


def end_to_end(results: list[Result], setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    times = [statistics.median(r.scaled) for r in results]
    scaled = command_stats(results, times)
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "instances_per_s": metric(scaled["instances_per_s"], "1/s"),
        "cmd_p50_ms": metric(scaled["cmd_p50_ms"], "ms"),
        "cmd_tail_ms": metric(scaled["cmd_tail_ms"], "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    record = {
        "tail_percentile": tail(times)[1],
        "tail_samples": len(times),
        "unscaled_best": command_stats(results, [min(r.walls) for r in results]),
    }
    return metrics, record


LAYER_CALLS = (
    "cli.main", "siso.solve", "siso.find_intersections", "channel.hit_probs",
    "gridsearch.grid_capacity", "continuous.cont_capacity", "symmetric.peak_threshold",
)
LAYER_SELF = (
    "cli.main", "siso.solve", "siso.find_intersections", "siso.single_user_duty",
    "siso.sufficiency_tests", "channel.hit_probs", "gridsearch.grid_capacity",
    "continuous.cont_capacity", "continuous.convergence_report", "symmetric.solve_symmetric",
    "symmetric.peak_threshold", "symmetric.symmetric_fixed_point", "symmetric.boundary_half_sums",
    "miso.solve_miso", "miso.nu_pmf",
)


def per_layer(tracer, results: list[Result], reps: int, numpy_s: float, package_s: float, overhead: float) -> dict:
    """Per-layer metrics for one round: traced totals over reps repetitions."""
    totals = tracer.totals()
    counts = tracer.counts
    metrics = {f"{n}.calls": metric(totals.get(n, (0, 0.0))[0] / reps, "count") for n in LAYER_CALLS}
    metrics.update({f"{n}.self_s": metric(totals.get(n, (0, 0.0))[1] / reps, "s") for n in LAYER_SELF})
    fallback_calls = counts["siso.grid_fallback.calls"]
    metrics.update(
        {
            "cli.main.bytes_out": metric(sum(len((r.output or "").encode()) for r in results), "bytes"),
            "siso.sweep_strategy_region.cells": metric(counts["siso.sweep_strategy_region.cells"] / reps, "count"),
            "siso.grid_fallback.calls": metric(fallback_calls / reps, "count"),
            "siso.grid_fallback.win_ratio": metric(
                counts["siso.grid_fallback.wins"] / fallback_calls if fallback_calls else 0.0, "ratio"
            ),
            "gridsearch.grid_capacity.points": metric(counts["gridsearch.grid_capacity.points"] / reps, "points-computed"),
            "continuous.cont_capacity.points": metric(counts["continuous.cont_capacity.points"] / reps, "points-computed"),
            "setup.numpy_import_s": metric(numpy_s, "s"),
            "setup.poisson_mac_import_s": metric(package_s, "s"),
            "trace.overhead_ratio": metric(overhead, "ratio"),
        }
    )
    return metrics


def load_program() -> Callable:
    """poisson_mac.cli.main from this checkout's src/, or SystemExit."""
    if not (SRC / "poisson_mac" / "cli.py").is_file():
        raise SystemExit(f"error: no poisson_mac package under {SRC}")
    sys.path.insert(0, str(SRC))
    import poisson_mac.cli

    if SRC.resolve() not in Path(poisson_mac.cli.__file__).resolve().parents:
        raise SystemExit(f"error: poisson_mac imported from outside {SRC}")
    return poisson_mac.cli.main


def traced_run(cli_main: Callable, blocks, seconds: float, seed: int, workload: str) -> tuple[list[Result], dict, dict]:
    """Untraced and traced repetitions in turn; per-layer metrics of one round."""
    from tracer import Tracer

    tracer = Tracer()
    traced_main = tracer.wrap("cli.main", cli_main)
    plain, traced = new_results(blocks), new_results(blocks)
    reps = 0
    t_start = time.perf_counter()
    while reps < 2 or time.perf_counter() - t_start < seconds:
        run_round(cli_main, plain, speed=SPEED[workload])
        tracer.install()
        try:
            base = reps * len(traced)
            run_round(traced_main, traced, lambda i: setattr(tracer, "cmd_id", base + i), SPEED[workload])
        finally:
            tracer.uninstall()
        reps += 1
    overhead = sum(statistics.median(r.scaled) for r in traced) / sum(statistics.median(r.scaled) for r in plain)
    split = [import_split(spawn_seconds(["-X", "importtime"])[1]) for _ in range(IMPORTTIME_SPAWNS)]
    numpy_s = statistics.median(s[0] for s in split)
    package_s = statistics.median(s[1] for s in split)
    check_outputs(traced, seed)
    if digest(traced) != digest(plain):
        traced[0].problems.append("traced output differs from untraced output")
    spans = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
    tracer.write(spans)
    record = {"repetitions": reps, "spans": str(spans.relative_to(ROOT))}
    return traced, per_layer(tracer, traced, reps, numpy_s, package_s, overhead), record


def timed_run(cli_main: Callable, blocks, seconds: float, seed: int, workload: str) -> tuple[list[Result], dict, dict]:
    """Repetitions of the round for the time box; end-to-end metrics."""
    setup_s, setup_unscaled_s = setup_seconds()
    results = new_results(blocks)
    reps = 0
    t_start = time.perf_counter()
    while reps < MIN_REPETITIONS or time.perf_counter() - t_start < seconds:
        run_round(cli_main, results, speed=SPEED[workload])
        reps += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    check_outputs(results, seed)
    metrics, record = end_to_end(results, setup_s, rss_mb)
    record["repetitions"] = reps
    record["setup_unscaled_s"] = setup_unscaled_s
    return results, metrics, record


def parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = parse_args(argv)
    pin_environment()
    try:
        cli_main = load_program()
    except (SystemExit, ImportError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_NO_PROGRAM

    from workloads import round_blocks

    blocks = round_blocks(args.workload, args.seed)
    run_round(cli_main, new_results(blocks[:1]))  # warm-up
    if args.trace:
        results, metrics, extra = traced_run(cli_main, blocks, args.seconds, args.seed, args.workload)
    else:
        results, metrics, extra = timed_run(cli_main, blocks, args.seconds, args.seed, args.workload)

    if args.workload == "fallback":
        extra["saturated"] = saturated_outcomes(cli_main)

    attempted = sum(len(r.walls) for r in results)
    failed = sum(r.failed_runs for r in results)
    failures: dict[str, int] = {}
    for r in results:
        for key in r.errors:
            failures[key] = failures.get(key, 0) + 1
        if r.problems:
            failures["check"] = failures.get("check", 0) + len(r.walls) - len(r.errors)
    bad_output = [r for r in results if r.problems]
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(args.seed),
        "commands": len(results),
        **extra,
        "error_rate": metric(failed / attempted, "ratio"),
        "failures": failures,
        "first_problems": [{"argv": list(r.argv), "problems": r.problems[:3]} for r in bad_output[:5]],
        "digest": digest(results),
        "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not bad_output, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
