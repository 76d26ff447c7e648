"""
Seeded command streams for the benchmark workloads.

A workload is a sequence of blocks.  Every block of one workload holds the
same command kinds at the same sizes in a seeded order; only the channel
parameters change from block to block and from seed to seed, so the mix of
work is the same for every seed.  A run repeats one round, the first
ROUND_BLOCKS blocks, as often as its time allows.

Numbers are written with ``repr`` so the program parses exactly the value the
generator checked against the regime bound.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

LAMBDA0 = 1e-3
PEAK_RANGE = (1.0, 50.0)
LN2 = math.log(2.0)

# Blocks in the round a run repeats: one to four seconds of work at the seed
# commit, so a run repeats each command several times, and forty commands or
# more, so the tail has ten commands beyond it well above the median.
ROUND_BLOCKS = {"single": 10, "sweep": 4, "fallback": 4}


@dataclass(frozen=True)
class Command:
    """One CLI invocation and the number of channel instances it solves."""

    argv: tuple[str, ...]
    instances: int


def regime_bound(total_peak: float, lambda0: float = LAMBDA0) -> float:
    """ln2/(total peak + lambda0), summed in the same order as the program."""
    return LN2 / (total_peak + lambda0)


def range_values(lo: float, hi: float, cells: int) -> list[float]:
    """The grid the CLI builds from ``lo:hi`` with ``--cells``."""
    return [lo + (hi - lo) * i / (cells - 1) for i in range(cells)]


def _num(x: float) -> str:
    return repr(x)


def _peak(rng: random.Random) -> float:
    lo, hi = PEAK_RANGE
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scale(rng: random.Random) -> float:
    """A share of the regime bound in (0.2, 1.0]."""
    return 1.0 - 0.8 * rng.random()


def _peak_range(rng: random.Random) -> tuple[float, float]:
    lo, hi = sorted((_peak(rng), _peak(rng)))
    if hi - lo < 1.0:
        hi = lo + 1.0
    return lo, hi


def _pair(kind: str, a1: float, a2: float, tau: float) -> Command:
    argv = (kind, "--a1", _num(a1), "--a2", _num(a2), "--lambda0", _num(LAMBDA0), "--tau", _num(tau))
    return Command(argv, 1)


def _single_block(rng: random.Random, index: int) -> list[Command]:
    block: list[Command] = []
    for _ in range(10):
        for kind in ("solve", "intersections"):
            a1, a2 = _peak(rng), _peak(rng)
            block.append(_pair(kind, a1, a2, _scale(rng) * regime_bound(a1 + a2)))
        peaks1 = [_peak(rng) for _ in range(rng.randint(1, 3))]
        peaks2 = [_peak(rng) for _ in range(rng.randint(1, 3))]
        tau = _scale(rng) * regime_bound(sum(peaks1) + sum(peaks2))
        block.append(
            Command(
                (
                    "solve-miso",
                    "--peaks1", ",".join(map(_num, peaks1)),
                    "--peaks2", ",".join(map(_num, peaks2)),
                    "--lambda0", _num(LAMBDA0),
                    "--tau", _num(tau),
                ),
                1,
            )
        )
        a = _peak(rng)
        tau = _scale(rng) * regime_bound(a + a)
        block.append(
            Command(("symmetric", "--a", _num(a), "--lambda0", _num(LAMBDA0), "--tau", _num(tau)), 1)
        )
    rng.shuffle(block)
    return block


# Per block: small sweep-region grids (cells per axis) and sweep-peak commands
# of about the same cost (a2 cells, number of taus); every other block adds one
# grid of several thousand cells.  Forty small commands a round hold both the
# median and the tail (ten beyond it) inside the small class.  Region ranges
# are broad, so each grid meets every strategy and its cost per cell hardly
# moves with the seed.
REGION_CELLS = (15, 18, 20, 22, 25)
LARGE_REGION_CELLS = 60
PEAK_SIZES = ((100, 3), (160, 2), (200, 2), (300, 1), (400, 1))


def _broad_range(rng: random.Random) -> tuple[float, float]:
    return math.exp(rng.uniform(0.0, math.log(5.0))), math.exp(rng.uniform(math.log(25.0), math.log(50.0)))


def _sweep_block(rng: random.Random, index: int) -> list[Command]:
    block: list[Command] = []
    sizes = REGION_CELLS if index % 2 else (*REGION_CELLS, LARGE_REGION_CELLS)
    # Two grids share one range on both axes, for the label-swap check.
    matching = set(rng.sample(range(len(sizes)), 2))
    for k, cells in enumerate(sizes):
        r1 = _broad_range(rng)
        r2 = r1 if k in matching else _broad_range(rng)
        argv = (
            "sweep-region",
            "--a1", f"{_num(r1[0])}:{_num(r1[1])}",
            "--a2", f"{_num(r2[0])}:{_num(r2[1])}",
            "--cells", str(cells),
            "--lambda0", _num(LAMBDA0),
            "--tau-scale", _num(_scale(rng)),
        )
        block.append(Command(argv, cells * cells))
    for cells, n_taus in PEAK_SIZES:
        a1 = _peak(rng)
        lo, hi = _broad_range(rng)
        bound = regime_bound(a1 + max(range_values(lo, hi, cells)))
        # One tau in each of n_taus equal slices of (0.2, 1.0] of the bound.
        taus = [(1.0 - 0.8 * (j + rng.random()) / n_taus) * bound for j in range(n_taus)]
        argv = (
            "sweep-peak",
            "--a1", _num(a1),
            "--a2", f"{_num(lo)}:{_num(hi)}",
            "--cells", str(cells),
            "--lambda0", _num(LAMBDA0),
            "--tau", ",".join(map(_num, taus)),
        )
        block.append(Command(argv, cells * n_taus))
    rng.shuffle(block)
    return block


CONTINUOUS_ROWS = 4
CONVERGE_TAUS = 3
# Out-of-regime taus as a multiple of the regime bound, log-uniform.  The top
# keeps every a*tau below 30*ln2 (~21): the program's hit probabilities round
# to 1 near a*tau ~ 36 and crash it there (ZeroDivisionError), and a workload's
# commands must all succeed.  run.py records that crash apart (SATURATED_ARGV).
FALLBACK_RATIO = (1.001, 30.0)


def _fallback_block(rng: random.Random, index: int) -> list[Command]:
    block: list[Command] = []
    for _ in range(4):
        for kind in ("solve", "intersections"):
            a1, a2 = _peak(rng), _peak(rng)
            ratio = math.exp(rng.uniform(*map(math.log, FALLBACK_RATIO)))
            block.append(_pair(kind, a1, a2, ratio * regime_bound(a1 + a2)))
    lo, hi = _peak_range(rng)
    argv = (
        "sweep-peak",
        "--a1", _num(_peak(rng)),
        "--a2", f"{_num(lo)}:{_num(hi)}",
        "--cells", str(CONTINUOUS_ROWS),
        "--lambda0", _num(LAMBDA0),
        "--tau", "0",
    )
    block.append(Command(argv, CONTINUOUS_ROWS))
    for _ in range(2):
        a1, a2 = _peak(rng), _peak(rng)
        bound = regime_bound(a1 + a2)
        exps = sorted((rng.uniform(0.3, 3.0) for _ in range(CONVERGE_TAUS)))
        taus = [bound * 10.0**-e for e in exps]
        argv = (
            "converge",
            "--a1", _num(a1),
            "--a2", _num(a2),
            "--lambda0", _num(LAMBDA0),
            "--taus", ",".join(map(_num, taus)),
        )
        block.append(Command(argv, CONVERGE_TAUS + 1))
    rng.shuffle(block)
    return block


_BLOCKS: dict[str, Callable[[random.Random, int], list[Command]]] = {
    "single": _single_block,
    "sweep": _sweep_block,
    "fallback": _fallback_block,
}
WORKLOADS = tuple(_BLOCKS)


def blocks(workload: str, seed: int) -> Iterator[list[Command]]:
    """The endless block stream of one workload; equal seeds give equal streams."""
    make = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    for index in itertools.count():
        yield make(rng, index)


def round_blocks(workload: str, seed: int) -> list[list[Command]]:
    """The blocks of the round a run repeats."""
    stream = blocks(workload, seed)
    return [next(stream) for _ in range(ROUND_BLOCKS[workload])]
