"""
Output checks for the benchmark's CLI commands.

Each command's CSV is parsed and held to properties the paper states, using
the exact parameters the generator passed (the CSV echoes them rounded):

* every capacity row lies at or below ln2/tau (one binary output per slot),
* and at or above the best closed-form single-user rate (an edge candidate);
  continuous-reference rows likewise beat the continuous single-user rate;
* a seeded sample of rows is at least the ``grid_capacity`` oracle;
* a sweep-region grid with equal a1 and a2 ranges maps to itself when the
  user labels are swapped.

The single-user rates are derived here again rather than taken from the
library, so a check does not share the code it checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from workloads import range_values

LN2 = math.log(2.0)
# CSV numbers carry 12 significant digits.
FORMAT_RTOL = 1e-11
# The continuous reference is a grid maximum at duty resolution 1e-6; its rate
# error at the single-user optimum is orders of magnitude below this share.
CONTINUOUS_RTOL = 1e-9
ORACLE_SAMPLES = 12

_SWAPPED = {"OnlyUser1": "OnlyUser2", "OnlyUser2": "OnlyUser1", "BothActive": "BothActive"}

_HEADERS = {
    "solve": "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok",
    "solve-miso": "a1,a2,lambda0,tau,capacity_nats,mu1,mu2,strategy,regime_ok",
    "intersections": "mu1,mu2,valid",
    "sweep-peak": "a2,tau,mu1,mu2,capacity",
    "sweep-region": "a1,a2,strategy",
    "symmetric": "a,lambda0,tau,flip_level,peak_threshold,axis_half_sum,diagonal_half_sum,fixed_point,capacity,schur_mode",
    "converge": "tau,capacity,cont_capacity,gap,mu1,mu2",
}


def _entropy(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log(q) - (1.0 - q) * math.log1p(-q)


def single_user_rate(a: float, lambda0: float, tau: float) -> float:
    """Best rate of one on-off user alone, nats per unit time.

    The optimal on-probability solves h'(q) = chord slope of the entropy
    between the off and on hit levels.
    """
    p_on = -math.expm1(-(a + lambda0) * tau)
    p_off = -math.expm1(-lambda0 * tau)
    chord = (_entropy(p_on) - _entropy(p_off)) / (p_on - p_off)
    q = 1.0 / (1.0 + math.exp(min(chord, 700.0)))
    mu = min(max((q - p_off) / (p_on - p_off), 0.0), 1.0)
    q = mu * p_on + (1.0 - mu) * p_off
    return (_entropy(q) - mu * _entropy(p_on) - (1.0 - mu) * _entropy(p_off)) / tau


def _phi(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def cont_single_user_rate(a: float, lambda0: float) -> float:
    """Best continuous-time rate of one on-off user alone."""
    mu = (math.exp((_phi(a + lambda0) - _phi(lambda0)) / a - 1.0) - lambda0) / a
    mu = min(max(mu, 0.0), 1.0)
    return mu * _phi(a + lambda0) + (1.0 - mu) * _phi(lambda0) - _phi(mu * a + lambda0)


@dataclass(frozen=True)
class OracleRow:
    """A finite-tau capacity row to compare against the grid oracle."""

    command: int
    a1: float
    a2: float
    lambda0: float
    tau: float
    capacity: float


def _parse(text: str) -> tuple[str, list[list[str]]]:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# "):
        raise ValueError("missing metadata or header line")
    return lines[1], [line.split(",") for line in lines[2:]]


def _rate_bounds(cap: float, a1: float, a2: float, lambda0: float, tau: float) -> list[str]:
    problems = []
    if not cap <= LN2 / tau * (1.0 + FORMAT_RTOL):
        problems.append(f"capacity {cap!r} above ln2/tau at tau={tau!r}")
    floor = max(single_user_rate(a1, lambda0, tau), single_user_rate(a2, lambda0, tau))
    if not cap >= floor * (1.0 - FORMAT_RTOL):
        problems.append(f"capacity {cap!r} below single-user rate {floor!r}")
    return problems


def _cont_bound(cap: float, a1: float, a2: float, lambda0: float) -> list[str]:
    floor = max(cont_single_user_rate(a1, lambda0), cont_single_user_rate(a2, lambda0))
    if not cap >= floor * (1.0 - CONTINUOUS_RTOL):
        return [f"continuous capacity {cap!r} below single-user rate {floor!r}"]
    return []


class Checker:
    """Checks each command's output and collects rows for the oracle."""

    def __init__(self) -> None:
        self.oracle_rows: list[OracleRow] = []

    def check(self, index: int, argv: tuple[str, ...], text: str) -> list[str]:
        """Problems with one command's output; empty when it passes."""
        kind = argv[0]
        flags = dict(zip(argv[1::2], argv[2::2]))
        try:
            header, rows = _parse(text)
            if header != _HEADERS[kind]:
                return [f"unexpected header {header!r}"]
            return getattr(self, "_" + kind.replace("-", "_"))(index, flags, rows)
        except (ValueError, IndexError, KeyError) as exc:
            return [f"unparsable output: {exc}"]

    def _one_row(self, index: int, a1: float, a2: float, l0: float, tau: float, rows: list[list[str]], col: int) -> list[str]:
        if len(rows) != 1:
            return [f"expected one row, got {len(rows)}"]
        cap = float(rows[0][col])
        self.oracle_rows.append(OracleRow(index, a1, a2, l0, tau, cap))
        return _rate_bounds(cap, a1, a2, l0, tau)

    def _solve(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        a1, a2, l0, tau = (float(f[k]) for k in ("--a1", "--a2", "--lambda0", "--tau"))
        return self._one_row(index, a1, a2, l0, tau, rows, 4)

    def _solve_miso(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        a1 = sum(float(p) for p in f["--peaks1"].split(","))
        a2 = sum(float(p) for p in f["--peaks2"].split(","))
        return self._one_row(index, a1, a2, float(f["--lambda0"]), float(f["--tau"]), rows, 4)

    def _symmetric(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        a = float(f["--a"])
        return self._one_row(index, a, a, float(f["--lambda0"]), float(f["--tau"]), rows, 8)

    def _intersections(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        problems = []
        if sum(r[2] == "true" for r in rows) > 2:
            problems.append("more than two valid intersections")
        for mu1, mu2, valid in rows:
            if valid not in ("true", "false") or not (0.0 <= float(mu1) <= 1.0 and 0.0 <= float(mu2) <= 1.0):
                problems.append(f"bad intersection row {mu1},{mu2},{valid}")
        return problems

    def _sweep_peak(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        a1, l0 = float(f["--a1"]), float(f["--lambda0"])
        lo, hi = (float(x) for x in f["--a2"].split(":"))
        a2_values = range_values(lo, hi, int(f["--cells"]))
        expected = [(tau, a2) for tau in map(float, f["--tau"].split(",")) for a2 in a2_values]
        if len(rows) != len(expected):
            return [f"expected {len(expected)} rows, got {len(rows)}"]
        problems = []
        for (tau, a2), row in zip(expected, rows):
            cap = float(row[4])
            if tau == 0.0:
                problems += _cont_bound(cap, a1, a2, l0)
            else:
                self.oracle_rows.append(OracleRow(index, a1, a2, l0, tau, cap))
                problems += _rate_bounds(cap, a1, a2, l0, tau)
        return problems

    def _sweep_region(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        cells = int(f["--cells"])
        if len(rows) != cells * cells:
            return [f"expected {cells * cells} cells, got {len(rows)}"]
        labels = [row[2] for row in rows]
        if any(label not in _SWAPPED for label in labels):
            return ["unknown strategy label"]
        if f["--a1"] != f["--a2"]:
            return []
        asym = sum(
            1
            for i in range(cells)
            for j in range(cells)
            if i != j and labels[j * cells + i] != _SWAPPED[labels[i * cells + j]]
        )
        return [f"{asym} cells break label-swap symmetry"] if asym else []

    def _converge(self, index: int, f: dict[str, str], rows: list[list[str]]) -> list[str]:
        a1, a2, l0 = (float(f[k]) for k in ("--a1", "--a2", "--lambda0"))
        taus = [float(t) for t in f["--taus"].split(",")]
        if len(rows) != len(taus):
            return [f"expected {len(taus)} rows, got {len(rows)}"]
        problems = []
        for tau, row in zip(taus, rows):
            cap, cont, gap = float(row[1]), float(row[2]), float(row[3])
            self.oracle_rows.append(OracleRow(index, a1, a2, l0, tau, cap))
            problems += _rate_bounds(cap, a1, a2, l0, tau)
            problems += _cont_bound(cont, a1, a2, l0)
            if abs(gap - (cont - cap)) > 3.0 * FORMAT_RTOL * abs(cont):
                problems.append(f"gap {gap!r} is not cont - capacity")
        return problems

    def oracle(self, seed: int) -> dict[int, list[str]]:
        """Problems found by comparing a seeded sample of rows with grid_capacity."""
        from poisson_mac.channel import ChannelParams
        from poisson_mac.gridsearch import grid_capacity

        rng = random.Random(f"oracle:{seed}")
        sample = rng.sample(self.oracle_rows, min(ORACLE_SAMPLES, len(self.oracle_rows)))
        problems: dict[int, list[str]] = {}
        for row in sample:
            grid = grid_capacity(ChannelParams(row.a1, row.a2, row.lambda0, row.tau))
            if not row.capacity * (1.0 + FORMAT_RTOL) >= grid.capacity:
                problems.setdefault(row.command, []).append(
                    f"capacity {row.capacity!r} below grid oracle {grid.capacity!r}"
                )
        return problems
