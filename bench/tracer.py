"""
Spans around the calls into each layer of poisson_mac, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper at
every module that holds it, including lazy ``from .gridsearch import ...``
sites, which read the patched module attribute.  A span keeps its name,
start, end, parent span and command id in flat arrays; its self time is its
duration minus the time its child spans cover.  ``uninstall`` puts the
original functions back.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable

PACKAGE_MODULES = ("cli", "siso", "channel", "gridsearch", "continuous", "symmetric", "miso")

# Layer boundaries: public functions, by the module that defines them.
TRACED = {
    "siso": ("solve", "find_intersections", "single_user_duty", "sufficiency_tests", "sweep_strategy_region"),
    "channel": ("hit_probs",),
    "gridsearch": ("grid_capacity",),
    "continuous": ("cont_capacity", "convergence_report"),
    "symmetric": ("solve_symmetric", "peak_threshold", "symmetric_fixed_point", "boundary_half_sums"),
    "miso": ("solve_miso", "nu_pmf"),
}

# Refinement windows reach 1.5 coarse steps to each side at a tenth of the
# step: 31 points a side when not clipped at the edge of the duty square.
_WINDOW_POINTS = 31**2
_GRID_INCUMBENTS = 5


def grid_points(step: float, refine_rounds: int, incumbents: int) -> int:
    """Rate evaluations of one coarse pass plus unclipped refinement windows."""
    per_axis = max(1, int(round(1.0 / step))) + 1
    return per_axis**2 + refine_rounds * incumbents * _WINDOW_POINTS


def _grid_capacity_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    from poisson_mac.gridsearch import GridSpec

    spec = args[1] if len(args) > 1 else kwargs.get("spec", GridSpec())
    tracer.counts["gridsearch.grid_capacity.points"] += grid_points(spec.step, spec.refine_rounds, _GRID_INCUMBENTS)


def _cont_capacity_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    step = args[1] if len(args) > 1 else kwargs.get("step", 1e-3)
    rounds = args[2] if len(args) > 2 else kwargs.get("refine_rounds", 3)
    tracer.counts["continuous.cont_capacity.points"] += grid_points(step, rounds, 1)


def _solve_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    if result.grid_checked:
        tracer.counts["siso.grid_fallback.calls"] += 1
        if result.capacity > max(c.rate for c in result.candidates):
            tracer.counts["siso.grid_fallback.wins"] += 1


def _region_counts(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.counts["siso.sweep_strategy_region.cells"] += len(args[0]) * len(args[1])


_COUNTERS: dict[str, Callable[["Tracer", tuple, dict, Any], None]] = {
    "gridsearch.grid_capacity": _grid_capacity_counts,
    "continuous.cont_capacity": _cont_capacity_counts,
    "siso.solve": _solve_counts,
    "siso.sweep_strategy_region": _region_counts,
}


class Tracer:
    """In-memory span recorder for one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.parent = array("i")
        self.cmd = array("i")
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.cmd_id = -1
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """fn recording one span per call under the given layer name."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        count = _COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(int(stack[-1][0]) if stack else -1)
            self.cmd.append(self.cmd_id)
            self.end.append(0.0)
            self.self_time.append(0.0)
            stack.append([idx, 0.0])
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                _, child = stack.pop()
                dur = t1 - t0
                self.end[idx] = t1
                self.self_time[idx] = dur - child
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                count(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function at every package module that binds it."""
        modules = [importlib.import_module(f"poisson_mac.{m}") for m in PACKAGE_MODULES]
        modules.append(importlib.import_module("poisson_mac"))
        for origin, functions in TRACED.items():
            home = importlib.import_module(f"poisson_mac.{origin}")
            for attr in functions:
                original = getattr(home, attr)
                wrapper = self.wrap(f"{origin}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patches.append((module, key, original))
                            setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches.clear()

    def totals(self) -> dict[str, tuple[int, float]]:
        """Calls and summed self time per layer name."""
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for nid, st in zip(self.name, self.self_time):
            calls[nid] += 1
            self_s[nid] += st
        return {n: (calls[i], self_s[i]) for i, n in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """All spans as gzipped CSV, one row per span in start order."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span,name,start,end,self,parent,cmd\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{names[self.name[i]]},{self.start[i]!r},{self.end[i]!r},"
                    f"{self.self_time[i]!r},{self.parent[i]},{self.cmd[i]}\n"
                )
