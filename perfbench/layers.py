"""Spans around the program's functions, installed from outside the program.

`swap` rebinds a function wherever a morphsurf module holds it (the modules
import each other's functions by name, so patching the defining module alone
would miss the calls).  `Tracer` uses it to wrap one function per layer
boundary.  Spans are aggregated in memory per layer (calls, inclusive time,
self time) and read only when the run ends; a layer's self time is its
inclusive time minus the time of the spans nested in it.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

clock = time.perf_counter


def program_modules() -> list:
    return [m for k, m in sys.modules.items() if k == "morphsurf" or k.startswith("morphsurf.")]


def rebind(original, replacement) -> list[tuple[object, str]]:
    """Point every morphsurf binding of `original` at `replacement`."""
    sites = []
    for mod in program_modules():
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)
                sites.append((mod, name))
    return sites


@contextmanager
def swap(original, replacement):
    sites = rebind(original, replacement)
    try:
        yield
    finally:
        for mod, name in sites:
            setattr(mod, name, original)


def grid_changes(col_heights: np.ndarray, row_heights: np.ndarray) -> int:
    """Field builds (all rows but the last) whose actual grid differs from
    the previous build's."""
    g = np.concatenate([col_heights, row_heights], axis=1)[:-1]
    return int((g[1:] != g[:-1]).any(axis=1).sum())


def trace_bytes(trace) -> int:
    return sum(v.nbytes for v in vars(trace).values() if isinstance(v, np.ndarray))


# Counts that an untraced run derives from the program's outputs too.
EXACT = ("runs", "ticks", "substeps", "object_ticks", "grid_changes", "trace_csv_bytes")

# Layer name -> (module, function).  The field span is the engine helper that
# builds one tick's gravity field: surface.cell_orientation over the n*m
# cells plus dynamics.gravity_field.  Wrapping cell_orientation itself would
# put a span around each of up to 144 calls of about 2 us per tick, and the
# spans would cost as much as the calls.
SPANS = {
    "cli.main": ("cli", "main"),
    "scenario.load": ("scenario", "load_scenario"),
    "scenario.trace_csv": ("scenario", "write_trace_csv"),
    "scenario.metrics_json": ("scenario", "write_metrics_json"),
    "engine.run": ("engine", "run"),
    "engine.metrics": ("engine", "compute_metrics"),
    "dynamics.field": ("engine", "_grid_orientation_terms"),
    "control.command": ("control", "command"),
    "control.occupancy": ("control", "occupancy_sets"),
    "surface.reconstruct": ("surface", "reconstruct_actuator_grid"),
    "dynamics.advance": ("dynamics", "advance"),
}


class Tracer:
    """Wraps the SPANS functions while installed; `stats` and `counts` add up
    over every traced round."""

    def __init__(self, program: dict):
        self.program = program
        self.stats = {name: [0, 0.0, 0.0] for name in SPANS}  # calls, total, self
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._sites: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (module, attr) in SPANS.items():
            fn = getattr(self.program[module], attr, None)
            if fn is None:  # layer refactored away: its metrics read 0
                continue
            wrapper = self._wrap(name, fn, self._observer(name, fn))
            self._sites += [(mod, n, fn) for mod, n in rebind(fn, wrapper)]

    def remove(self) -> None:
        for mod, name, fn in self._sites:
            setattr(mod, name, fn)
        self._sites = []

    def _wrap(self, name, fn, observe):
        stack, stat = self._stack, self.stats
        counts = self.counts

        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            s = stat[name]
            s[0] += 1
            s[1] += t1 - t0
            s[2] += t1 - t0 - frame[0]
            if observe is not None:
                observe(counts, args, kwargs, result)
            if stack:  # observer time is charged to no layer
                stack[-1][0] += clock() - t0
            return result

        return span

    def _observer(self, name, fn):
        if name == "dynamics.advance":
            at = list(inspect.signature(fn).parameters).index("substeps")

            def advance(counts, args, kwargs, _):
                sub = args[at] if len(args) > at else kwargs.get("substeps", 1)
                counts["ticks"] += 1
                counts["substeps"] += sub
                counts["object_ticks"] += args[0].size
                counts["object_substeps"] += args[0].size * sub

            return advance
        if name == "engine.run":
            def run(counts, args, kwargs, result):
                trace = result[0]
                counts["runs"] += 1
                counts["grid_changes"] += grid_changes(trace.col_heights, trace.row_heights)
                counts["trace_bytes"] += trace_bytes(trace)

            return run
        if name == "scenario.trace_csv":
            def trace_csv(counts, args, kwargs, _):
                path = args[1] if len(args) > 1 else kwargs["path"]
                counts["trace_csv_bytes"] += os.path.getsize(path)

            return trace_csv
        return None

    def exact_counts(self) -> Counter:
        """The counts that must repeat exactly, summed over traced rounds."""
        c = Counter({k: self.counts[k] for k in EXACT})
        c["field_builds"] = self.stats["dynamics.field"][0]
        c["control_calls"] = self.stats["control.command"][0]
        return c

    def per_layer(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics with units: times per call, counts per round."""
        st, c = self.stats, self.counts

        def per_call(name, scale):
            calls, total, _ = st[name]
            return total / calls * scale if calls else 0.0

        def share(value, base):
            return value / base if base else 0.0

        ticks = c["ticks"]
        csv_calls = st["scenario.trace_csv"][0]
        return {
            "dynamics.advance_us": (per_call("dynamics.advance", 1e6), "us"),
            "dynamics.ns_per_object_substep":
                (share(st["dynamics.advance"][1] * 1e9, c["object_substeps"]), "ns"),
            "dynamics.field_us": (per_call("dynamics.field", 1e6), "us"),
            "dynamics.field_builds": (st["dynamics.field"][0] // rounds, "count"),
            "dynamics.grid_changes": (c["grid_changes"] // rounds, "count"),
            "control.command_us": (per_call("control.command", 1e6), "us"),
            "control.occupancy_us": (per_call("control.occupancy", 1e6), "us"),
            "control.calls": (st["control.command"][0] // rounds, "count"),
            "surface.reconstruct_us": (per_call("surface.reconstruct", 1e6), "us"),
            "engine.self_us_per_tick": (share(st["engine.run"][2] * 1e6, ticks), "us"),
            "engine.metrics_ms": (per_call("engine.metrics", 1e3), "ms"),
            "engine.trace_mb": (share(c["trace_bytes"] / 1e6, c["runs"]), "MB"),
            "engine.runs": (c["runs"] // rounds, "count"),
            "engine.ticks": (ticks // rounds, "count"),
            "engine.substeps": (c["substeps"] // rounds, "count"),
            "engine.object_ticks": (c["object_ticks"] // rounds, "count"),
            "scenario.trace_csv_ms": (per_call("scenario.trace_csv", 1e3), "ms"),
            "scenario.trace_csv_mb": (share(c["trace_csv_bytes"] / 1e6, csv_calls), "MB"),
            "scenario.metrics_json_ms": (per_call("scenario.metrics_json", 1e3), "ms"),
            "scenario.load_ms": (per_call("scenario.load", 1e3), "ms"),
            "cli.self_ms": (share(st["cli.main"][2] * 1e3, st["cli.main"][0]), "ms"),
        }
