#!/usr/bin/env python3
"""morphsurf benchmark: one workload from one seed, as a closed loop in one process.

    python3 perfbench/run.py --workload compare-s5x6 --seed 3 --seconds 36 --trace 0

Run it from the repository root; it imports morphsurf from ./src and writes
its outputs under ./bench-out.  A run repeats whole rounds of the workload
(the same CLI invocations each round) back to back for --seconds, checks
every output (see checks.py) and prints one JSON object as its last line.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics of
spans wrapped around the program's functions (see layers.py); README.md
lists both.  `python3 perfbench/selftest.py` shows that each check rejects
a corrupted output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

# compare hands its runs to engine.batch; with one thread it runs them in this
# process, so the figures measure the program rather than a process pool's
# scheduling on a small shared machine.
os.environ["MORPHSURF_THREADS"] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import layers  # noqa: E402

ROOT = Path.cwd()
OUT = ROOT / "bench-out"
SCENARIOS = ROOT / "scenarios"
MODES = ("wave", "distributed", "funnel")
SETUP_PROBES = 7  # one after each of the first rounds, the rest at the end
COMPARE_SEEDS = 2  # paper-s5x6 placement seeds per compare-s5x6 round
CROWD_OBJECTS = 200


def load_program() -> dict:
    """Import morphsurf from ./src of the checkout, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "morphsurf" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.exit(f"perfbench: no src/morphsurf and scenarios/ under {ROOT}; "
                 "run from the repository root")
    sys.path.insert(0, str(src))
    import morphsurf
    from morphsurf import cli, control, dynamics, engine, scenario, surface
    if Path(morphsurf.__file__).resolve().parent != (src / "morphsurf").resolve():
        sys.exit(f"perfbench: imported morphsurf from {morphsurf.__file__}, not {src}")
    return {"cli": cli, "scenario": scenario, "engine": engine,
            "control": control, "surface": surface, "dynamics": dynamics}


class RunCanned:
    """`morphsurf run` on each shipped scenario, writing trace.csv and metrics.json.
    The inputs are the shipped files, so the seed does not change them."""

    FILES = ("paper-s1x10", "paper-s5x6", "uturn")

    def __init__(self, program: dict):
        self.cli = program["cli"]
        self.paths = [SCENARIOS / f"{f}.json" for f in self.FILES]
        for p in self.paths:
            program["scenario"].load_scenario(p)
        self.runs = len(self.paths)

    def round(self, out: Path, timer, kept: list) -> tuple[list[float], int]:
        times, failed = [], 0
        for p in self.paths:
            t0 = layers.clock()
            rc = self.cli.main(["run", str(p), "-o", str(out / p.stem)])
            times.append(layers.clock() - t0)
            failed += rc != 0
        return times, failed

    def digest(self, out: Path) -> str:
        return json.dumps([
            [hashlib.sha256((out / p.stem / "trace.csv").read_bytes()).hexdigest(),
             checks.strip_wall_clock(checks.read_metrics(out / p.stem / "metrics.json"))]
            for p in self.paths])

    def verify(self, out: Path, kept: list) -> tuple[list[str], Counter]:
        """Checks of the last round's files, and the exact counts of a round."""
        fails, counts = [], Counter()
        for p in self.paths:
            sc = checks.Scene.from_doc(json.loads(p.read_text()))
            tr = checks.Trace.from_csv(out / p.stem / "trace.csv", sc.n, sc.m)
            metrics = checks.read_metrics(out / p.stem / "metrics.json")
            fails += checks.check_run(p.stem, tr, sc, metrics)
            add_counts(counts, tr, sc)
            counts["trace_csv_bytes"] += (out / p.stem / "trace.csv").stat().st_size
        return fails, counts


class Compare:
    """`morphsurf compare` over the three modes, in one invocation per round."""

    def __init__(self, program: dict, path: Path, seeds: list[int] | None):
        self.cli = program["cli"]
        self.doc = json.loads(path.read_text())
        for mode in MODES:
            for s in seeds or [None]:
                program["scenario"].load_scenario(path, mode=mode, seed=s)
        self.runs = len(MODES) * len(seeds or [None])
        self.argv = ["compare", str(path), "--modes", ",".join(MODES)]
        if seeds:
            self.argv += ["--seeds", f"{seeds[0]}..{seeds[-1]}"]

    def round(self, out: Path, timer, kept: list) -> tuple[list[float], int]:
        times: list[float] = []
        with timer(times, kept):
            rc = self.cli.main(self.argv + ["-o", str(out)])
        failed = sum("error" in e for m in MODES for e in self._per_seed(out, m))
        return times, failed if rc == 0 else self.runs

    @staticmethod
    def _per_seed(out: Path, mode: str) -> list[dict]:
        return checks.read_metrics(out / f"metrics-{mode}.json")

    def digest(self, out: Path) -> str:
        docs = [checks.read_metrics(out / f"metrics-{m}.json") for m in MODES]
        return checks.strip_wall_clock([docs, checks.read_metrics(out / "summary.json")])

    def verify(self, out: Path, kept: list) -> tuple[list[str], Counter]:
        """Checks of the last round, whose simulations' traces were kept, and
        the exact counts of a round."""
        sc = checks.Scene.from_doc(self.doc)
        fails, counts, conv = [], Counter(), {}
        if len(kept) != self.runs:
            fails.append(f"runs: kept {len(kept)} simulation traces, expected {self.runs}")
        per_seed = {m: {e["seed"]: e for e in self._per_seed(out, m)} for m in MODES}
        for scenario, trace in kept:
            mode, seed = scenario.mode, scenario.seed
            tr = checks.Trace.from_sim(trace)
            fails += checks.check_run(f"{mode} seed {seed}", tr, sc, per_seed[mode][seed])
            add_counts(counts, tr, sc)
            conv.setdefault(seed, {})[mode] = per_seed[mode][seed]["convergence_time"]
        for seed, by_mode in sorted(conv.items()):
            fails += checks.check_ranking(f"seed {seed}", by_mode)
        summary = checks.read_metrics(out / "summary.json")
        for mode in MODES:
            times = [e["convergence_time"] for e in per_seed[mode].values()
                     if e.get("convergence_time") is not None]
            if times and summary[mode]["median"] != statistics.median(times):
                fails.append(f"summary: {mode} median {summary[mode]['median']}")
        return fails, counts


def crowd_doc(seed: int) -> dict:
    """12x12 surface, reference at a central cell, lagging actuators, and
    CROWD_OBJECTS objects placed uniformly from the benchmark's seed."""
    rng = random.Random(seed)
    return {
        "surface": {"n": 12, "m": 12, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [6, 6]},
        "physics": {"g": 0.0981, "b": 0.1, "tau": 0.5, "dt": 0.01},
        "control": {"mode": "wave", "a": 0.5, "b": 0.5, "rate": 10.0},
        "objects": [{"x": rng.uniform(0.0, 24.0), "y": rng.uniform(0.0, 24.0)}
                    for _ in range(CROWD_OBJECTS)],
        "t_max": 1200.0,
    }


def make_workload(name: str, program: dict, seed: int, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    if name == "run-canned":
        return RunCanned(program)
    if name == "compare-s5x6":
        first = COMPARE_SEEDS * seed + 1
        return Compare(program, SCENARIOS / "paper-s5x6.json",
                       list(range(first, first + COMPARE_SEEDS)))
    path = out / "crowd-12x12.json"
    path.write_text(json.dumps(crowd_doc(seed)) + "\n")
    return Compare(program, path, None)


WORKLOADS = ("run-canned", "compare-s5x6", "crowd-12x12")


def add_counts(counts: Counter, tr: checks.Trace, sc: checks.Scene) -> None:
    """The exact counts of one run, from its trace."""
    objects = tr.states.shape[1]
    counts["runs"] += 1
    counts["ticks"] += tr.ticks
    counts["substeps"] += tr.ticks * sc.substeps
    counts["object_ticks"] += tr.ticks * objects
    counts["grid_changes"] += layers.grid_changes(tr.za_i, tr.za_j)
    counts["field_builds"] += tr.ticks
    counts["control_calls"] += len(tr.t)


def run_timer(engine):
    """Times each engine.run call from outside, one clock pair per run, and
    keeps (scenario, trace) of each run in `kept` if one is given."""
    def timer(times: list[float], kept: list | None):
        def timed(sc, _run=engine.run):
            t0 = layers.clock()
            result = _run(sc)
            times.append(layers.clock() - t0)
            if kept is not None:
                kept.append((sc, result[0]))
            return result
        return layers.swap(engine.run, timed)
    return timer


def untimed(times: list[float], kept: list | None):
    return nullcontext()


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def measure_round(wl, out: Path, timer, kept=None) -> tuple[float, float, list[float], int]:
    c0, t0 = cpu_seconds(), layers.clock()
    times, failed = wl.round(out, timer, kept)
    return layers.clock() - t0, cpu_seconds() - c0, times, failed


def setup_probe(args) -> float:
    """Wall time of a fresh process that imports and prepares the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"]
    t0 = layers.clock()
    subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
    return layers.clock() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    program = load_program()
    out = OUT / args.workload
    if args.setup_only:
        make_workload(args.workload, program, args.seed, out / "probe")
        return 0
    shutil.rmtree(out, ignore_errors=True)
    wl = make_workload(args.workload, program, args.seed, out / "inputs")
    rounds_out = out / "round"
    timer = run_timer(program["engine"])
    tracer = layers.Tracer(program) if args.trace else None

    walls, cpus, traced_walls, run_times, digests = [], [], [], [], []
    failed = traced_rounds = 0
    setups: list[float] = []
    traced_counts: list[Counter] = []
    kept: list = []  # (scenario, trace) of every simulation of the last round
    final = False
    start = layers.clock()
    while not final:
        # The last round keeps its traces for the checks; peak memory is read
        # before it, when identical rounds have already run.
        done = len(walls) + traced_rounds
        spent = layers.clock() - start
        final = done > 0 and spent + 2 * spent / done > args.seconds and (
            tracer is None or traced_rounds > 0)
        if final:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_peak
        if tracer is not None and not final and len(walls) > traced_rounds:
            before = tracer.exact_counts()
            tracer.install()
            try:
                wall, _, _, f = measure_round(wl, rounds_out, untimed)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            traced_rounds += 1
            traced_counts.append(tracer.exact_counts() - before)
        else:
            wall, cpu, times, f = measure_round(wl, rounds_out, timer, kept if final else None)
            walls.append(wall)
            cpus.append(cpu)
            run_times.append(times)
        failed += f
        digests.append(wl.digest(rounds_out))
        if not setups:  # children of the program only: no set-up probe has run yet
            children_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if tracer is None and not final and len(setups) < SETUP_PROBES:
            # spread over the run, so one slow spell of a shared host weighs less
            setups.append(setup_probe(args))
            start += setups[-1]

    fails, counts = wl.verify(rounds_out, kept)
    fails += checks.check_identical("rounds", digests)
    for k, c in enumerate(traced_counts):
        if +c != +counts:
            fails.append(f"counts: traced round {k + 1} {dict(c)} vs outputs {dict(counts)}")
    attempted = wl.runs * (len(walls) + traced_rounds)

    if tracer is None:
        setups += [setup_probe(args) for _ in range(SETUP_PROBES - len(setups))]
        wall = statistics.fmean(walls)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (wall, "s"),
            "cpu_s": (statistics.fmean(cpus), "s"),
            # each distinct run's mean over the rounds, then the median run
            "run_p50_s": (statistics.median(map(statistics.fmean, zip(*run_times))), "s"),
            "us_per_tick": (wall / counts["ticks"] * 1e6, "us"),
            "ns_per_object_tick": (wall / counts["object_ticks"] * 1e9, "ns"),
            "peak_rss_mb": (peak * 1024 / 1e6, "MB"),
        }
    else:
        metrics = tracer.per_layer(traced_rounds)
        metrics["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls), "s")

    (out / "samples.json").write_text(json.dumps(
        {"round_wall_s": walls, "round_cpu_s": cpus, "traced_round_wall_s": traced_walls,
         "run_wall_s": run_times, "setup_s": setups}, indent=1) + "\n")
    for f in fails:
        print(f"FAIL {f}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:>32} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not fails,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
