"""Command-line front end: run scenarios, compare controllers, validate grids.

Exit codes: 0 success (run converged / comparison done / grid clean),
1 invalid input, 2 unfavorable result (run hit t_max, grid has violations).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from dataclasses import replace
from pathlib import Path

from . import control, dynamics, engine, scenario as sio
from .surface import SurfaceConfig, validate_grid

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSETTLED = 2


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="morphsurf",
        description="Morphing-surface conveyance simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("-o", "--out", type=Path, required=True,
                       help="output directory for trace.csv and metrics.json")

    p_cmp = sub.add_parser("compare", help="compare controller modes over seeds")
    p_cmp.add_argument("scenario", type=Path)
    p_cmp.add_argument("--modes", default="wave,distributed,funnel",
                       help="comma-separated controller modes")
    p_cmp.add_argument("--seeds", default=None,
                       help="seed list like 1..20 or 3,5,8 (default: scenario seed)")
    p_cmp.add_argument("-o", "--out", type=Path, required=True)

    p_val = sub.add_parser("validate", help="check a grid against all constraints")
    p_val.add_argument("path", type=Path,
                       help="scenario JSON, grid JSON, or raw heights CSV")
    p_val.add_argument("--cell-width", type=float, default=None)
    p_val.add_argument("--cell-length", type=float, default=None)
    p_val.add_argument("--stroke", type=float, default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_validate(args)
    except (OSError, ValueError) as exc:  # ScenarioError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def _cmd_run(args) -> int:
    sc = sio.load_scenario(args.scenario)
    args.out.mkdir(parents=True, exist_ok=True)
    trace, metrics = engine.run(sc)
    sio.write_trace_csv(trace, args.out / "trace.csv")
    sio.write_metrics_json(metrics, sc, args.out / "metrics.json")
    if metrics.converged:
        print(f"converged: convergence_time={metrics.convergence_time} s, "
              f"{len(trace.t)} trace rows")
        return EXIT_OK
    print(f"did not settle within t_max={sc.t_max} s "
          f"(trace convergence_time={metrics.convergence_time})")
    return EXIT_UNSETTLED


def _cmd_compare(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    if not modes or len(set(modes)) < len(modes):
        raise sio.ScenarioError(f"--modes {args.modes!r}: give at least one mode, each once")
    base = {mode: sio.load_scenario(args.scenario, mode=mode) for mode in modes}
    seeds = sio.parse_seed_list(args.seeds) if args.seeds else [base[modes[0]].seed]
    if base[modes[0]].objects is not None and len(seeds) > 1:
        raise sio.ScenarioError(
            "the scenario lists its objects, so every seed would run the same "
            "simulation: give one seed, or place the objects with objects_random"
        )
    # One batch over every mode's seeds, mode after mode.
    jobs = [replace(sc, seed=s) for sc in base.values() for s in seeds]
    args.out.mkdir(parents=True, exist_ok=True)
    entries = engine.batch(jobs)

    summary: dict[str, dict] = {}
    for k, mode in enumerate(modes):
        per_seed = []
        times = []
        runs = slice(k * len(seeds), (k + 1) * len(seeds))
        for job, entry in zip(jobs[runs], entries[runs]):
            if entry.error is not None:
                per_seed.append({"seed": job.seed, "error": entry.error})
                continue
            md = sio.metrics_dict(entry.metrics, job)
            md["seed"] = job.seed
            per_seed.append(md)
            if entry.metrics.convergence_time is not None:
                times.append(entry.metrics.convergence_time)
        summary[mode] = {
            "seeds": seeds,
            "converged_runs": len(times),
            "median": statistics.median(times) if times else None,
            "min": min(times) if times else None,
            "max": max(times) if times else None,
        }
        (args.out / f"metrics-{mode}.json").write_text(
            json.dumps(per_seed, indent=2) + "\n"
        )

    (args.out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"{'mode':>12} {'median':>10} {'min':>10} {'max':>10} {'runs':>6}")
    for mode, row in summary.items():
        med = "-" if row["median"] is None else f"{row['median']:.1f}"
        lo = "-" if row["min"] is None else f"{row['min']:.1f}"
        hi = "-" if row["max"] is None else f"{row['max']:.1f}"
        print(f"{mode:>12} {med:>10} {lo:>10} {hi:>10} {row['converged_runs']:>6}")
    return EXIT_OK


def _cmd_validate(args) -> int:
    path: Path = args.path
    dims = (args.cell_width, args.cell_length, args.stroke)
    doc = sio.read_json_object(path) if path.suffix == ".json" else None
    if doc is not None and dims != (None, None, None):
        raise sio.ScenarioError(
            f"--cell-width, --cell-length and --stroke are for raw CSV grids only: "
            f"{path} gives its own dimensions"
        )
    if doc is not None and "heights" not in doc:
        sc = sio.scenario_from_dict(doc)
        state = engine.initial_state(sc)
        cells = dynamics.cell_indices(state[0], state[1], sc.cfg)  # as engine.run's first tick
        grid = control.command(*state, sc.mode, sc.params, sc.cfg, cells)[1]
        cfg = sc.cfg
    else:
        if path.suffix == ".json":
            grid, w, l_, stroke = sio.grid_from_dict(doc)
        elif path.suffix == ".csv":
            if None in dims:
                raise sio.ScenarioError(
                    "raw CSV grids need --cell-width, --cell-length and --stroke"
                )
            grid, (w, l_, stroke) = sio.read_heights_csv(path), dims
        else:
            raise sio.ScenarioError(f"cannot validate {path}: expected .json or .csv")
        cfg = SurfaceConfig(
            n=grid.shape[0] - 1, m=grid.shape[1] - 1,
            W=w, L=l_, stroke=stroke, ref_col=1, ref_row=1,
        )
    report = validate_grid(grid, cfg)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_UNSETTLED


if __name__ == "__main__":
    sys.exit(main())
