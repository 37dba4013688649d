"""Command-line front end: run scenarios, compare controllers, validate grids.

Exit codes: 0 success (run converged / comparison done / grid clean),
1 invalid input, 2 unfavorable result (run hit t_max, grid has violations).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from . import control, engine, scenario as sio
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
    base = sio.load_scenario(args.scenario)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for m in modes:
        if m not in control.MODES:
            raise sio.ScenarioError(f"unknown mode {m!r}")
    seeds = sio.parse_seed_list(args.seeds) if args.seeds else [base.seed]
    if base.objects is not None and len(seeds) > 1:
        raise sio.ScenarioError(
            "the scenario lists its objects, so every seed would run the same "
            "simulation: give one seed, or place the objects with objects_random"
        )
    args.out.mkdir(parents=True, exist_ok=True)

    summary: dict[str, dict] = {}
    for mode in modes:
        jobs = [
            sio.load_scenario(args.scenario, mode=mode, seed=s) for s in seeds
        ]
        entries = engine.batch(jobs)
        per_seed = []
        times = []
        for seed, entry in zip(seeds, entries):
            if entry.error is not None:
                per_seed.append({"seed": seed, "error": entry.error})
                continue
            md = sio.metrics_dict(entry.metrics, entry.scenario)
            md["seed"] = seed
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
    if path.suffix == ".json" and "heights" not in json.loads(path.read_text()):
        sc = sio.load_scenario(path)
        grid = control.command(*engine.initial_state(sc), sc.mode, sc.params, sc.cfg)[1]
        report = validate_grid(grid, sc.cfg)
    else:
        if path.suffix == ".json":
            heights, w, l_, stroke = sio.load_grid_file(path)
        elif path.suffix == ".csv":
            if args.cell_width is None or args.cell_length is None or args.stroke is None:
                raise sio.ScenarioError(
                    "raw CSV grids need --cell-width, --cell-length and --stroke"
                )
            heights = sio.read_heights_csv(path)
            w, l_, stroke = args.cell_width, args.cell_length, args.stroke
        else:
            raise sio.ScenarioError(f"cannot validate {path}: expected .json or .csv")
        cfg = SurfaceConfig(
            n=heights.shape[0] - 1, m=heights.shape[1] - 1,
            W=w, L=l_, stroke=stroke, ref_col=1, ref_row=1,
        )
        report = validate_grid(heights, cfg)
    print(report.summary())
    return EXIT_OK if report.ok else EXIT_UNSETTLED


if __name__ == "__main__":
    sys.exit(main())
