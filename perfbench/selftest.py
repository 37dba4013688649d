#!/usr/bin/env python3
"""Shows that each output check rejects a corrupted output.

    python3 perfbench/selftest.py

Run it from the repository root.  It makes clean outputs with the program
(`morphsurf run` on scenarios/uturn.json twice, `morphsurf compare` on
scenarios/paper-s5x6.json for seed 1), requires every check to pass on them,
then corrupts one thing at a time and requires the check it targets to reject
the result.  Prints one line per corruption; exits 0 when every corruption
is caught.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import run  # noqa: E402


def edit_csv(src: Path, dst: Path, row: int, column: str, change) -> None:
    """Copy trace.csv with one value of data row `row` changed."""
    lines = src.read_text().splitlines(keepends=True)
    k = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[k] = repr(change(float(cells[k])))
    lines[row + 1] = ",".join(cells) + "\n"
    dst.write_text("".join(lines))


def main() -> int:
    program = run.load_program()
    out = run.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    scenario = run.SCENARIOS / "uturn.json"
    for name in ("a", "b"):
        if program["cli"].main(["run", str(scenario), "-o", str(out / name)]) != 0:
            print("FAIL uturn did not converge")
            return 1
    sc = checks.Scene.from_doc(json.loads(scenario.read_text()))
    trace_csv = out / "a" / "trace.csv"
    metrics = checks.read_metrics(out / "a" / "metrics.json")
    clean = checks.Trace.from_csv(trace_csv, sc.n, sc.m)

    cmp_out = out / "compare"
    wl = run.Compare(program, run.SCENARIOS / "paper-s5x6.json", [1])
    kept: list = []
    wl.round(cmp_out, run.run_timer(program["engine"]), kept)
    cmp_fails, _ = wl.verify(cmp_out, kept)
    conv = {m: checks.read_metrics(cmp_out / f"metrics-{m}.json")[0]["convergence_time"]
            for m in run.MODES}

    def run_checks(tr=clean, md=metrics):
        return checks.check_run("uturn", tr, sc, md)

    def bytes_of(name):
        return (out / name / "trace.csv").read_bytes()

    baseline = (run_checks() + cmp_fails + checks.check_ranking("seed 1", conv)
                + checks.check_identical("uturn", [bytes_of("a"), bytes_of("b")]))
    if baseline:
        print("FAIL clean outputs do not pass:", *baseline, sep="\n  ")
        return 1
    print("clean outputs pass every check")

    k = checks.sampled_periods(clean)[len(checks.sampled_periods(clean)) // 2]
    ref_row = sc.ref_at(clean.t[k])[1]
    bad = out / "bad.csv"

    def with_csv(row, column, change):
        def make():
            edit_csv(trace_csv, bad, row, column, change)
            return run_checks(tr=checks.Trace.from_csv(bad, sc.n, sc.m))
        return make

    def with_metrics(change):
        def make():
            md = copy.deepcopy(metrics)
            change(md)
            return run_checks(md=md)
        return make

    def swapped_modes():
        return checks.check_ranking("seed 1", {**conv, "wave": conv["distributed"],
                                               "distributed": conv["wave"]})

    def flipped_byte():
        edit_csv(trace_csv, bad, k, "obj1.vx", lambda v: v + 1e-15)
        return checks.check_identical("uturn", [bytes_of("a"), bad.read_bytes()])

    corruptions = [
        ("one position nudged by 1 um", "reintegrate", with_csv(k + 1, "obj1.x", lambda v: v + 1e-6)),
        ("one arrival time moved", "arrival",
         with_metrics(lambda md: md["arrival_times"].__setitem__(0, md["arrival_times"][0] + 0.1))),
        ("convergence time moved", "convergence",
         with_metrics(lambda md: md.__setitem__("convergence_time", md["convergence_time"] + 0.1))),
        ("path length scaled by 1.001", "path",
         with_metrics(lambda md: md["path_lengths"].__setitem__(0, md["path_lengths"][0] * 1.001))),
        ("path shorter than the way to the reference", "distance",
         with_metrics(lambda md: md["path_lengths"].__setitem__(0, 0.5))),
        ("run reported unconverged", "converged",
         with_metrics(lambda md: md.__setitem__("converged", False))),
        ("actuator above the stroke", "height", with_csv(k, "za_i[2]", lambda v: v + 2 * sc.stroke)),
        ("reference cell tilted", "level", with_csv(k, f"za_j[{ref_row}]", lambda v: v + 0.01)),
        ("object outside the workspace", "workspace", with_csv(k, "obj1.y", lambda v: -0.5)),
        ("two modes swapped", "ranking", swapped_modes),
        ("rerun trace differs in one digit", "identical", flipped_byte),
    ]
    missed = 0
    for what, tag, make in corruptions:
        hits = [f for f in make() if f": {tag}:" in f]
        missed += not hits
        print(f"{'caught' if hits else 'MISSED'} {what}: {hits[0] if hits else 'no ' + tag + ' failure'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
