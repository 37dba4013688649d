"""Golden outputs: SHA-256 hashes of the files `morphsurf run` and
`morphsurf compare` write.

A change that only speeds the program up must leave every hash as it is.
A change that alters the arithmetic on purpose re-pins the hashes and says
why.  `metrics.json` is hashed without its `wall_clock` entry, as canonical
JSON with sorted keys.
"""

import hashlib
import json
from pathlib import Path

import pytest

from morphsurf import scenario as sio
from morphsurf.cli import EXIT_OK, EXIT_UNSETTLED, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (trace.csv, metrics.json without wall_clock) per canned scenario.
CANNED = {
    "paper-s1x10": (
        "571ad9c55b70dfc55a73a179dc0490dcdbbf10f3d2a5ec2284b75b72e4dc773d",
        "ab6a1b46fdceda469436d8bc57f5f896c8eb26178f866d7629124d700b54861c",
    ),
    "paper-s5x6": (
        "29d2af4e05cd589984b82c1849762aaac4afd37173e8f7d90c2ece99782ae16f",
        "afcbebdc188c5f57376ac5470b72193a9d14bb931d6b0390be70cb566e674c7f",
    ),
    "uturn": (
        "1122d055e053592bb8722d4d464e89145ca13e4c9b73b7e41f6197956c3e2002",
        "450d8fb8d62beb1ddce84b7d9280b4aadd7a9a03710fe53127e4b8144f23bca6",
    ),
}

# paper-s5x6 with lagging actuators (tau 0.3 s) and the per-tick hardware
# split: the actual grid, and so the field, changes on every tick.
LAGGED = {
    "wave": (
        "c9431930f3e55e030cd27e599136f9292a662f79433f362d4c3a7cf77383ec18",
        "72dd5ee792681bc8bb894ffef59d150de457f056e04cdf810dd4aa0b4aa51081",
    ),
    "distributed": (
        "d7a52fbd15980294fcf1ccac4ba0df0b2663181e9431eab4f526fc33cc1f3599",
        "f0310f322ef878f3cdf0b9832e1eb42a0de0949e8e49b97ca7a01101abc5d9ef",
    ),
}

# paper-s5x6 in the other two multi-cell modes, which the canned wave run
# does not reach.
MODES = {
    "distributed": (
        "422ef87c1f92f621d1f744c8207a8f283e05ac813bd470d96a062643c705182f",
        "fddb3c32e2975828eaee9fcb5624f1a30166ee9a883f17644576a69f9293db23",
    ),
    "funnel": (
        "dac6db8222aa5222c68cec5d45900a7fd70c85fb74f08b922828c35af483fde0",
        "323f14161aa0d47a608215c97507985af4beb55325aef4d2015849018537aeac",
    ),
}

# 200 seeded objects on a 12x12 surface with lagging actuators (tau 0.5 s),
# wave mode: many cell crossings and wall approaches per tick.
CROWD = (
    "7a6988b0ac163eb27caf32e7e3756a68d5c81396c5cbb64cb2f99f4c2f2c954c",
    "7b5893d2064513f7ce1c41aa7a801b5c1f03c608b944ba6a76349aedd889bffb",
)

# The same crowd under distributed allocation.
CROWD_DISTRIBUTED = (
    "ef2cc235fcb7b0cea1fb57f7cafb5c171935962de9929dfd2704bca63dee3a68",
    "503b60914a37b41d4a414a2736cf1caef005167d2e5b347f985f498bf004d7f0",
)

# One object on a 1x1 surface in single_cell mode without gains (the law at
# its capped gains), with lagging actuators (tau 0.2 s).
SINGLE_CELL = (
    "a83a133b4c85e9e43bafcbc49e49e9ba7c18e841bc9ee38b23f39fbf6e647d86",
    "a0de5be89d3694ed0849a10614943e4d6f14b1c9cd58a4a2c79962714b035336",
)

# summary.json of `compare` on paper-s5x6, three modes, seeds 1..2.
SUMMARY = "b21348f49f66caa57cdb2eaeec077d5c582d2bcffc2bb6432bb7688e9da735a9"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_hashes(path: Path, out: Path) -> tuple[str, str]:
    assert main(["run", str(path), "-o", str(out)]) in (EXIT_OK, EXIT_UNSETTLED)
    metrics = json.loads((out / "metrics.json").read_text())
    del metrics["wall_clock"]
    return (
        sha256((out / "trace.csv").read_bytes()),
        sha256(json.dumps(metrics, sort_keys=True).encode()),
    )


def s5x6_scenario(tmp_path: Path, mode: str, lagged: bool) -> Path:
    doc = json.loads((SCENARIOS / "paper-s5x6.json").read_text())
    doc["control"]["mode"] = mode
    if lagged:
        doc["physics"]["tau"] = 0.3
        doc["control"]["hardware_split"] = True
    path = tmp_path / f"s5x6-{mode}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_run(name, tmp_path):
    assert run_hashes(SCENARIOS / f"{name}.json", tmp_path / "out") == CANNED[name]


@pytest.mark.parametrize("mode", sorted(LAGGED))
def test_lagged_hardware_split_run(mode, tmp_path):
    path = s5x6_scenario(tmp_path, mode, lagged=True)
    assert run_hashes(path, tmp_path / "out") == LAGGED[mode]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_run(mode, tmp_path):
    path = s5x6_scenario(tmp_path, mode, lagged=False)
    assert run_hashes(path, tmp_path / "out") == MODES[mode]


def crowd_hashes(tmp_path: Path, mode: str) -> tuple[str, str]:
    doc = {
        "surface": {"n": 12, "m": 12, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [6, 6]},
        "physics": {"g": 0.0981, "b": 0.1, "tau": 0.5, "dt": 0.01},
        "control": {"mode": mode, "a": 0.5, "b": 0.5, "rate": 10.0},
        "objects_random": {"count": 200, "seed": 5},
        "t_max": 1200.0,
    }
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(doc))
    return run_hashes(path, tmp_path / "out")


def test_crowd_run(tmp_path):
    assert crowd_hashes(tmp_path, "wave") == CROWD


def test_crowd_distributed_run(tmp_path):
    assert crowd_hashes(tmp_path, "distributed") == CROWD_DISTRIBUTED


def test_single_cell_run(tmp_path):
    doc = {
        "surface": {"n": 1, "m": 1, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [1, 1]},
        "physics": {"g": 9.81, "b": 0.1, "tau": 0.2, "dt": 0.001},
        "control": {"mode": "single_cell", "rate": 10.0},
        "objects": [{"x": 0.2, "y": 1.7, "vx": 0.3}],
        "t_max": 120.0,
    }
    path = tmp_path / "single-cell.json"
    path.write_text(json.dumps(doc))
    assert run_hashes(path, tmp_path / "out") == SINGLE_CELL


def test_compare_summary(tmp_path):
    out = tmp_path / "out"
    argv = ["compare", str(SCENARIOS / "paper-s5x6.json"), "--seeds", "1..2", "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert sha256((out / "summary.json").read_bytes()) == SUMMARY


def test_compare_loads_the_scenario_once_per_mode(tmp_path, monkeypatch):
    # each mode's seeds are variants of one load (engine.seed_sweep), with
    # the summary of one load per mode and seed
    loads = []
    load = sio.load_scenario

    def counted(*args, **kwargs):
        loads.append(kwargs.get("mode"))
        return load(*args, **kwargs)

    monkeypatch.setattr(sio, "load_scenario", counted)
    out = tmp_path / "out"
    argv = ["compare", str(SCENARIOS / "paper-s5x6.json"), "--seeds", "1..2", "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert loads == ["wave", "distributed", "funnel"]
    assert sha256((out / "summary.json").read_bytes()) == SUMMARY
