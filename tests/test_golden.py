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

# 200 seeded objects on a 12x12 surface with lagging actuators (tau 0.5 s),
# wave mode: many cell crossings and wall approaches per tick.
CROWD = (
    "7a6988b0ac163eb27caf32e7e3756a68d5c81396c5cbb64cb2f99f4c2f2c954c",
    "7b5893d2064513f7ce1c41aa7a801b5c1f03c608b944ba6a76349aedd889bffb",
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


def lagged_scenario(tmp_path: Path, mode: str) -> Path:
    doc = json.loads((SCENARIOS / "paper-s5x6.json").read_text())
    doc["physics"]["tau"] = 0.3
    doc["control"]["mode"] = mode
    doc["control"]["hardware_split"] = True
    path = tmp_path / f"lagged-{mode}.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("name", sorted(CANNED))
def test_canned_run(name, tmp_path):
    assert run_hashes(SCENARIOS / f"{name}.json", tmp_path / "out") == CANNED[name]


@pytest.mark.parametrize("mode", sorted(LAGGED))
def test_lagged_hardware_split_run(mode, tmp_path):
    path = lagged_scenario(tmp_path, mode)
    assert run_hashes(path, tmp_path / "out") == LAGGED[mode]


def test_crowd_run(tmp_path):
    doc = {
        "surface": {"n": 12, "m": 12, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [6, 6]},
        "physics": {"g": 0.0981, "b": 0.1, "tau": 0.5, "dt": 0.01},
        "control": {"mode": "wave", "a": 0.5, "b": 0.5, "rate": 10.0},
        "objects_random": {"count": 200, "seed": 5},
        "t_max": 1200.0,
    }
    path = tmp_path / "crowd.json"
    path.write_text(json.dumps(doc))
    assert run_hashes(path, tmp_path / "out") == CROWD


def test_compare_summary(tmp_path):
    out = tmp_path / "out"
    argv = ["compare", str(SCENARIOS / "paper-s5x6.json"), "--seeds", "1..2", "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert sha256((out / "summary.json").read_bytes()) == SUMMARY
