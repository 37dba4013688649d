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
        "d7aac1db93f5b9b725d953475dca48de48717830c418a62f3e1b33358f018002",
    ),
}

# paper-s5x6 with lagging actuators (tau 0.3 s) and the per-tick hardware
# split: the actual grid, and so the field, changes on every tick.
LAGGED = {
    "wave": (
        "7e4402dd92243b949c69084ffaa849ac1186af7a9bd36944738712ef4cd74866",
        "72dd5ee792681bc8bb894ffef59d150de457f056e04cdf810dd4aa0b4aa51081",
    ),
    "distributed": (
        "40a87e0da197aee6ab7b8cd850f425d9b20a6d8758d548490dc5c218804894e7",
        "f0310f322ef878f3cdf0b9832e1eb42a0de0949e8e49b97ca7a01101abc5d9ef",
    ),
}

# paper-s5x6 in the other two multi-cell modes, which the canned wave run
# does not reach.
MODES = {
    "distributed": (
        "8f431bd05198e0cce8007ed87605b54950be6df2ebf54084cdabf5c18cc09209",
        "0cfc30c72531f6d1605e65865085d7c2f0e2fae56f0ee21f44cadce604c9d111",
    ),
    "funnel": (
        "91907211a69535d6cee92bb1e79d749723b8ccf2f92d0382890e96984f293696",
        "597e94469d24c5cc4ca215bd7ea11953313c9eab51623ca0151cdfd30f42f1fb",
    ),
}

# 200 seeded objects on a 12x12 surface with lagging actuators (tau 0.5 s),
# wave mode: many cell crossings and wall approaches per tick.
CROWD = (
    "ca8233038e0703e2a7803be78d90e24e11f77ccc7c14ab06fa8a5036c096307c",
    "92b266b3fa7a65b17b1f4c43f5a35091887d92c1a4d7c9dfcf05cacc3b227301",
)

# The same crowd under distributed allocation.
CROWD_DISTRIBUTED = (
    "89ad29e05c92a3c47a054f02658ce1fceb97239501deedd0b953bd16a879cfb3",
    "61d29d2ca4f15610759f0fe6ce8b847ca409a1420d6422cd55052d2e4a5ed6e5",
)

# One object on a 1x1 surface in single_cell mode without gains (the law at
# its capped gains), with lagging actuators (tau 0.2 s).
SINGLE_CELL = (
    "23b1603282d368f0b61ae963770d21319ef23fdc9dfe673cef0846109bcc9437",
    "e5de8c930f729869b60a46fe374fb896ff2dc1f80d5900697aed8ba190da8271",
)

# The outcome of each run above whose hashes were re-pinned when the field
# build changed its last bits: (trace rows, converged, convergence_time,
# SHA-256 of the arrival_times JSON list).  A re-pin that moves only last
# bits leaves these as they are.
OUTCOMES = {
    "lagged wave": (1263, True, 97.30000000000001,
                    "eaafeaef3c45a47d95a884e61e2e79d68d38eb82dfd6cff3eb8ef6a5c2009969"),
    "lagged distributed": (1516, True, 128.4,
                           "f0cb1e2933e4429b47f60793bd1638b35dcfc59952edf5bce54c1fd11a567eab"),
    "mode distributed": (1930, True, 140.0,
                         "7c595376de42cb68023887199b31403b1763da2b53097bbbb9c9faa297d41283"),
    "mode funnel": (2494, True, 210.3,
                    "3681c8466ebb1a56fc0023bd0bfa39f1b3ada3b3125aad8e8ebd062f0d1c13ff"),
    "crowd wave": (1558, True, 149.6,
                   "32a8ebe4441213686830ae8e143719b3caf74a92e9eece9b6a490c9d113b3d24"),
    "crowd distributed": (2514, True, 196.60000000000002,
                          "0d3a7caf28a8e0d6037855f6aa6c822c9a39e21e414e62e1b730cad8f54d0125"),
    "single_cell": (89, True, 0.0,
                    "37aed087d1cfac1ac1185c1622819ee5100567b178df43d6c00e8a7db4bc244b"),
}

# paper-s1x10 in the two modes that tilt all 9 rows below the reference:
# their height sums span 8 or more drops, whose last bits depend on the
# summation order, so only the outcome is pinned: (trace rows, converged,
# convergence_time, SHA-256 of the arrival_times and of the path_lengths
# JSON lists).
S1X10 = {
    "distributed": (4109, True, 357.90000000000003,
                    "50ba240458dd9e7ba0d3519e2fbc2c5b1c636ee18d7f37b8b46860e945c207b4",
                    "dd9f8a006bf10618724b30ccc16a2d13b5c5dae53d2508589a526733e44c8191"),
    "funnel": (6676, True, 634.4000000000001,
               "70e75cb187e249b56a81c56c85ff5e5abb9d2bec4a5a401ff38a146ce4ea13d1",
               "7e43b1b9ab0fb5c261df1978bb83d06128307d0bbdec0aae3a467e2f904ea961"),
}

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


def outcome(out: Path) -> tuple[int, bool, float | None, str]:
    """The OUTCOMES entry of the run whose files are in ``out``."""
    with open(out / "trace.csv") as fh:
        rows = sum(1 for _ in fh) - 1  # less the header
    metrics = json.loads((out / "metrics.json").read_text())
    arrivals = sha256(json.dumps(metrics["arrival_times"]).encode())
    return rows, metrics["converged"], metrics["convergence_time"], arrivals


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
    hashes = run_hashes(path, tmp_path / "out")
    assert outcome(tmp_path / "out") == OUTCOMES[f"lagged {mode}"]
    assert hashes == LAGGED[mode]


@pytest.mark.parametrize("mode", sorted(MODES))
def test_mode_run(mode, tmp_path):
    path = s5x6_scenario(tmp_path, mode, lagged=False)
    hashes = run_hashes(path, tmp_path / "out")
    assert outcome(tmp_path / "out") == OUTCOMES[f"mode {mode}"]
    assert hashes == MODES[mode]


@pytest.mark.parametrize("mode", sorted(S1X10))
def test_s1x10_outcome(mode, tmp_path):
    doc = json.loads((SCENARIOS / "paper-s1x10.json").read_text())
    doc["control"]["mode"] = mode
    path = tmp_path / f"s1x10-{mode}.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
    paths = json.loads((out / "metrics.json").read_text())["path_lengths"]
    assert outcome(out) + (sha256(json.dumps(paths).encode()),) == S1X10[mode]


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
    hashes = run_hashes(path, tmp_path / "out")
    assert outcome(tmp_path / "out") == OUTCOMES[f"crowd {mode}"]
    return hashes


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
    hashes = run_hashes(path, tmp_path / "out")
    assert outcome(tmp_path / "out") == OUTCOMES["single_cell"]
    assert hashes == SINGLE_CELL


def test_compare_summary(tmp_path):
    out = tmp_path / "out"
    argv = ["compare", str(SCENARIOS / "paper-s5x6.json"), "--seeds", "1..2", "-o", str(out)]
    assert main(argv) == EXIT_OK
    assert sha256((out / "summary.json").read_bytes()) == SUMMARY


def test_compare_loads_the_scenario_once_per_mode(tmp_path, monkeypatch):
    # each mode's seeds are variants of one load (dataclasses.replace), with
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
