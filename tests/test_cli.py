import concurrent.futures
import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from morphsurf import cli, engine, scenario as sio
from morphsurf.cli import EXIT_INVALID, EXIT_OK, EXIT_UNSETTLED, main
from morphsurf.control import ControllerParams, SingleCellGains
from morphsurf.dynamics import ObjectState, PhysicsParams
from morphsurf.engine import Scenario, compute_metrics, run
from morphsurf.surface import SurfaceConfig, validate_grid

from conftest import inline_pool, trace_of_fields, write_trace_csv_reference

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def uturn(tmp_path, **edits):
    """scenarios/uturn.json with each top-level key of ``edits`` replaced,
    or, for a dict, updated key by key."""
    doc = json.loads((SCENARIOS / "uturn.json").read_text())
    for key, value in edits.items():
        doc[key] = {**doc[key], **value} if isinstance(value, dict) else value
    path = tmp_path / "uturn.json"
    path.write_text(json.dumps(doc))
    return path


def tiny_scenario(tmp_path, **overrides):
    doc = {
        "surface": {"n": 3, "m": 2, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [2, 1]},
        "physics": {"g": 0.0981, "b": 0.1, "tau": 0.0, "dt": 0.005},
        "control": {"mode": "wave", "a": 0.5, "b": 0.5, "rate": 10.0},
        "objects": [{"x": 1.0, "y": 3.0}, {"x": 5.0, "y": 1.0}],
        "t_max": 200.0,
    }
    doc.update(overrides)
    doc = {k: v for k, v in doc.items() if v is not None}  # None drops a key
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return path


class TestRunCommand:
    def test_converging_run_exits_zero(self, tmp_path):
        path = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        assert (out / "trace.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["converged"] is True
        assert metrics["convergence_time"] is not None

    def test_bad_fraction_sum_exits_one(self, tmp_path, capsys):
        path = tiny_scenario(
            tmp_path,
            control={"mode": "wave", "a": 0.7, "b": 0.5, "rate": 10.0},
        )
        code = main(["run", str(path), "-o", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "a + b" in capsys.readouterr().err

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        path = tiny_scenario(tmp_path, turbo=True)
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_INVALID
        assert "turbo" in capsys.readouterr().err

    def test_empty_object_list_exits_one(self, tmp_path, capsys):
        path = tiny_scenario(tmp_path, objects=[])
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_INVALID
        assert "at least one object" in capsys.readouterr().err
        assert not (tmp_path / "out" / "trace.csv").exists()

    def test_timeout_exits_two(self, tmp_path):
        path = tiny_scenario(tmp_path, t_max=0.5)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_UNSETTLED
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["converged"] is False


NAN, INF = float("nan"), float("inf")
SURFACE = {"n": 3, "m": 2, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [2, 1]}
PHYSICS = {"g": 0.0981, "b": 0.1, "tau": 0.0, "dt": 0.005}
CELL = {"n": 1, "m": 1, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [1, 1]}  # gains capped at 0.25


class TestHostileInput:
    """Each input is refused when it is loaded, with exit 1 and the field
    named, before any output is written."""

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"surface": {**SURFACE, "W": NAN}}, "surface.W"),
            ({"physics": {**PHYSICS, "g": INF}}, "physics.g"),
            ({"objects": [{"x": 1.0, "y": 3.0, "vx": NAN}]}, "objects[0].vx"),
            ({"objects": [{"x": 1.0, "y": 3.0, "vy": -INF}]}, "objects[0].vy"),
            ({"objects": [{"x": 1.0, "y": 3.0}, {"x": -1.0, "y": 1.0}]}, "objects[1]"),
            # the first float past each wall of the [0, 6] x [0, 4] workspace
            ({"objects": [{"x": 1.0, "y": 3.0}, {"x": math.nextafter(0.0, -INF), "y": 1.0}]},
             "objects[1]"),
            ({"objects": [{"x": math.nextafter(6.0, INF), "y": 1.0}]}, "objects[0]"),
            ({"objects": [{"x": 1.0, "y": math.nextafter(4.0, INF)}]}, "objects[0]"),
            ({"reference_schedule": [[0.5, 99, 99]]}, "reference_schedule"),
            ({"reference_schedule": [[-1.0, 1, 1]]}, "reference_schedule"),
            ({"reference_schedule": [[0.5, INF, 1]]}, "reference_schedule[0] column"),
            ({"t_max": NAN}, "t_max"),
            ({"surface": {**SURFACE, "n": 2.7}}, "surface.n"),
            ({"surface": {**SURFACE, "ref": [1.9, 1]}}, "surface.ref[0]"),
            ({"objects": None, "objects_random": {"count": 2.5, "seed": 1}},
             "objects_random.count"),
            ({"reference_schedule": [[0.5, 1.5, 1]]}, "reference_schedule[0] column"),
            ({"objects": [{"x": 1.0, "y": 3.0, "mass": 1.0}]}, "objects[0].mass"),
            ({"control": {"mode": "wave", "hardware_split": "yes"}}, "control.hardware_split"),
            ({"seed": True}, "seed"),
            ({"t_max": 10**400}, "t_max"),
            ({"physics": {**PHYSICS, "b": 300.0, "dt": 0.01}}, "physics.b"),
            ({"objects": None, "objects_random": {"count": 2, "seed": 2.5}},
             "objects_random.seed"),
            ({"objects": None, "objects_random": {"count": 20, "seed": -3}},
             "objects_random.seed"),
            ({"control": {"mode": "single_cell", "rate": 10.0}}, "control.mode"),
            ({"surface": CELL, "objects": [{"x": 1.0, "y": 1.0}],
              "control": {"mode": "single_cell", "rate": 10.0, "gains": {"kx": 5.0, "ky": 0.25}}},
             "control.gains.kx"),
            ({"control": {"mode": "wave", "rate": 0}}, "control.rate"),
            ({"t_max": -1}, "t_max"),
            ({"surface": {**SURFACE, "W": -1}}, "surface.W"),
            ({"surface": {**SURFACE, "n": 0}}, "surface.n"),
            ({"physics": {**PHYSICS, "tau": -1}}, "physics.tau"),
            ({"physics": {**PHYSICS, "dt": 0.003}}, "physics.dt"),
            ({"control": {"mode": "wave", "a": 0.7}}, "control.a"),
            ({"control": {"mode": "bogus"}}, "control.mode"),
            ({"objects": [{"x": 1.0, "y": 3.0, "vx": 3e19}]}, "objects[0].vx"),
            ({"physics": {**PHYSICS, "g": 1e50}}, "physics.g"),
            ({"surface": {**SURFACE, "W": 1e-160, "L": 1e-160},
              "objects": [{"x": 1e-160, "y": 1e-160}]}, "surface.W"),
            # the single-cell law saturates at the cell size: no bound of its own
            ({"surface": CELL, "objects": [{"x": 1.0, "y": 1.0}],
              "control": {"mode": "single_cell", "rate": 10.0,
                          "gains": {"kx": 0.25, "ky": 0.25, "sat_x": 100.0}}},
             "control.gains.sat_x"),
            ({"surface": CELL, "objects": [{"x": 1.0, "y": 1.0}],
              "control": {"mode": "single_cell", "rate": 10.0,
                          "gains": {"kx": 0.25, "ky": 0.25, "sat_y": None}}},
             "control.gains.sat_y"),
            ({"reference_schedule": "x"}, "reference_schedule must be a list"),
            ({"reference_schedule": {"a": 1}}, "reference_schedule must be a list"),
            ({"reference_schedule": [[0.5, 1]]}, "reference_schedule[0] must be [time, column"),
            ({"reference_schedule": [5]}, "reference_schedule[0] must be [time, column"),
            # a workspace extent or a speed above 2**500 could overflow when squared
            ({"surface": {**SURFACE, "W": 1e160, "L": 1e160},
              "objects": [{"x": 1.0, "y": 1.0, "vx": 1e157}]}, "surface.W"),
            ({"surface": {**SURFACE, "L": 2e150}}, "surface.L"),
            ({"surface": {**SURFACE, "W": 1e150, "L": 1e150},
              "objects": [{"x": 1.0, "y": 1.0, "vx": 1e157}]}, "objects[0].vx"),
            ({"surface": {**SURFACE, "W": 1e150, "L": 1e150},
              "objects": [{"x": 1.0, "y": 1.0, "vy": -4e150}]}, "objects[0].vy"),
            ({"surface": {**SURFACE, "W": 1e150, "L": 1e150}, "physics": {**PHYSICS, "g": 1e150},
              "objects": [{"x": 1.0, "y": 1.0}]}, "physics.g"),
        ],
    )
    def test_refused_at_load(self, tmp_path, capsys, overrides, field):
        path = tiny_scenario(tmp_path, **overrides)
        with pytest.raises(sio.ScenarioError, match=field.replace("[", r"\[")):
            sio.load_scenario(path)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_INVALID
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_an_object_on_the_far_corner_loads(self, tmp_path, capsys):
        # the walls belong to the workspace, the far corner (n W, m L) too
        path = tiny_scenario(tmp_path, objects=[{"x": 6.0, "y": 4.0}])
        assert sio.load_scenario(path).objects == (ObjectState(6.0, 4.0),)
        assert main(["validate", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "grid feasible: no violations\n"

    def test_extents_and_speeds_just_under_2_500_run_cleanly(self, tmp_path):
        # 3x2 cells of 1e150 m and speeds of 3e150 m/s on both axes: every
        # square the engine forms stays finite, with RuntimeWarnings errors
        path = tiny_scenario(tmp_path, surface={**SURFACE, "W": 1e150, "L": 1e150},
                             objects=[{"x": 1e150, "y": 1e150, "vx": 3e150, "vy": -3e150}],
                             t_max=5.0)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_UNSETTLED
        text = (out / "metrics.json").read_text()
        assert "Infinity" not in text and "NaN" not in text
        assert json.loads(text)["path_lengths"][0] > 0.0

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({}, "control.mode"),
            ({"surface": CELL, "objects": [{"x": 1.0, "y": 1.0}],
              "control": {"mode": "wave", "rate": 10.0, "gains": {"kx": 5.0, "ky": 0.25}}},
             "control.gains.kx"),
        ],
    )
    def test_compare_refuses_a_mode_at_load(self, tmp_path, capsys, overrides, field):
        path = tiny_scenario(tmp_path, **overrides)
        out = tmp_path / "cmp"
        argv = ["compare", str(path), "--modes", "wave,single_cell", "-o", str(out)]
        assert main(argv) == EXIT_INVALID
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_compare_names_a_bad_seed_listing(self, tmp_path, capsys):
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": 2, "seed": 1})
        out = tmp_path / "cmp"
        argv = ["compare", str(path), "--seeds", "1..x", "-o", str(out)]
        assert main(argv) == EXIT_INVALID
        assert "--seeds '1..x'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "validate", "compare"])
    def test_an_impossible_object_count_is_refused_at_load(self, tmp_path, capsys, command):
        # 10**13 objects' states alone would take 320 TB: refused before
        # anything is allocated
        path = tiny_scenario(tmp_path, objects=None,
                             objects_random={"count": 10**13, "seed": 1})
        out = tmp_path / "out"
        argv = {"run": ["run", str(path), "-o", str(out)],
                "validate": ["validate", str(path)],
                "compare": ["compare", str(path), "-o", str(out)]}[command]
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert "objects_random.count" in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_the_object_bound_fits_one_trace_row_in_the_reserve(self, tmp_path):
        # 32 bytes of state per object: 2**23 objects fill the 256 MB reserve
        assert engine.MAX_OBJECTS * 32 == engine._TRACE_RESERVE == 2**28
        most = engine.MAX_OBJECTS
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": most, "seed": 1})
        assert sio.load_scenario(path).random_count == most
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": most + 1, "seed": 1})
        with pytest.raises(sio.ScenarioError, match="objects_random.count"):
            sio.load_scenario(path)

    @pytest.mark.parametrize("command", ["run", "validate", "compare"])
    @pytest.mark.parametrize("overrides, field", [
        ({"t_max": 1e308}, "t_max"),  # 1e309 ticks at 10 Hz: not a number of ticks
        ({"surface": {**SURFACE, "n": 200000, "m": 200000}}, "surface.n"),  # 298 GiB a field
    ])
    def test_an_endless_run_or_an_unholdable_grid_is_refused_at_load(
        self, tmp_path, capsys, overrides, field, command
    ):
        path = tiny_scenario(tmp_path, **overrides)
        out = tmp_path / "out"
        argv = {"run": ["run", str(path), "-o", str(out)],
                "validate": ["validate", str(path)],
                "compare": ["compare", str(path), "-o", str(out)]}[command]
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert field in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_the_cell_bound_fits_a_field_build_in_the_reserve(self, tmp_path):
        # 64 bytes a cell: 2**22 cells, a 2048x2048 surface, fill the 256 MB
        # reserve; checked at load only
        assert engine.MAX_CELLS * 64 == engine._TRACE_RESERVE == 2**28
        path = tiny_scenario(tmp_path, surface={**SURFACE, "n": 2048, "m": 2048})
        assert sio.load_scenario(path).cfg.n * 2048 == engine.MAX_CELLS
        path = tiny_scenario(tmp_path, surface={**SURFACE, "n": 2048, "m": 2049})
        with pytest.raises(sio.ScenarioError, match="surface.n"):
            sio.load_scenario(path)

    def test_a_tiny_dt_is_refused_at_once(self, tmp_path, capsys):
        # 1e299 substeps per tick: refused by the substep bound, not run
        path = uturn(tmp_path, physics={"dt": 1e-300})
        out = tmp_path / "out"
        start = time.perf_counter()
        assert main(["run", str(path), "-o", str(out)]) == EXIT_INVALID
        assert time.perf_counter() - start < 1.0
        assert "physics.dt" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["vx", "g"])
    def test_speeds_and_gravities_are_refused_or_stay_inside(self, tmp_path, key):
        # every power of ten from 1 to 1e300, as an initial speed or as the
        # gravity: refused at load, or run with every row in the workspace
        ran = 0
        for k in range(301):
            edit = ({"objects": [{"x": 1.0, "y": 3.0, "vx": 10.0**k}]} if key == "vx"
                    else {"physics": {"g": 10.0**k}})
            try:
                sc = sio.load_scenario(uturn(tmp_path, t_max=5.0, **edit))
            except sio.ScenarioError:
                continue
            states = run(sc)[0].states
            assert (states[:, :, 0] >= 0).all() and (states[:, :, 0] <= sc.cfg.width).all()
            assert (states[:, :, 1] >= 0).all() and (states[:, :, 1] <= sc.cfg.length).all()
            ran += 1
        assert 10 < ran < 301

    def test_an_unbounded_t_max_runs_and_settles(self, tmp_path):
        doc = json.loads((SCENARIOS / "paper-s5x6.json").read_text())
        doc["t_max"] = 1e300
        path = tmp_path / "forever.json"
        path.write_text(json.dumps(doc))
        assert main(["run", str(path), "-o", str(tmp_path / "out")]) == EXIT_OK


def scenarios():
    """Scenarios as the loader builds them, settle speed left at its default."""

    @st.composite
    def build(draw):
        size = st.floats(0.1, 5.0)
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        cfg = SurfaceConfig(
            n, m, draw(size), draw(size), draw(size),
            draw(st.integers(1, n)), draw(st.integers(1, m)),
        )
        a = draw(st.floats(0.0, 1.0))
        share = st.floats(0.01, 1.0)  # of the gain's cap
        gains = draw(st.none() | st.builds(
            SingleCellGains, share.map(lambda f: f * cfg.stroke / (2 * cfg.W)),
            share.map(lambda f: f * cfg.stroke / (2 * cfg.L)),
        ))
        modes = ["wave", "distributed", "funnel"] + (["single_cell"] if n == m == 1 else [])
        seed = draw(st.integers(0, 2**31))
        if draw(st.booleans()):
            objects = tuple(draw(st.lists(st.builds(
                ObjectState,
                st.floats(0.0, cfg.width), st.floats(0.0, cfg.length),
                st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
            ), min_size=1, max_size=4)))
            count = 0
        else:
            objects, count = None, draw(st.integers(1, 50))
        rate = draw(st.sampled_from([1.0, 10.0, 20.0]))
        schedule = sorted(draw(st.lists(st.tuples(
            st.floats(0.0, 100.0), st.integers(1, n), st.integers(1, m),
        ), max_size=3)))
        return Scenario(
            cfg=cfg,
            physics=PhysicsParams(
                draw(st.floats(0.01, 20.0)), draw(st.floats(0.0, 1.0)),
                draw(st.floats(0.0, 2.0)), 0.1 / rate,
            ),
            mode=draw(st.sampled_from(modes)),
            params=ControllerParams(a, 1.0 - a, gains, draw(st.booleans())),
            objects=objects,
            random_count=count,
            control_rate=rate,
            t_max=draw(st.floats(1.0, 1000.0)),
            seed=seed,
            reference_schedule=tuple(schedule),
        )

    return build()


# Leaf values a hostile scenario document may hold: non-finite, huge, tiny
# and negative numbers, and values of every other JSON kind.
HOSTILE = (NAN, INF, -INF, 1e308, -1e308, 2**1000, 5e-324, -1, True, False, None, "x", [1.0],
           {"a": 1.0})


def leaves(node, path=""):
    """(JSON path, container, key) of every leaf of a JSON document, the
    paths written as the loader names fields."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        sub = f"{path}[{key}]" if isinstance(node, list) else f"{path}.{key}" if path else key
        if isinstance(value, (dict, list)):
            yield from leaves(value, sub)
        else:
            yield sub, node, key


def names(path):
    """``path`` and the paths of the entries that hold it, longest first,
    short of a whole top-level section."""
    cuts = [k for k in range(len(path), 0, -1) if path[k : k + 1] in ("", ".", "[")]
    return [path[:k] for k in cuts[: max(1, len(cuts) - 1)]]


@st.composite
def hostile_documents(draw):
    """(document, path, value): the echo of a scenarios() draw with the leaf
    at ``path`` replaced by ``value``, one of HOSTILE."""
    doc = sio.scenario_echo(draw(scenarios()))
    path, node, key = draw(st.sampled_from(list(leaves(doc))))
    node[key] = draw(st.sampled_from(HOSTILE))
    return doc, path, node[key]


class TestHostileDocument:
    @settings(max_examples=200, deadline=None)
    @given(hostile_documents())
    def test_refused_by_name_or_validated(self, tmp_path_factory, case):
        # Each document is refused with exit 1, or it loads and validates.
        # The refusal names the field or an entry holding it.  A finite
        # number may instead break a rule between fields, refused under the
        # field it is checked on: a rate of 1e308 Hz as a t_max of too many
        # ticks, a stroke of 1e308 m as a cell width too small for it.
        doc, field, value = case
        path = tmp_path_factory.mktemp("hostile") / "scenario.json"
        path.write_text(json.dumps(doc))
        try:
            sio.load_scenario(path)
            refusal = None
        except sio.ScenarioError as exc:
            refusal = str(exc)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["validate", str(path)])
        if refusal is None:
            assert code == EXIT_OK
            return
        assert code == EXIT_INVALID and refusal in err.getvalue()
        if not any(name in refusal for name in names(field)):
            assert type(value) in (int, float) and math.isfinite(value), (field, refusal)
            fields = tuple(name for leaf, _, _ in leaves(doc) for name in names(leaf))
            assert refusal.startswith(fields), (field, refusal)


class TestScenarioEcho:
    def test_every_loaded_attribute_has_one_table_row(self):
        rows = Counter((cls, attr) for _, cls, attr in sio.FIELDS + sio.OBJECT_FIELDS)
        assert set(rows.values()) == {1}
        # the loader names a refused field by its attribute name alone
        assert len({attr for _, _, attr in sio.FIELDS}) == len(sio.FIELDS)
        types = (SurfaceConfig, PhysicsParams, ControllerParams, SingleCellGains,
                 ObjectState, Scenario)
        attributes = {(cls, f.name) for cls in types for f in dataclasses.fields(cls)}
        built = {(Scenario, "cfg"), (Scenario, "physics"), (Scenario, "params"),
                 (Scenario, "objects"), (Scenario, "reference_schedule"),
                 (ControllerParams, "gains")}
        assert set(rows) == attributes - built

    @settings(max_examples=200, deadline=None)
    @given(scenarios())
    def test_echo_reloads_as_the_same_scenario(self, sc):
        doc = json.loads(json.dumps(sio.scenario_echo(sc)))
        assert sio.scenario_from_dict(doc) == sc

    def test_seed_argument_overrides_the_echoed_seed(self):
        sc = sio.load_scenario(SCENARIOS / "paper-s5x6.json", seed=4)
        echo = sio.scenario_echo(sc)
        assert sio.scenario_from_dict(echo).seed == 4
        assert sio.scenario_from_dict(echo, seed=9).seed == 9

    def test_conflicting_seeds_are_refused(self):
        doc = sio.scenario_echo(sio.load_scenario(SCENARIOS / "paper-s5x6.json"))
        doc["seed"] = 2
        with pytest.raises(sio.ScenarioError, match="objects_random.seed"):
            sio.scenario_from_dict(doc)

    def test_metrics_keys_are_the_run_metrics_fields_then_the_scenario(self, tmp_path):
        path = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        keys = list(json.loads((out / "metrics.json").read_text()))
        assert keys == [f.name for f in dataclasses.fields(engine.RunMetrics)] + ["scenario"]

    def test_metrics_file_scenario_reloads(self, tmp_path):
        path = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        echoed = json.loads((out / "metrics.json").read_text())["scenario"]
        assert sio.scenario_from_dict(echoed) == sio.load_scenario(path)


class TestSingleCellGains:
    DOC = {
        "surface": {"n": 1, "m": 1, "W": 2.0, "L": 2.0, "l": 1.0, "ref": [1, 1]},
        "control": {"mode": "single_cell", "rate": 10.0,
                    "gains": {"kx": 0.25, "ky": 0.2}},
        "objects": [{"x": 0.2, "y": 1.7}],
    }

    def test_echoed_gains_reload(self):
        # the echo writes both gains, and only them
        sc = sio.scenario_from_dict(self.DOC)
        doc = json.loads(json.dumps(self.DOC))
        doc["control"]["gains"] = sio.scenario_echo(sc)["control"]["gains"]
        assert doc["control"]["gains"] == {"kx": 0.25, "ky": 0.2}
        assert sio.scenario_from_dict(doc).params.gains == sc.params.gains


class TestTraceRoundTrip:
    def test_reparsed_trace_reproduces_metrics_exactly(self, tmp_path):
        path = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "-o", str(out)]) == EXIT_OK
        sc = sio.load_scenario(path)
        reparsed = sio.read_trace_csv(out / "trace.csv")
        metrics = json.loads((out / "metrics.json").read_text())
        recomputed = compute_metrics(reparsed, sc.cfg, settle=sc.control_period)
        assert recomputed == tuple(
            metrics[key] for key in ("convergence_time", "arrival_times", "path_lengths")
        )

    def test_byte_identical_reruns(self, tmp_path):
        path = tiny_scenario(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["run", str(path), "-o", str(out1)])
        main(["run", str(path), "-o", str(out2)])
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_dimensions_are_read_from_the_header(self, tmp_path):
        # a 5x6 trace of 2 objects reads back as one, every field to the bit
        trace = random_trace(np.random.default_rng(3), rows=4, objects=2, n=5, m=6)
        sio.write_trace_csv(trace, tmp_path / "trace.csv")
        back = sio.read_trace_csv(tmp_path / "trace.csv")
        for name in ("t", "states", "dz_col", "dz_row", "col_heights", "row_heights"):
            got, want = getattr(back, name), getattr(trace, name)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("edit, reason", [
        (lambda lines: [lines[0].replace("dz1[5],", "")] + lines[1:], "header"),
        (lambda lines: [lines[0].replace("obj2.vy", "obj2.v")] + lines[1:], "header"),
        (lambda lines: [lines[0].replace("dz1", "dz2")] + lines[1:], "header"),
        (lambda lines: ["t,obj1.x"] + lines[1:], "header"),
        (lambda lines: lines[:2] + [lines[2].rsplit(",", 1)[0]] + lines[3:], "row"),
        (lambda lines: lines[:2] + [lines[2] + ",0"] + lines[3:], "row"),
        (lambda lines: lines[:-1] + [lines[-1].replace(",", ",x,", 1)], "row"),
        (lambda lines: lines + ["1,2"], "row"),
        # a "#" is no comment: a row that holds one, or is one, is refused
        (lambda lines: lines[:2] + [lines[2] + " # note"] + lines[3:], "row"),
        (lambda lines: lines[:2] + ["#" + lines[2]] + lines[3:], "row"),
        (lambda lines: lines + ["# note"], "row"),
        (lambda lines: lines[:1], "no row"),
        (lambda lines: lines[:1] + ["", "  "], "no row"),
        # the 8 object columns of both objects dropped from every line
        (lambda lines: [",".join(line.split(",")[:1] + line.split(",")[9:]) for line in lines],
         "no object"),
    ])
    def test_a_header_or_row_that_does_not_match_is_refused(self, tmp_path, edit, reason):
        trace = random_trace(np.random.default_rng(4), rows=3, objects=2, n=5, m=6)
        path = tmp_path / "trace.csv"
        sio.write_trace_csv(trace, path)
        path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
        with pytest.raises(sio.ScenarioError, match=reason) as exc:
            sio.read_trace_csv(path)
        assert str(path) in str(exc.value)

    def test_reading_holds_about_the_table(self, tmp_path):
        # 200 objects on 12x12, 851 values a row: the rows are parsed into
        # the table, not first into a list of strings and one of floats
        trace = random_trace(np.random.default_rng(5), rows=300, objects=200, n=12, m=12)
        sio.write_trace_csv(trace, tmp_path / "trace.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            back = sio.read_trace_csv(tmp_path / "trace.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert back.table.tobytes() == trace.table.tobytes()
        assert peak < 3 * trace.table.nbytes


def random_trace(rng, rows, objects, n, m):
    """A SimTrace whose every field holds values from 1e-300 to 1e300 in
    size, of either sign, a tenth of them signed zeros."""
    def values(*shape):
        v = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        zero = rng.random(shape) < 0.1
        v[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
        return v

    return trace_of_fields(values(rows), values(rows, objects, 4), values(rows, n),
                           values(rows, m), values(rows, n + 1), values(rows, m + 1))


def csv_peak_bound(width):
    """Most bytes write_trace_csv may hold at once for rows of ``width``
    values: under 96 bytes for each value of a block of at most
    max(_CSV_FLOATS, width) values (its floats as a list and a tuple of
    Python floats, 40 bytes each, its table, repeated format string and
    text, at most 24 characters a float), 8 bytes a column for the line
    format (6 characters a column; the header is written one name at a
    time), plus the file's buffers."""
    return 96 * max(sio._CSV_FLOATS, width) + 8 * width + (1 << 15)


class TestTraceCsv:
    """write_trace_csv formats the trace in blocks of at most _CSV_FLOATS
    values, to the bytes of the row-by-row oracle write_trace_csv_reference."""

    @pytest.mark.parametrize("name", ["paper-s1x10", "paper-s5x6", "uturn"])
    def test_canned_traces_match_the_row_by_row_writer(self, name, tmp_path):
        trace = run(sio.load_scenario(SCENARIOS / f"{name}.json"))[0]
        sio.write_trace_csv(trace, tmp_path / "got.csv")
        write_trace_csv_reference(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_random_traces_match_under_small_blocks(self, block, tmp_path, monkeypatch):
        # _CSV_FLOATS is set so that each trace is written in blocks of
        # ``block`` rows, its floor division included
        rng = np.random.default_rng(block)
        for trial in range(30):
            rows, objects, n, m = (int(rng.integers(1, k)) for k in (40, 6, 5, 5))
            trace = random_trace(rng, rows, objects, n, m)
            width = len(list(sio.trace_header(objects, n, m)))
            monkeypatch.setattr(sio, "_CSV_FLOATS", block * width + trial % width)
            sio.write_trace_csv(trace, tmp_path / "got.csv")
            write_trace_csv_reference(trace, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_writing_copies_one_block_not_the_trace(self, tmp_path, monkeypatch):
        # The bound grows with _CSV_FLOATS and the writer's path does not
        # depend on its value, so each case lowers it, to keep its trace
        # short: 11 values a row in blocks of 93 rows, 131 in blocks of 7
        # rows, and 851 (200 objects) in blocks of one row, as 8051 (2000
        # objects) are under the shipped constant.  Each trace is made so
        # long that its own float64 bytes, 8 a value, are five times the
        # bound, so that a copy of the whole trace cannot pass: 7528, 706
        # and 165 rows, 0.66, 0.74 and 1.1 MB.
        for objects, n, floats in ((1, 1, 1 << 10), (20, 12, 1 << 10), (200, 12, 1 << 9)):
            monkeypatch.setattr(sio, "_CSV_FLOATS", floats)
            width = len(list(sio.trace_header(objects, n, n)))
            rows = 5 * csv_peak_bound(width) // (8 * width) + 1
            rng = np.random.default_rng(floats + objects)
            shapes = ((), (objects, 4), (n,), (n,), (n + 1,), (n + 1,))
            trace = trace_of_fields(*(rng.uniform(0.0, 2.0, (rows, *shape)) for shape in shapes))
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                sio.write_trace_csv(trace, tmp_path / "got.csv")
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= csv_peak_bound(width), (objects, floats)
            write_trace_csv_reference(trace, tmp_path / "want.csv")
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


    def test_a_wide_header_is_written_one_name_at_a_time(self, tmp_path):
        # 2000 objects, 8051 columns, in one-row blocks under the shipped
        # _CSV_FLOATS: a list of the column names and their join took about
        # 136 bytes a column (1.10 MB in all), which csv_peak_bound refuses.
        objects, n, rows = 2000, 12, 3
        width = len(list(sio.trace_header(objects, n, n)))
        assert sio._CSV_FLOATS // width == 1  # one row a block
        rng = np.random.default_rng(2000)
        shapes = ((), (objects, 4), (n,), (n,), (n + 1,), (n + 1,))
        trace = trace_of_fields(*(rng.uniform(0.0, 2.0, (rows, *shape)) for shape in shapes))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            sio.write_trace_csv(trace, tmp_path / "got.csv")
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= csv_peak_bound(width) < 136 * width
        write_trace_csv_reference(trace, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestCompareCommand:
    def test_modes_and_summary(self, tmp_path):
        path = tiny_scenario(
            tmp_path,
            objects_random={"count": 3, "seed": 1},
        )
        # objects and objects_random are mutually exclusive: rebuild the doc
        doc = json.loads(path.read_text())
        del doc["objects"]
        path.write_text(json.dumps(doc))

        out = tmp_path / "cmp"
        code = main([
            "compare", str(path), "--modes", "wave,funnel", "--seeds", "1..2",
            "-o", str(out),
        ])
        assert code == EXIT_OK
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary) == {"wave", "funnel"}
        assert summary["wave"]["seeds"] == [1, 2]
        per_seed = json.loads((out / "metrics-wave.json").read_text())
        assert len(per_seed) == 2

    def test_single_mode_single_seed_matches_run(self, tmp_path):
        doc_path = tiny_scenario(tmp_path, objects_random={"count": 2, "seed": 5})
        doc = json.loads(doc_path.read_text())
        del doc["objects"]
        doc_path.write_text(json.dumps(doc))

        out_cmp = tmp_path / "cmp"
        main(["compare", str(doc_path), "--modes", "wave", "--seeds", "5",
              "-o", str(out_cmp)])
        summary = json.loads((out_cmp / "summary.json").read_text())

        out_run = tmp_path / "run"
        main(["run", str(doc_path), "-o", str(out_run)])
        metrics = json.loads((out_run / "metrics.json").read_text())
        assert summary["wave"]["median"] == metrics["convergence_time"]

    def test_explicit_objects_refuse_several_seeds(self, tmp_path, capsys):
        # listed objects do not depend on the seed: the runs would be copies
        path = tiny_scenario(tmp_path)
        out = tmp_path / "cmp"
        argv = ["compare", str(path), "--modes", "wave", "-o", str(out)]
        assert main(argv + ["--seeds", "1..2"]) == EXIT_INVALID
        assert "objects_random" in capsys.readouterr().err
        assert not (out / "summary.json").exists()
        assert main(argv + ["--seeds", "3"]) == EXIT_OK

    def test_one_batch_over_modes_and_seeds(self, tmp_path, monkeypatch):
        # every mode's seeds, mode after mode, in one batch and one pool
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": 2, "seed": 1},
                             t_max=20.0)
        calls, pools = [], []
        batch = engine.batch

        def recorded(scenarios):
            calls.append([(sc.mode, sc.seed) for sc in scenarios])
            return batch(scenarios)

        monkeypatch.setattr(engine, "batch", recorded)
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(pools))
        monkeypatch.delenv("MORPHSURF_THREADS", raising=False)
        argv = ["compare", str(path), "--seeds", "1..2", "-o", str(tmp_path / "cmp")]
        assert main(argv) == EXIT_OK
        assert calls == [[(mode, seed) for mode in ("wave", "distributed", "funnel")
                          for seed in (1, 2)]]
        assert pools == [2]

    def test_non_integer_thread_cap_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MORPHSURF_THREADS", "two")
        path = tiny_scenario(tmp_path)
        assert main(["compare", str(path), "--modes", "wave", "-o",
                     str(tmp_path / "cmp")]) == EXIT_INVALID
        assert "MORPHSURF_THREADS" in capsys.readouterr().err

    def test_thread_cap_below_one_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MORPHSURF_THREADS", "0")
        path = tiny_scenario(tmp_path)
        assert main(["compare", str(path), "--modes", "wave", "-o",
                     str(tmp_path / "cmp")]) == EXIT_INVALID
        assert "MORPHSURF_THREADS must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("modes", [",", " , ", "wave,wave", "wave,funnel, wave"])
    def test_empty_or_repeated_modes_are_refused(self, tmp_path, capsys, modes):
        path = tiny_scenario(tmp_path)
        out = tmp_path / "cmp"
        assert main(["compare", str(path), "--modes", modes, "-o", str(out)]) == EXIT_INVALID
        assert "--modes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", ["1..2,2", "3,1..5", "4,4"])
    def test_repeated_seeds_are_refused(self, tmp_path, capsys, seeds):
        # a seed given twice would run twice and count twice in the summary
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": 2, "seed": 1})
        out = tmp_path / "cmp"
        argv = ["compare", str(path), "--modes", "wave", "--seeds", seeds, "-o", str(out)]
        assert main(argv) == EXIT_INVALID
        assert f"--seeds {seeds!r}: give each seed once" in capsys.readouterr().err
        assert not out.exists()

    def test_a_serial_compare_loads_no_process_machinery(self, tmp_path):
        # with one worker a batch runs in the calling process, and neither
        # the pool nor multiprocessing is imported, at import or at run time
        path = tiny_scenario(tmp_path, objects=None, objects_random={"count": 2, "seed": 1},
                             t_max=5.0)
        script = (
            "import sys\n"
            "from morphsurf.cli import main\n"
            f"code = main(['compare', {str(path)!r}, '--seeds', '1..2', "
            f"'-o', {str(tmp_path / 'cmp')!r}])\n"
            "print(code, sorted(m for m in ('multiprocessing', 'concurrent.futures.process')"
            " if m in sys.modules))\n"
        )
        src = str(Path(engine.__file__).resolve().parents[1])
        env = {**os.environ, "MORPHSURF_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.stdout.splitlines()[-1:] == [f"{EXIT_OK} []"], done.stdout + done.stderr
        assert (tmp_path / "cmp" / "summary.json").exists()

    def test_unknown_mode_rejected(self, tmp_path):
        path = tiny_scenario(tmp_path)
        code = main(["compare", str(path), "--modes", "sideways", "-o",
                     str(tmp_path / "x")])
        assert code == EXIT_INVALID


class TestValidateCommand:
    def test_scenario_initial_grid_is_clean(self, tmp_path):
        path = tiny_scenario(tmp_path)
        assert main(["validate", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("mode", ["wave", "distributed", "funnel"])
    @pytest.mark.parametrize("name", ["paper-s1x10", "paper-s5x6", "uturn"])
    def test_validate_checks_the_grid_run_commands_first(self, tmp_path, monkeypatch,
                                                         name, mode):
        # every shipped scenario has tau 0, so row 0 of the trace is the
        # grid commanded before the first tick
        doc = json.loads((SCENARIOS / f"{name}.json").read_text())
        doc["control"]["mode"] = mode
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        checked = []
        monkeypatch.setattr(cli, "validate_grid",
                            lambda grid, cfg: checked.append(grid) or validate_grid(grid, cfg))
        assert main(["validate", str(path)]) == EXIT_OK
        sc = sio.load_scenario(path)
        assert sc.physics.tau == 0.0
        trace = run(dataclasses.replace(sc, t_max=1.0))[0]
        (grid,) = checked
        got = np.concatenate((grid.col_heights, grid.row_heights))
        want = np.concatenate((trace.col_heights[0], trace.row_heights[0]))
        assert got.tobytes() == want.tobytes()

    def test_grid_from_run_trace_is_clean(self, tmp_path):
        # grids recorded in a run's trace satisfy every constraint
        path = tiny_scenario(tmp_path)
        out = tmp_path / "out"
        main(["run", str(path), "-o", str(out)])
        sc = sio.load_scenario(path)
        trace = sio.read_trace_csv(out / "trace.csv")
        heights = np.add.outer(trace.col_heights[-1], trace.row_heights[-1])
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "W": sc.cfg.W, "L": sc.cfg.L, "l": sc.cfg.stroke,
            "heights": heights.tolist(),
        }))
        assert main(["validate", str(grid_path)]) == EXIT_OK

    def test_bumped_corner_fails(self, tmp_path, capsys):
        heights = np.zeros((4, 3))
        heights[1, 1] = 0.001  # planarity break well above tolerance
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "W": 2.0, "L": 2.0, "l": 1.0, "heights": heights.tolist(),
        }))
        assert main(["validate", str(grid_path)]) == EXIT_UNSETTLED
        assert "planarity" in capsys.readouterr().out

    def test_over_stroke_height_fails(self, tmp_path, capsys):
        heights = np.full((3, 3), 1.01)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({
            "W": 2.0, "L": 2.0, "l": 1.0, "heights": heights.tolist(),
        }))
        assert main(["validate", str(grid_path)]) == EXIT_UNSETTLED
        assert "bounds" in capsys.readouterr().out

    def test_grid_json_is_read_once(self, tmp_path, monkeypatch):
        reads = []
        read = sio.read_json_object

        def counted(path):
            reads.append(path)
            return read(path)

        monkeypatch.setattr(sio, "read_json_object", counted)
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"W": 2, "L": 2, "l": 1, "heights": [[0, 0], [0, 0]]}))
        assert main(["validate", str(grid_path)]) == EXIT_OK
        assert reads == [grid_path]

    def test_raw_csv_needs_dimensions(self, tmp_path):
        csv = tmp_path / "grid.csv"
        csv.write_text("0,0\n0,0\n")
        assert main(["validate", str(csv)]) == EXIT_INVALID
        assert main([
            "validate", str(csv), "--cell-width", "2", "--cell-length", "2",
            "--stroke", "1",
        ]) == EXIT_OK

    @pytest.mark.parametrize("flags", [
        ["--cell-width", "5"],
        ["--stroke", "0.001"],
        ["--cell-width", "2", "--cell-length", "2", "--stroke", "1"],
    ])
    def test_dimension_flags_refused_for_json(self, tmp_path, capsys, flags):
        # a grid or scenario JSON gives its own W, L and l: the flags would
        # be ignored, so they are refused
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps({"W": 2, "L": 2, "l": 1, "heights": [[0, 0], [0, 0]]}))
        for path in (grid_path, SCENARIOS / "paper-s5x6.json"):
            assert main(["validate", str(path), *flags]) == EXIT_INVALID
            captured = capsys.readouterr()
            assert "--cell-width, --cell-length and --stroke" in captured.err
            assert captured.out == ""
            assert main(["validate", str(path)]) == EXIT_OK
            capsys.readouterr()
        # refused before the document is read as a scenario: a malformed
        # one gets the same refusal, not its scenario error
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"surface": {"n": 0}}))
        assert main(["validate", str(bad), *flags]) == EXIT_INVALID
        assert "--cell-width, --cell-length and --stroke" in capsys.readouterr().err
        assert main(["validate", str(bad)]) == EXIT_INVALID
        assert "--cell-width" not in capsys.readouterr().err

    def test_unreadable_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["validate", str(bad)]) == EXIT_INVALID

    @pytest.mark.parametrize(
        "name, text, refusal",
        [
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[null, 0], [0, 0]]}',
             "heights[0][0] must be a finite number, got None"),
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[0, NaN], [0, 0]]}',
             "heights[0][1] must be a finite number, got nan"),
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[0, 0], [0, 1e309]]}',
             "heights[1][1] must be a finite number, got inf"),
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[0, 0], [0, "0"]]}',
             "heights[1][1] must be a finite number, got '0'"),
            ("grid.json", '{"W": true, "L": 1, "l": 1, "heights": [[0, 0], [0, 0]]}',
             "W must be a finite number, got True"),
            ("grid.json", "null", "must hold a JSON object"),
            ("grid.json", "5", "must hold a JSON object"),
            ("grid.json", '"heights"', "must hold a JSON object"),
            ("grid.csv", "nan,0\n0,0\n", "heights[0][0] must be a finite number, got nan"),
            ("grid.csv", "0,0\n0,-inf\n", "heights[1][1] must be a finite number, got -inf"),
        ],
        ids=["null-height", "nan-height", "overflowing-height", "string-height", "bool-W",
             "null-file", "number-file", "string-file", "nan-csv", "inf-csv"],
    )
    def test_non_finite_or_non_object_input_is_refused(self, tmp_path, capsys, name, text,
                                                        refusal):
        path = tmp_path / name
        path.write_text(text)
        argv = ["validate", str(path), "--cell-width", "2", "--cell-length", "2", "--stroke", "1"]
        if name.endswith(".json"):  # refused the flags before its content is checked
            argv = argv[:2]
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert refusal in captured.err and "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "name, text, refusal",
        [
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[]]}',
             "heights must be a 2-D array of at least 2 x 2 values"),
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[0, 0]]}',
             "heights must be a 2-D array of at least 2 x 2 values"),
            ("grid.json", '{"W": 1, "L": 1, "l": 1, "heights": [[0], [0]]}',
             "heights must be a 2-D array of at least 2 x 2 values"),
            ("grid.csv", "0\n", "grid.csv: expected a 2-D height matrix of at least 2 x 2"),
            ("grid.csv", "0,0\n", "grid.csv: expected a 2-D height matrix of at least 2 x 2"),
        ],
        ids=["empty-json", "one-column-json", "one-row-json", "one-value-csv", "one-column-csv"],
    )
    def test_a_grid_under_2_by_2_is_refused(self, tmp_path, capsys, name, text, refusal):
        path = tmp_path / name
        path.write_text(text)
        argv = ["validate", str(path), "--cell-width", "2", "--cell-length", "2", "--stroke", "1"]
        if name.endswith(".json"):
            argv = argv[:2]
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert refusal in captured.err and "Traceback" not in captured.err
        assert captured.out == ""


class TestCannedScenarios:
    def test_all_parse(self):
        for name in ("paper-s5x6.json", "paper-s1x10.json", "uturn.json"):
            sc = sio.load_scenario(SCENARIOS / name)
            assert sc.t_max > 0

    def test_seed_spec_parsing(self):
        assert sio.parse_seed_list("1..4") == [1, 2, 3, 4]
        assert sio.parse_seed_list("2,5,9") == [2, 5, 9]
        assert sio.parse_seed_list("1..3,7") == [1, 2, 3, 7]
        with pytest.raises(sio.ScenarioError):
            sio.parse_seed_list("")
        for bad in ("1..x", "1..2..3", "two", "-3", "-2..1", "4,-1"):
            with pytest.raises(sio.ScenarioError, match=f"--seeds '{bad}'"):
                sio.parse_seed_list(bad)

    @pytest.mark.parametrize("listing", ["0..100000", "5,0..99999", "0..1000000000000000000"])
    def test_a_seed_listing_past_the_bound_is_refused_at_once(self, listing):
        # counted from the range bounds: no list of the seeds is made
        start = time.perf_counter()
        with pytest.raises(sio.ScenarioError, match=f"--seeds '{listing}': at most 100000"):
            sio.parse_seed_list(listing)
        assert time.perf_counter() - start < 1.0
        assert sio.parse_seed_list("0..99999") == list(range(sio.MAX_SEEDS))
