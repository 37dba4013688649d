import concurrent.futures
import dataclasses
import math
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings

from morphsurf import (
    ControlInput,
    ControllerParams,
    ObjectState,
    PhysicsParams,
    SingleCellGains,
    SurfaceConfig,
    reconstruct_actuator_grid,
    validate_grid,
)
from morphsurf import control, dynamics, engine
from morphsurf.dynamics import first_order_lag
from morphsurf.engine import (
    SINGLE_CELL_SETTLE,
    BatchEntry,
    Scenario,
    SimTrace,
    _grid_orientation_terms,
    batch,
    compute_metrics,
    initial_state,
    run,
)
from morphsurf.scenario import load_scenario
from morphsurf.surface import FieldError

from conftest import (
    arrival_times_reference,
    gravity_field,
    inline_pool,
    orientation_field,
    path_lengths_reference,
    random_config,
    random_feasible_input,
    run_reference,
    whole_runs,
    slope_field,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

CFG = SurfaceConfig(n=3, m=2, W=2.0, L=2.0, stroke=1.0, ref_col=2, ref_row=1)
PHYS = PhysicsParams(gravity=0.0981, friction=0.1, tau=0.0, dt=0.005)


def small_scenario(mode="wave", **kw):
    defaults = dict(
        cfg=CFG,
        physics=PHYS,
        mode=mode,
        params=ControllerParams(),
        objects=(ObjectState(1.0, 3.0), ObjectState(5.0, 1.0)),
        t_max=200.0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def synthetic_trace(t, xs, cfg):
    """Single-object trace with given x positions (y fixed inside the ref row)."""
    rows = len(t)
    states = np.zeros((rows, 1, 4))
    states[:, 0, 0] = xs
    states[:, 0, 1] = (cfg.ref_row - 0.5) * cfg.L
    return SimTrace(
        t=np.asarray(t, dtype=float),
        states=states,
        dz_col=np.zeros((rows, cfg.n)),
        dz_row=np.zeros((rows, cfg.m)),
        col_heights=np.zeros((rows, cfg.n + 1)),
        row_heights=np.zeros((rows, cfg.m + 1)),
    )


class TestScenarioValidation:
    def test_dt_must_divide_period(self):
        with pytest.raises(ValueError):
            small_scenario(physics=PhysicsParams(dt=0.003))

    def test_needs_objects(self):
        with pytest.raises(ValueError):
            small_scenario(objects=None, random_count=0)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            small_scenario(mode="teleport")

    def test_empty_object_list_refused(self):
        with pytest.raises(ValueError, match="at least one object"):
            small_scenario(objects=())

    def test_a_loaded_scenario_cannot_be_changed(self):
        # the load bounds hold for the run: no object can be edited after
        # them, and the objects a list gives are kept as a tuple
        sc = small_scenario(objects=[ObjectState(1.0, 3.0), ObjectState(5.0, 1.0)])
        assert sc.objects == (ObjectState(1.0, 3.0), ObjectState(5.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            sc.objects[0].vx = 1e300
        assert hash(sc) == hash(small_scenario())

    def test_gain_slack_is_relative_to_the_cap(self):
        # on a 1e12 m cell the cap stroke/(2W) is 5e-13: a gain of three
        # times the cap is refused, not let through by an absolute slack
        cell = SurfaceConfig(n=1, m=1, W=1e12, L=1e12, stroke=1.0, ref_col=1, ref_row=1)
        objects = (ObjectState(5e11, 5e11),)
        for gains, name in [((1.5e-12, 5e-13), "kx"), ((5e-13, 1.5e-12), "ky")]:
            with pytest.raises(FieldError, match=rf"^{name} must lie in \(0, stroke/\(2"):
                small_scenario("single_cell", cfg=cell, objects=objects,
                               params=ControllerParams(gains=SingleCellGains(*gains)))
        largest = 0.5 / 1e12 * (1 + 1e-12)
        small_scenario("single_cell", cfg=cell, objects=objects,
                       params=ControllerParams(gains=SingleCellGains(largest, largest)))


NAN, INF = float("nan"), float("inf")
NOT_FINITE = [NAN, INF, -INF, True, "1.0", None]
NOT_INTEGER = [2.7, 2.0, True, NAN, INF, "2", None]


def build(cls, **changes):
    """An instance of one of the checked types, from valid arguments with
    ``changes`` applied."""
    base = {
        SurfaceConfig: dict(n=3, m=2, W=2.0, L=2.0, stroke=1.0, ref_col=2, ref_row=1),
        PhysicsParams: {},
        ObjectState: dict(x=1.0, y=1.0),
        ControllerParams: {},
        SingleCellGains: dict(kx=0.25, ky=0.25),
        Scenario: dict(cfg=CFG, physics=PHYS, mode="wave", objects=(ObjectState(1.0, 3.0),)),
    }[cls]
    return cls(**{**base, **changes})


FIELD_CASES = (
    [(SurfaceConfig, f, v) for f in ("W", "L", "stroke") for v in NOT_FINITE]
    + [(SurfaceConfig, f, v) for f in ("n", "m", "ref_col", "ref_row") for v in NOT_INTEGER]
    + [(PhysicsParams, f, v) for f in ("gravity", "friction", "tau", "dt") for v in NOT_FINITE]
    + [(PhysicsParams, "friction", 1001.0)]  # friction * dt > 1 at the default dt
    + [(ObjectState, f, v) for f in ("x", "y", "vx", "vy") for v in NOT_FINITE]
    + [(ControllerParams, f, v) for f in ("frac_x", "frac_y") for v in NOT_FINITE]
    + [(ControllerParams, "hardware_split", v) for v in (1, 0.0, "yes", None)]
    + [(SingleCellGains, f, v) for f in ("kx", "ky") for v in NOT_FINITE]
    + [(Scenario, f, v) for f in ("control_rate", "t_max") for v in NOT_FINITE]
    + [(Scenario, f, v) for f in ("random_count", "seed") for v in NOT_INTEGER]
    + [(Scenario, "mode", v) for v in (1, None, True)]
)


class TestFieldChecks:
    """Each type refuses, when built, a value its field's annotation does
    not admit, naming the field."""

    @pytest.mark.parametrize("cls, name, value", FIELD_CASES)
    def test_refused(self, cls, name, value):
        with pytest.raises(FieldError, match=f"^{name} must be"):
            build(cls, **{name: value})

    @pytest.mark.parametrize("cls, name, value", [
        (SurfaceConfig, "n", 0), (SurfaceConfig, "m", -2), (SurfaceConfig, "W", -1.0),
        (SurfaceConfig, "L", 0.0), (SurfaceConfig, "stroke", 0.0), (SurfaceConfig, "W", 1e-160),
        (SurfaceConfig, "ref_col", 4), (SurfaceConfig, "ref_row", 0),
        (PhysicsParams, "gravity", 0.0), (PhysicsParams, "gravity", 1e160),
        (PhysicsParams, "friction", -0.1), (PhysicsParams, "tau", -1.0), (PhysicsParams, "dt", 0.0),
        (ControllerParams, "frac_x", 1.5), (ControllerParams, "frac_y", -0.5),
        (Scenario, "control_rate", 0.0), (Scenario, "t_max", -1.0), (Scenario, "mode", "bogus"),
    ])
    def test_out_of_range(self, cls, name, value):
        # a value of the right kind but out of range is refused naming its field
        with pytest.raises(FieldError, match=f"^{name} must be"):
            build(cls, **{name: value})

    def test_a_tiny_stroke_allows_any_positive_cell(self):
        # the smallest cell is stroke * 2**-500, which underflows to 0 here
        assert build(SurfaceConfig, stroke=1e-200, W=1e-300).W == 1e-300

    def test_numbers_are_stored_as_their_kind(self):
        cfg = build(SurfaceConfig, n=np.int64(3), W=2, stroke=np.float64(1.0))
        assert (type(cfg.n), type(cfg.W), type(cfg.stroke)) == (int, float, float)
        assert type(build(SingleCellGains, kx=np.float32(0.25)).kx) is float
        assert type(build(ObjectState, x=np.float32(1.5)).x) is float

    def test_integer_beyond_the_float_range_is_not_finite(self):
        with pytest.raises(FieldError, match="^t_max must be a finite number"):
            build(Scenario, t_max=10**400)

    def test_t_max_must_give_a_finite_number_of_ticks(self):
        # 1e308 s at 10 Hz is 1e309 ticks, beyond the floats; 1e300 s is not
        with pytest.raises(FieldError, match="^t_max must give a finite number of ticks"):
            build(Scenario, t_max=1e308)
        assert build(Scenario, t_max=1e300).t_max == 1e300

    @pytest.mark.parametrize("entry, part", [
        ((0.5, 1.5, 1), "column"), ((0.5, 1, True), "row"), ((NAN, 1, 1), "time"),
    ])
    def test_schedule_entries(self, entry, part):
        with pytest.raises(FieldError, match=rf"^reference_schedule\[0\] {part} must be"):
            build(Scenario, reference_schedule=(entry,))

    @pytest.mark.parametrize("schedule, field", [
        (((1.0, 2),), "reference_schedule[0]"),
        ((5,), "reference_schedule[0]"),
        (((1.0, 2, 1), (2.0, 1, 1, 1)), "reference_schedule[1]"),
        ("x", "reference_schedule"),
        ({"a": 1}, "reference_schedule"),
        (None, "reference_schedule"),
    ])
    def test_malformed_schedule_names_the_field(self, schedule, field):
        # not a list, or an entry that is not [time, column, row]
        with pytest.raises(FieldError, match=r"must be (a list of )?\[time, column, row\]$") as exc:
            build(Scenario, reference_schedule=schedule)
        assert exc.value.field == field

    def test_schedule_is_kept_sorted_by_time(self):
        sc = build(Scenario, reference_schedule=((9.0, 1, 1), (2, 3, 2), (5.0, 2, 2)))
        assert sc.reference_schedule == ((2.0, 3, 2), (5.0, 2, 2), (9.0, 1, 1))

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            build(Scenario, seed=-1)

    def test_single_cell_needs_one_cell_and_capped_gains(self):
        with pytest.raises(FieldError, match="^mode single_cell needs a 1x1 surface, got 3x2"):
            small_scenario("single_cell")
        cell = SurfaceConfig(n=1, m=1, W=2.0, L=4.0, stroke=1.0, ref_col=1, ref_row=1)
        for gains, name in [((0.3, 0.1), "kx"), ((0.25, 0.2), "ky"), ((0.0, 0.1), "kx")]:
            params = ControllerParams(gains=SingleCellGains(*gains))
            with pytest.raises(FieldError, match=f"^{name} must lie in"):
                small_scenario("single_cell", cfg=cell, params=params,
                               objects=(ObjectState(1.0, 1.0),))
        small_scenario("single_cell", cfg=cell, objects=(ObjectState(1.0, 1.0),),
                       params=ControllerParams(gains=SingleCellGains(0.25, 0.125)))

    def test_single_cell_gains_are_checked_at_load_only(self, monkeypatch):
        cell = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)
        sc = small_scenario("single_cell", cfg=cell, objects=(ObjectState(0.5, 1.5),),
                            params=ControllerParams(gains=SingleCellGains(0.25, 0.25)),
                            t_max=5.0)
        checks = []
        validate = SingleCellGains.validate
        monkeypatch.setattr(SingleCellGains, "validate",
                            lambda gains, cfg: checks.append(cfg) or validate(gains, cfg))
        trace = run(sc)[0]
        assert len(trace.t) > 1 and checks == []

    def test_single_cell_without_gains_builds_no_gains_per_tick(self, monkeypatch):
        # no gains stand for the gains at their caps, resolved without a
        # SingleCellGains: none is built while the run ticks
        cell = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)
        sc = small_scenario("single_cell", cfg=cell, objects=(ObjectState(0.5, 1.5),),
                            t_max=5.0)
        built = []
        monkeypatch.setattr(SingleCellGains, "__post_init__", lambda gains: built.append(gains))
        trace = run(sc)[0]
        assert len(trace.t) > 1 and built == []

    @pytest.mark.parametrize("a, b", [(0.7, 0.5), (1.5, -0.5)])
    def test_stroke_split(self, a, b):
        with pytest.raises(ValueError, match="stroke fractions"):
            ControllerParams(frac_x=a, frac_y=b)


class TestInitialObjects:
    def test_seeded_uniform_is_deterministic(self):
        sc = small_scenario(objects=None, random_count=8, seed=42)
        a = initial_state(sc)
        b = initial_state(sc)
        assert all(np.array_equal(u, v) for u, v in zip(a, b))
        x, y, vx, vy = a
        assert np.all((0 <= x) & (x <= CFG.width) & (0 <= y) & (y <= CFG.length))
        assert not vx.any() and not vy.any()

    def test_different_seed_different_layout(self):
        a = initial_state(small_scenario(objects=None, random_count=8, seed=1))
        b = initial_state(small_scenario(objects=None, random_count=8, seed=2))
        assert not np.array_equal(a[0], b[0])

    def test_explicit_objects_give_one_float_state_row_per_component(self):
        objects = (ObjectState(1.0, 3.0, vx=0.5), ObjectState(5, 1, vy=-0.25))
        state = initial_state(small_scenario(objects=objects))
        assert state.dtype == float and state.shape == (4, 2)
        assert state.tolist() == [[1.0, 5.0], [3.0, 1.0], [0.5, 0.0], [0.0, -0.25]]

    def test_seeded_state_is_one_float_array(self):
        state = initial_state(small_scenario(objects=None, random_count=8, seed=3))
        assert state.dtype == float and state.shape == (4, 8)

    @pytest.mark.parametrize(
        "kw",
        [{}, {"objects": None, "random_count": 5, "seed": 9}],
        ids=["explicit", "seeded"],
    )
    def test_first_trace_row_is_the_initial_state(self, kw):
        sc = small_scenario(t_max=1.0, **kw)
        trace = run(sc)[0]
        assert trace.states[0].tobytes() == initial_state(sc).T.tobytes()


class TestRun:
    def test_deterministic_bit_for_bit(self):
        sc = small_scenario(objects=None, random_count=5, seed=7)
        tr1, m1 = run(sc)
        tr2, m2 = run(sc)
        assert np.array_equal(tr1.states, tr2.states)
        assert np.array_equal(tr1.col_heights, tr2.col_heights)
        assert m1.convergence_time == m2.convergence_time

    def test_starting_inside_reference_converges_immediately(self):
        home = ObjectState((CFG.ref_col - 0.5) * CFG.W, (CFG.ref_row - 0.5) * CFG.L)
        sc = small_scenario(objects=(home,))
        trace, metrics = run(sc)
        assert metrics.converged
        assert metrics.convergence_time == 0.0
        assert trace.t[-1] == pytest.approx(sc.control_period)

    def test_trace_cadence(self):
        sc = small_scenario(t_max=5.0)
        trace, _ = run(sc)
        assert np.all(np.diff(trace.t) > 0)
        np.testing.assert_allclose(np.diff(trace.t), sc.control_period)

    def test_t_max_reached_reports_non_convergence(self):
        sc = small_scenario(t_max=1.0)
        trace, metrics = run(sc)
        assert not metrics.converged
        assert trace.t[-1] == pytest.approx(1.0)

    def test_frictionless_single_cell_settles_at_center(self):
        cell = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)
        sc = Scenario(
            cfg=cell,
            physics=PhysicsParams(gravity=9.81, friction=0.0),
            mode="single_cell",
            objects=(ObjectState(0.2, 1.7),),
            t_max=60.0,
        )
        trace, metrics = run(sc)
        assert metrics.converged
        assert trace.t[-1] < sc.t_max
        x, y = trace.states[-1, 0, :2]
        assert math.hypot(x - cell.W / 2, y - cell.L / 2) < 0.01 * cell.W

    def test_slow_frictionless_single_cell_stops_only_at_center(self):
        # At low gravity the swing is slow enough to be "at rest" at its
        # turning points; the run must not stop there.
        cell = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)
        sc = Scenario(
            cfg=cell,
            physics=PhysicsParams(gravity=0.0981, friction=0.0),
            mode="single_cell",
            objects=(ObjectState(0.2, 1.7),),
            t_max=700.0,
        )
        trace, metrics = run(sc)
        assert metrics.converged
        x, y = trace.states[-1, 0, :2]
        assert abs(x - cell.W / 2) <= SINGLE_CELL_SETTLE * cell.W
        assert abs(y - cell.L / 2) <= SINGLE_CELL_SETTLE * cell.L

    def test_metrics_consistent_with_trace(self):
        sc = small_scenario()
        trace, metrics = run(sc)
        assert compute_metrics(trace, CFG, settle=sc.control_period) == (
            metrics.convergence_time, metrics.arrival_times, metrics.path_lengths)


def recorded_scenario(name: str) -> Scenario:
    """A canned scenario, or "lagged": paper-s5x6 with tau 0.3 s."""
    if name == "lagged":
        sc = load_scenario(SCENARIOS / "paper-s5x6.json")
        return dataclasses.replace(sc, physics=dataclasses.replace(sc.physics, tau=0.3))
    return load_scenario(SCENARIOS / f"{name}.json")


def random_trace(rng, cfg, rows, objects):
    """A trace whose objects wander the workspace, some on cell boundaries,
    and then each stay in the reference cell from a random row on."""
    states = rng.uniform(0.0, 1.0, (rows, objects, 4))
    states[:, :, 0] *= cfg.width
    states[:, :, 1] *= cfg.length
    for axis, size, cells in ((0, cfg.W, cfg.n), (1, cfg.L, cfg.m)):
        on_line = rng.random((rows, objects)) < 0.2
        states[:, :, axis][on_line] = rng.integers(0, cells + 1, on_line.sum()) * size
    for k, first in enumerate(rng.integers(0, rows + 1, objects)):
        states[first:, k, 0] = (cfg.ref_col - rng.uniform(0.0, 1.0, rows - first)) * cfg.W
        states[first:, k, 1] = (cfg.ref_row - 1 + rng.uniform(0.0, 1.0, rows - first)) * cfg.L
    return SimTrace(
        t=np.arange(rows) * 0.1,
        states=states,
        dz_col=np.zeros((rows, cfg.n)),
        dz_row=np.zeros((rows, cfg.m)),
        col_heights=np.zeros((rows, cfg.n + 1)),
        row_heights=np.zeros((rows, cfg.m + 1)),
    )


class TestTraceRecording:
    """run reserves the trace up front and writes each tick's row in place;
    compute_metrics reads it in blocks of about _METRIC_STEPS object-steps."""

    @pytest.mark.parametrize("name", ["paper-s1x10", "paper-s5x6", "uturn", "lagged"])
    def test_a_small_reserve_grows_to_the_same_trace(self, name, monkeypatch):
        sc = recorded_scenario(name)
        want = run(sc)[0]
        monkeypatch.setattr(engine, "_TRACE_RESERVE", 1 << 10)
        got = run(sc)[0]
        for f in dataclasses.fields(SimTrace):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.shape == b.shape, f.name
            assert a.tobytes() == b.tobytes(), f.name

    def test_metrics_match_the_first_formulas_bitwise(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            cfg = random_config(rng)
            trace = random_trace(
                rng, cfg, int(rng.integers(1, 40)), int(rng.integers(1, 12))
            )
            _, arrivals, lengths = compute_metrics(trace, cfg, settle=0.1)
            want = path_lengths_reference(trace)
            assert np.array(lengths).tobytes() == want.tobytes()
            assert arrivals == arrival_times_reference(trace, cfg)

    @pytest.mark.parametrize("block", [1, 2, 7])
    def test_metrics_across_block_boundaries(self, block, monkeypatch):
        # a running total and each object's last row outside carried from
        # block to block.  _METRIC_STEPS is set so that each trace is read in
        # blocks of ``block`` steps, its floor division included.
        rng = np.random.default_rng(block)
        for k in range(60):
            cfg = random_config(rng)
            objects = 1 if k % 3 == 0 else int(rng.integers(2, 12))
            rows = int(rng.integers(1, 301))
            trace = random_trace(rng, cfg, rows, objects)
            monkeypatch.setattr(engine, "_METRIC_STEPS", block * objects + k % objects)
            _, arrivals, lengths = compute_metrics(trace, cfg, settle=0.1)
            want = path_lengths_reference(trace)
            assert np.array(lengths).tobytes() == want.tobytes()
            assert arrivals == arrival_times_reference(trace, cfg)

    @pytest.mark.parametrize("rows", [1, 2])
    @pytest.mark.parametrize("objects", [1, 5])
    def test_metrics_of_one_and_two_row_traces(self, rows, objects):
        # a trace of one row has no steps; one of two rows has one step
        rng = np.random.default_rng(10 * rows + objects)
        for _ in range(20):
            cfg = random_config(rng)
            trace = random_trace(rng, cfg, rows, objects)
            _, arrivals, lengths = compute_metrics(trace, cfg, settle=0.1)
            want = path_lengths_reference(trace)
            assert np.array(lengths).tobytes() == want.tobytes()
            assert arrivals == arrival_times_reference(trace, cfg)

    def test_metrics_temporaries_stay_under_0_6_of_the_states(self):
        # at most three arrays of about _METRIC_STEPS floats at once: the
        # path lengths' block and scratch, or one axis's quotients and cell
        # indices; however many rows and objects the trace has, one object
        # included.  Each of these traces holds 12.8 MB of states, fifteen
        # times the bound.
        cfg = SurfaceConfig(n=12, m=12, W=2.0, L=2.0, stroke=1.0, ref_col=6, ref_row=6)
        for objects, rows in ((1, 400000), (20, 20000), (200, 2000), (2000, 200)):
            trace = random_trace(np.random.default_rng(5), cfg, rows=rows, objects=objects)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                compute_metrics(trace, cfg, settle=0.1)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert peak <= 3 * engine._METRIC_STEPS * 8 + (1 << 16), objects


def test_a_field_build_and_a_grid_check_take_at_most_64_bytes_a_cell():
    # engine.MAX_CELLS allows 64 bytes a cell: on a 64x64 surface the field
    # build and the check of its commanded, feasible grid stay within them
    cfg = SurfaceConfig(n=64, m=64, W=2.0, L=2.0, stroke=1.0, ref_col=32, ref_row=32)
    still = np.zeros(1)
    grid = control.command(still + 1.0, still + 1.0, still, still, "funnel",
                           ControllerParams(), cfg)[1]
    col, row = np.asarray(grid.col_heights), np.asarray(grid.row_heights)
    results, peaks = [], []
    tracemalloc.start()
    try:
        for check in (lambda: _grid_orientation_terms(col, row, cfg, 9.81),
                      lambda: validate_grid(grid, cfg)):
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            results.append(check())
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert results[1].ok
    assert max(peaks) <= 64 * cfg.n * cfg.m


def count_calls(monkeypatch, fn, note=lambda: None) -> list:
    """Route every morphsurf module's binding of ``fn`` through a wrapper
    that appends ``note()`` to the returned list once per call, before the
    call."""
    calls: list = []

    def counted(*args, **kwargs):
        calls.append(note())
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "morphsurf" or name.startswith("morphsurf."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


class TestPerTickCalls:
    @pytest.mark.parametrize("name", ["paper-s1x10", "paper-s5x6", "uturn"])
    def test_one_command_per_row_and_one_field_and_advance_per_tick(self, name, monkeypatch):
        """The counts `perfbench/run.py --trace 1` requires of every run
        (`perfbench/layers.py` `Tracer.exact_counts` against the trace):
        one `control.command` call per trace row, and one
        `engine._grid_orientation_terms` and one `dynamics.advance` call per
        tick, the last row excepted.  A change that skips these calls is
        reported incorrect by the benchmark until its rules change."""
        commands = count_calls(monkeypatch, control.command)
        fields = count_calls(monkeypatch, engine._grid_orientation_terms)
        advances = count_calls(monkeypatch, dynamics.advance)
        trace = run(recorded_scenario(name))[0]
        rows = len(trace.t)
        assert (len(commands), len(fields), len(advances)) == (rows, rows - 1, rows - 1)


class TestOneLookupPerTick:
    """engine.run looks the objects' cells up before its first tick; from
    then on advance, handed them, looks them up only in the check it already
    makes and hands them to the next tick's command, settle rule and
    advance."""

    def test_paper_s5x6_wave(self, monkeypatch):
        occupancy = count_calls(monkeypatch, control.occupancy_sets)
        advances = count_calls(monkeypatch, dynamics.advance, Counter)
        lookup, finish = dynamics.cell_index, dynamics._finish

        def spy_lookup(pos, *args):
            if advances:  # inside advance
                advances[-1]["lookups"] += 1
                advances[-1]["checks"] += pos.ndim == 3  # a recurrence's rows
            return lookup(pos, *args)

        def spy_finish(*args):
            advances[-1]["tails"] += 1
            advances[-1]["scalar"] += args[4]  # its substeps
            return finish(*args)

        monkeypatch.setattr(dynamics, "cell_index", spy_lookup)
        monkeypatch.setattr(dynamics, "_finish", spy_finish)
        run(load_scenario(SCENARIOS / "paper-s5x6.json", mode="wave"))
        assert occupancy == []  # every command is handed the cells
        # A tick of 10 substeps is one recurrence for 20 objects, and its
        # check is the call's one lookup.  63 calls finish 68 objects alone
        # over 367 substeps in all (counts of the trace the goldens pin).
        assert all(call["lookups"] == call["checks"] == 1 for call in advances)
        total = sum(advances, Counter())
        assert (total["tails"], total["scalar"]) == (68, 367)
        assert sum(call["tails"] > 0 for call in advances) == 63


class TestReferenceSchedule:
    def test_reference_change_redirects_objects(self):
        sc = small_scenario(
            objects=(ObjectState(1.0, 1.0),),
            reference_schedule=((40.0, 3, 2),),
            t_max=300.0,
        )
        trace, metrics = run(sc)
        # converged relative to the final reference cell (3, 2)
        assert metrics.converged
        x, y = trace.states[-1, 0, 0], trace.states[-1, 0, 1]
        assert 4.0 <= x <= 6.0 and 2.0 <= y <= 4.0


class TestActuatorLag:
    def test_lag_bounds_commanded_actual_gap(self):
        tau = 0.5
        sc = small_scenario(physics=PhysicsParams(
            gravity=0.0981, friction=0.1, tau=tau, dt=0.005), t_max=20.0)
        trace, _ = run(sc)
        period = sc.control_period
        decay = math.exp(-period / tau)
        # reconstruct the commanded grid at each tick from the recorded input
        # and verify the recorded actual grid is the exact lagged blend
        from morphsurf import ControlInput, reconstruct_actuator_grid

        actual = np.zeros(CFG.n + 1)
        for r in range(len(trace.t)):
            u = ControlInput(tuple(trace.dz_col[r]), tuple(trace.dz_row[r]))
            commanded = np.asarray(reconstruct_actuator_grid(u, CFG).col_heights)
            expected = actual + (commanded - actual) * (1 - decay)
            np.testing.assert_allclose(trace.col_heights[r], expected, atol=1e-12)
            actual = expected


def field_by_cell(grid_col, grid_row, cfg, gravity):
    """The field built one cell at a time from CellOrientation objects."""
    u = ControlInput(tuple(grid_col[:-1] - grid_col[1:]), tuple(grid_row[:-1] - grid_row[1:]))
    return gravity_field(orientation_field(u, cfg), gravity)


class TestFieldBuild:
    """The engine's field build equals the per-cell closed form bit for bit,
    and the per-cell trig form within TRIG_RTOL: measured at most 5 ulp at
    W = 2, L = 1.5 and 32 ulp (about 4e-15) at W = 0.05, L = 0.07."""

    SIZES = [(1, 1), (3, 2), (1, 10), (5, 6), (12, 12)]
    TRIG_RTOL = 1e-14

    @classmethod
    def assert_same_field(cls, grid_col, grid_row, cfg, gravity=0.0981):
        got = _grid_orientation_terms(grid_col, grid_row, cfg, gravity)
        dz_col = (grid_col[:-1] - grid_col[1:]).tolist()
        dz_row = (grid_row[:-1] - grid_row[1:]).tolist()
        exact = slope_field(dz_col, dz_row, cfg, gravity)
        trig = field_by_cell(grid_col, grid_row, cfg, gravity)
        for g, w, t in zip(got, exact, trig):
            assert g.shape == (cfg.n, cfg.m) and np.isfinite(g).all()
            assert np.array_equal(g, w)
            assert np.array_equal(np.signbit(g), np.signbit(w))  # signed zeros too
            np.testing.assert_allclose(g, t, rtol=cls.TRIG_RTOL, atol=0.0)
            assert np.array_equal(np.signbit(g), np.signbit(t))

    @staticmethod
    def random_grids(rng, n, m, count=40):
        """Random actual grids with level runs: zero drops, and -0.0 next to
        0.0 negative ones."""
        for _ in range(count):
            col = rng.uniform(-0.5, 0.5, n + 1)
            row = rng.uniform(-0.5, 0.5, m + 1)
            for h in (col, row):
                zero = rng.random(h.size) < 0.4
                h[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
            row[1:][rng.random(m) < 0.2] = row[0]
            yield col, row

    @pytest.mark.parametrize("n, m", SIZES)
    def test_random_grids_with_level_runs(self, n, m):
        rng = np.random.default_rng(n * 100 + m)
        cfg = SurfaceConfig(n, m, 2.0, 1.5, 1.0, 1, 1)
        for col, row in self.random_grids(rng, n, m):
            self.assert_same_field(col, row, cfg)

    @pytest.mark.parametrize("W, L", [(0.05, 0.07), (1e160, 1.5), (2.0, 1e160)])
    def test_extreme_cell_sizes(self, W, L):
        # squaring a length instead of a slope overflows at W or L = 1e160
        rng = np.random.default_rng(16)
        cfg = SurfaceConfig(5, 6, W, L, 1.0, 1, 1)
        for col, row in self.random_grids(rng, 5, 6):
            self.assert_same_field(col, row, cfg)

    @pytest.mark.parametrize("n, m", SIZES)
    def test_lagging_controller_grids(self, n, m):
        # actual grids chasing a series of commanded grids through the lag,
        # as the engine builds them; tau = 0 repeats the commanded grid
        rng = np.random.default_rng(7 * n + m)
        cfg = SurfaceConfig(n, m, 2.0, 2.0, 1.0, int(rng.integers(1, n + 1)),
                            int(rng.integers(1, m + 1)))
        for tau in (0.0, 0.3):
            col, row = np.zeros(n + 1), np.zeros(m + 1)
            for _ in range(20):
                g = reconstruct_actuator_grid(random_feasible_input(rng, cfg), cfg)
                col = first_order_lag(col, np.asarray(g.col_heights), tau, 0.1)
                row = first_order_lag(row, np.asarray(g.row_heights), tau, 0.1)
                self.assert_same_field(col, row, cfg)


def convergence_time(trace, cfg):
    """The convergence time compute_metrics gives ``trace`` over a 0.1 s
    settle window."""
    return compute_metrics(trace, cfg, settle=0.1)[0]


class TestConvergenceTime:
    def test_never_leaving_is_zero(self):
        cfg = CFG
        t = np.arange(0, 5.0, 0.1)
        xs = np.full(len(t), (cfg.ref_col - 0.5) * cfg.W)
        trace = synthetic_trace(t, xs, cfg)
        assert convergence_time(trace, cfg) == 0.0

    def test_reentry_time_is_reported(self):
        cfg = CFG
        t = np.arange(0, 60.0, 0.1)
        xs = np.where(t < 30.0, 0.5, (cfg.ref_col - 0.5) * cfg.W)
        trace = synthetic_trace(t, xs, cfg)
        assert convergence_time(trace, cfg) == pytest.approx(30.0)

    def test_object_still_outside_is_none(self):
        cfg = CFG
        t = np.arange(0, 5.0, 0.1)
        xs = np.full(len(t), 0.5)  # parked in column 1, never in reference
        trace = synthetic_trace(t, xs, cfg)
        assert convergence_time(trace, cfg) is None

    def test_settle_window_must_fit_in_trace(self):
        cfg = CFG
        t = np.array([0.0, 0.1, 0.2])
        xs = np.array([0.5, 0.5, (cfg.ref_col - 0.5) * cfg.W])
        trace = synthetic_trace(t, xs, cfg)
        # arrives on the final row: no settle window left
        assert convergence_time(trace, cfg) is None

    def test_arrival_times_per_object(self):
        cfg = CFG
        t = np.arange(0, 10.0, 0.1)
        xs = np.where(t < 2.0, 0.5, (cfg.ref_col - 0.5) * cfg.W)
        trace = synthetic_trace(t, xs, cfg)
        assert compute_metrics(trace, cfg, settle=0.1)[1] == [pytest.approx(2.0)]


class TestBatch:
    def test_empty(self):
        assert batch([]) == []

    def test_seed_sweep_order_and_determinism(self, monkeypatch):
        base = small_scenario(objects=None, random_count=4, seed=0, t_max=120.0)
        seeds = [1, 2, 3, 4]
        monkeypatch.setenv("MORPHSURF_THREADS", "2")
        jobs = [dataclasses.replace(base, seed=s) for s in seeds]
        entries = batch(jobs)
        assert [e.metrics.arrival_times for e in entries] == [
            run(job)[1].arrival_times for job in jobs
        ]
        monkeypatch.setenv("MORPHSURF_THREADS", "1")
        again = batch(jobs)
        assert [e.metrics.convergence_time for e in entries] == [
            e.metrics.convergence_time for e in again
        ]

    # an empty batch is refused a bad cap like any other
    @pytest.mark.parametrize("scenarios", [[small_scenario(t_max=1.0)], []], ids=["one", "none"])
    def test_non_integer_thread_cap_names_the_variable(self, monkeypatch, scenarios):
        monkeypatch.setenv("MORPHSURF_THREADS", "abc")
        with pytest.raises(ValueError, match="MORPHSURF_THREADS must be an integer"):
            batch(scenarios)

    @pytest.mark.parametrize("scenarios", [[small_scenario(t_max=1.0)], []], ids=["one", "none"])
    @pytest.mark.parametrize("env", ["0", "-3"])
    def test_thread_cap_below_one_is_refused(self, monkeypatch, env, scenarios):
        monkeypatch.setenv("MORPHSURF_THREADS", env)
        with pytest.raises(ValueError, match="MORPHSURF_THREADS must be an integer >= 1"):
            batch(scenarios)

    @pytest.mark.parametrize(
        "cpus, env, runs, workers",
        [(2, "500", 5, 2), (4, None, 3, 3), (4, "3", 8, 3), (3, None, 8, 3), (1, "4", 4, None)],
    )
    def test_workers_capped_by_cpus_and_scenarios(self, monkeypatch, cpus, env, runs, workers):
        pools = []
        monkeypatch.setattr(engine.os, "cpu_count", lambda: cpus)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", inline_pool(pools))
        if env is None:
            monkeypatch.delenv("MORPHSURF_THREADS", raising=False)
        else:
            monkeypatch.setenv("MORPHSURF_THREADS", env)
        entries = batch([small_scenario(t_max=0.5)] * runs)
        assert len(entries) == runs and all(e.error is None for e in entries)
        assert pools == ([] if workers is None else [workers])

    def test_failure_reported_per_entry(self, monkeypatch):
        good = small_scenario(t_max=50.0)
        monkeypatch.setenv("MORPHSURF_THREADS", "1")
        entries = batch([good])
        assert entries[0].error is None
        assert isinstance(entries[0], BatchEntry)


class TestWholeRunOracle:
    """engine.run gives, bit for bit, what the straightforward engine of
    ``conftest.run_reference`` gives: the command and the field rebuilt on
    every tick and one substep at a time."""

    @settings(max_examples=100, deadline=None)
    @given(whole_runs())
    # settled at tick 0, away from the reference cell at tick 1 and settled
    # back in it at tick 2: a settle streak that is not reset at tick 1
    # stops the run a tick early
    @example(Scenario(SurfaceConfig(3, 2, 2.0, 2.0, 1.0, 2, 1),
                      PhysicsParams(gravity=0.0981, friction=0.1, tau=0.3, dt=0.01), "wave",
                      objects=(ObjectState(3.0, 1.0),), t_max=5.0,
                      reference_schedule=((0.1, 1, 2), (0.2, 2, 1))))
    def test_run_matches_the_reference(self, sc):
        trace, metrics = run(sc)
        want_trace, want = run_reference(sc)
        for f in dataclasses.fields(SimTrace):
            got, expected = getattr(trace, f.name), getattr(want_trace, f.name)
            assert got.shape == expected.shape and got.tobytes() == expected.tobytes(), f.name
        assert metrics.converged == want.converged
        assert metrics.convergence_time == want.convergence_time
        assert metrics.arrival_times == want.arrival_times
        assert np.array(metrics.path_lengths).tobytes() == np.array(want.path_lengths).tobytes()

    @pytest.mark.parametrize("name", ["paper-s5x6", "paper-s1x10", "uturn"])
    def test_canned_scenarios_match_the_reference(self, name):
        sc = dataclasses.replace(load_scenario(SCENARIOS / f"{name}.json"), t_max=30.0)
        trace, metrics = run(sc)
        want_trace, want = run_reference(sc)
        assert trace.states.tobytes() == want_trace.states.tobytes()
        assert metrics.arrival_times == want.arrival_times
