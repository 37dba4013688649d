"""Metamorphic properties of engine.run: two changes to a scenario's object
list whose effect on the run is known without an oracle.  Reversing the
objects reverses their results, and an object at rest at the reference
cell's centre changes no other result.

The runs are in the three multi-cell modes whose command depends only on
which cells are occupied (hardware_split folds the objects in order, and
single_cell follows the first).  The objects are paper-s5x6's seeded
placements, listed explicitly: all 20 at seed 7, or one of the first four
at the file's seed 1 alone.  Or they are the whole-run oracle's draws in
those modes, with no hardware split and no reference schedule.  Every
comparison is bitwise.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from morphsurf import engine
from morphsurf.dynamics import ObjectState
from morphsurf.engine import run
from morphsurf.scenario import load_scenario

from conftest import whole_runs

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# The SimTrace fields that do not depend on the objects' order or count.
SHARED = ("t", "dz_col", "dz_row", "col_heights", "row_heights")
# The modes whose command depends only on which cells are occupied.
MODES = ("wave", "distributed", "funnel")


def listed(sc):
    """``sc`` with its objects, seeded or given, listed explicitly."""
    objects = tuple(ObjectState(*map(float, o)) for o in engine.initial_state(sc).T)
    return dataclasses.replace(sc, objects=objects, random_count=0)


def placed(mode, seed=7):
    """paper-s5x6 at ``seed`` in ``mode``, its placements listed as objects."""
    return listed(load_scenario(SCENARIOS / "paper-s5x6.json", mode=mode, seed=seed))


def order_free(sc):
    """``sc`` with its objects listed, no hardware split and no reference
    schedule."""
    params = dataclasses.replace(sc.params, hardware_split=False)
    return listed(dataclasses.replace(sc, params=params, reference_schedule=()))


@pytest.fixture(scope="module", params=MODES)
def base(request):
    sc = placed(request.param)
    return sc, *run(sc)


def with_centre_object(sc):
    """``sc`` with one more object, at rest at the reference cell's centre."""
    cfg = sc.cfg
    centre = ObjectState((cfg.ref_col - 0.5) * cfg.W, (cfg.ref_row - 0.5) * cfg.L)
    return dataclasses.replace(sc, objects=sc.objects + (centre,))


def assert_shared_fields_equal(got, want):
    for name in SHARED:
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def bits(path_lengths):
    return np.array(path_lengths, dtype=float).tobytes()


def test_an_object_at_rest_at_the_reference_centre_changes_nothing_else(base):
    # 21 objects are read in other metric blocks than 20 (engine._METRIC_STEPS),
    # so on the longer runs this also shows that block boundaries move no bit
    sc, trace, metrics = base
    got_trace, got = run(with_centre_object(sc))
    count = len(sc.objects)
    assert got_trace.states[:, :count].tobytes() == trace.states.tobytes()
    assert_shared_fields_equal(got_trace, trace)
    assert got.arrival_times[:count] == metrics.arrival_times
    assert got.path_lengths[:count] == metrics.path_lengths
    assert got.convergence_time == metrics.convergence_time
    assert (got.arrival_times[count], got.path_lengths[count]) == (0.0, 0.0)


def test_reversing_the_objects_reverses_their_columns(base):
    sc, trace, metrics = base
    got_trace, got = run(dataclasses.replace(sc, objects=sc.objects[::-1]))
    assert got_trace.states[:, ::-1].tobytes() == trace.states.tobytes()
    assert_shared_fields_equal(got_trace, trace)
    assert got.arrival_times[::-1] == metrics.arrival_times
    assert got.path_lengths[::-1] == metrics.path_lengths
    assert got.convergence_time == metrics.convergence_time


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", range(4))
def test_an_object_at_rest_at_the_reference_centre_leaves_a_lone_object_as_it_was(mode, k):
    # a lone object's path length is summed in the order of each of several,
    # so the count of objects in the run moves none of its bits
    sc = placed(mode, seed=1)
    alone = dataclasses.replace(sc, objects=sc.objects[k : k + 1])
    trace, metrics = run(alone)
    got_trace, got = run(with_centre_object(alone))
    assert got_trace.states[:, :1].tobytes() == trace.states.tobytes()
    assert_shared_fields_equal(got_trace, trace)
    assert got.arrival_times[:1] == metrics.arrival_times
    assert got.path_lengths[:1] == metrics.path_lengths


@settings(max_examples=100, deadline=None)
@given(whole_runs(MODES).map(order_free))
def test_drawn_runs_reverse_and_ignore_a_centre_object(sc):
    # Each object's path hangs on the others only through the cells they
    # occupy, so advance may finish any one of them alone.
    trace, metrics = run(sc)
    count = len(sc.objects)

    got_trace, got = run(dataclasses.replace(sc, objects=sc.objects[::-1]))
    assert got_trace.states[:, ::-1].tobytes() == trace.states.tobytes()
    assert_shared_fields_equal(got_trace, trace)
    assert got.arrival_times[::-1] == metrics.arrival_times
    assert bits(got.path_lengths[::-1]) == bits(metrics.path_lengths)
    assert got.convergence_time == metrics.convergence_time

    got_trace, got = run(with_centre_object(sc))
    assert got_trace.states[:, :count].tobytes() == trace.states.tobytes()
    assert_shared_fields_equal(got_trace, trace)
    assert got.arrival_times[:count] == metrics.arrival_times
    assert bits(got.path_lengths[:count]) == bits(metrics.path_lengths)
    assert got.convergence_time == metrics.convergence_time
    assert (got.arrival_times[count], got.path_lengths[count]) == (0.0, 0.0)
