"""Float-contract canaries: the numpy and formatting orders the outputs rely on.

The goldens pin hashes of whole runs, so a numpy or Python upgrade that
changes a summation order would fail them with no hint of the cause.  Each
test here feeds one crafted input, the 16 addends ``[1.0] + [2**-53] * 15``,
to the order it names and to the function of src/ that relies on it.  A
sequential fold gives 1.0 (each 2**-53 is half an ulp of 1.0 and rounds
away), numpy's pairwise sum 1 + 7 * 2**-52, and an exact sum (``math.fsum``)
1 + 8 * 2**-52, so each order gives its own result.
"""

import numpy as np

from morphsurf.dynamics import advance, cell_indices
from morphsurf.engine import SimTrace, compute_metrics
from morphsurf.scenario import read_trace_csv, write_trace_csv
from morphsurf.surface import SurfaceConfig

from conftest import trace_of_fields

TINY = 2.0**-53
ADDENDS = [1.0] + [TINY] * 15
PAIRWISE = 1.0000000000000016  # 1 + 7 * 2**-52
CELL = SurfaceConfig(n=1, m=1, W=2.0, L=2.0, stroke=1.0, ref_col=1, ref_row=1)


def trace_of(x: np.ndarray) -> SimTrace:
    """A trace on CELL whose objects have the x positions ``x`` (rows,
    objects) at y = 1."""
    rows, objects = x.shape
    states = np.zeros((rows, objects, 4))
    states[:, :, 0], states[:, :, 1] = x, 1.0
    return trace_of_fields(np.arange(rows) * 0.1, states, np.zeros((rows, 1)),
                           np.zeros((rows, 1)), np.zeros((rows, 2)), np.zeros((rows, 2)))


def zigzag(objects: int) -> np.ndarray:
    """Positions 0, 1, 1 - 2**-53, 1, ... whose 16 steps are ADDENDS."""
    x = np.where(np.arange(17) % 2 == 1, 1.0, 1.0 - TINY)
    x[0] = 0.0
    return np.repeat(x[:, None], objects, axis=1)


def test_add_accumulate_is_sequential():
    # np.add.accumulate adds in order; dynamics.advance forms the positions
    # of a held-cell recurrence with it, p[s] = p[s-1] + v[s] * dt, or on
    # wide rows with one addition per row in the same order
    assert np.add.accumulate(np.array(ADDENDS))[-1] == 1.0
    # with no force and no friction each of 15 substeps of 0.5 s adds 2**-53
    x, y, vx, vy = np.array([1.0]), np.array([1.0]), np.array([2 * TINY]), np.zeros(1)
    zero = np.zeros((1, 1))
    advance(x, y, vx, vy, zero, zero, CELL, friction=0.0, dt=0.5, substeps=15,
            cells=cell_indices(x, y, CELL))
    assert x.tolist() == [1.0]
    # on rows of 128 values or more advance adds the rows one after another
    x, y, vx, vy = np.ones(64), np.ones(64), np.full(64, 2 * TINY), np.zeros(64)
    advance(x, y, vx, vy, zero, zero, CELL, friction=0.0, dt=0.5, substeps=15,
            cells=cell_indices(x, y, CELL))
    assert x.tolist() == [1.0] * 64
    # compute_metrics adds each object's steps to its running path length
    # with it, down a column of a (steps, objects) block, for one object as
    # for several
    assert compute_metrics(trace_of(zigzag(1)), CELL, settle=0.1)[2] == [1.0]
    assert compute_metrics(trace_of(zigzag(2)), CELL, settle=0.1)[2] == [1.0, 1.0]


def test_trace_csv_round_trips_every_bit(tmp_path):
    # write_trace_csv prints with scenario.FLOAT_FMT, %.17g; at %.16g the
    # pairwise sum would read back as 1 + 9 * 2**-52
    trace = trace_of(np.array([[PAIRWISE], [1.0 - TINY]]))
    trace.t[:] = PAIRWISE, 1.0 + 2.0**-52
    write_trace_csv(trace, tmp_path / "trace.csv")
    back = read_trace_csv(tmp_path / "trace.csv")
    assert back.t.tobytes() == trace.t.tobytes()
    assert back.states.tobytes() == trace.states.tobytes()
