"""Vectorized report-buffer ingest (the engine's phase 5a).

:func:`ingest_reports` writes the whole report buffer — ``oid -> (x, y,
vx, vy, t)`` floats — into the object store, whose row is the only
record of an object, with a few array passes over the *whole* buffer,
and hands the batch to the report join as :class:`Reports` columns
aligned by report.  No per-report object is built: the five columns
come out of the buffer in one ``np.fromiter``.

* **new home cells** for the entire buffer come from the shared batch
  kernel (:func:`repro.grid.cellmath.point_cells_batch`, bit-identical
  to the scalar ``Grid.cell_of``);
* **old home cells and old coordinates** are what
  :meth:`~repro.columnar.store.ColumnarObjectStore.batch_apply` hands
  back as it overwrites them (``-1`` and NaN for a new object) — the
  store keeps no previous location.

Every report is one home-cell transition whatever the object's
velocity: range membership is a function of the point, a k-NN circle
containing the point has the point's home cell in its footprint, and
predictive membership is settled by the engine's refresh phase — so a
predictive object's *swept footprint* (:func:`swept_cell_ranges`) is
read by that refresh only, never by the join.

Agreement with the brute-force reference is pinned by the ingest
scenarios (``tests/columnar/test_ingest_golden.py``) and the lock-step
state machine.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

import numpy as np

from repro.grid.cellmath import point_cells_batch, rect_cell_ranges_batch


def swept_cell_ranges(x, y, vx, vy, t, home, horizon: float, grid, np):
    """The index footprint of every row as inclusive cell ranges
    ``(col_lo, col_hi, row_lo, row_hi)``: the cells under the bounding
    rectangle of the trajectory over ``[t, t + horizon]``, or the
    clamped ``home`` cell when that rectangle misses the world entirely
    (a stationary row's degenerate rectangle *is* its home cell)."""
    n = grid.n
    col_lo = col_hi = home % n
    row_lo = row_hi = home // n
    if horizon > 0:
        # Finite: both report doors refuse a row whose reach over this
        # very span overflows.
        dt = (t + horizon) - t
        end_x = x + vx * dt
        end_y = y + vy * dt
        c_lo, c_hi, r_lo, r_hi, hit = rect_cell_ranges_batch(
            np.minimum(x, end_x),
            np.minimum(y, end_y),
            np.maximum(x, end_x),
            np.maximum(y, end_y),
            grid,
            np,
        )
        col_lo = np.where(hit, c_lo, col_lo)
        col_hi = np.where(hit, c_hi, col_hi)
        row_lo = np.where(hit, r_lo, row_lo)
        row_hi = np.where(hit, r_hi, row_hi)
    return col_lo, col_hi, row_lo, row_hi


class Reports(NamedTuple):
    """One report buffer as columns aligned by report: the oids and
    their object-store rows, the new coordinates and home cells, and the
    old coordinates and home cells (NaN and ``-1`` for a new object)."""

    oids: np.ndarray
    rows: np.ndarray
    xs: np.ndarray
    ys: np.ndarray
    cells: np.ndarray
    prev_xs: np.ndarray
    prev_ys: np.ndarray
    prev_cells: np.ndarray


def ingest_reports(reports, grid, ostore) -> Reports:
    """Write one (non-empty) report buffer into the object store and
    return it as :class:`Reports`.  Clears the buffer."""
    count = len(reports)
    oids = np.asarray(list(reports.keys()), dtype=np.int64)
    # The buffer's (x, y, vx, vy, t) tuples, row-major, in one pass.
    xs, ys, vxs, vys, ts = np.fromiter(
        chain.from_iterable(reports.values()), np.float64, 5 * count
    ).reshape(count, 5).T
    reports.clear()
    cells = point_cells_batch(xs, ys, grid, np)
    rows, prev_cells, prev_xs, prev_ys = ostore.batch_apply(oids, xs, ys, vxs, vys, ts, cells)
    return Reports(oids, rows, xs, ys, cells, prev_xs, prev_ys, prev_cells)
