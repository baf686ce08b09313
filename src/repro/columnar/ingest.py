"""Vectorized report-buffer ingest (the engine's phase 5a).

:class:`BatchIngest` writes the whole report buffer — ``oid -> (x, y,
vx, vy, t)`` floats — into the object store, whose row is the only
record of an object, and groups it into transition cohorts, with a few
array passes over the *whole* buffer.  No per-report object is built:
the five columns come out of the buffer in one ``np.fromiter``.  There
is no "minority" path either, because **every report is one home-cell
transition**:

* a report's cohort key is ``(old home cell, new home cell)`` whatever
  the object's velocity.  Range membership is a function of the point,
  a k-NN circle containing the point has the point's home cell in its
  footprint, and predictive membership is settled by the engine's
  refresh phase — so a predictive object's *swept footprint*
  (:func:`swept_cell_ranges`) is read by that refresh only, never a
  join key;
* **new home cells** for the entire buffer come from the shared batch
  kernel (:func:`repro.grid.cellmath.point_cells_batch`, bit-identical
  to the scalar ``Grid.cell_of``);
* **old home cells** are the store's ``cells`` column at the batch's
  rows, as :meth:`~repro.columnar.store.ColumnarObjectStore.batch_apply`
  hands them back before overwriting them (``-1`` for a new object) —
  the store's columns are the only record of where an object is;
* **transition cohorts** are recovered by one ``lexsort`` over
  ``(key, oid)`` with group-boundary detection; cohorts are emitted in
  first-occurrence order (``minimum.reduceat`` over the original
  positions).  They leave as :class:`CohortColumns` — per-cohort
  ``old``/``new`` cells and member ``start``/``count`` into the sorted
  order — so the columnar evaluator plans the join without ever
  materialising a dict of member lists.

Cohort members come out oid-sorted, which is the order the evaluator
joins and emits them in.  Agreement with the brute-force reference is
pinned by the ingest scenarios (``tests/columnar/test_ingest_golden.py``)
and the lock-step state machine.
"""

from __future__ import annotations

from itertools import chain

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


class CohortColumns:
    """One batch's transition cohorts as columns.

    ``old``/``new``/``start``/``count`` hold one entry per cohort, in
    emission (first-occurrence) order: the cohort's old home cell (-1
    for new objects), its new home cell, and its members as the slice
    ``order[start : start + count]`` — positions into the report-order
    columns ``oids``/``rows`` (``rows``: object-store rows), ascending by
    oid within a cohort.
    """

    __slots__ = ("old", "new", "start", "count", "order", "oids", "rows")

    def __len__(self) -> int:
        return len(self.old)


class BatchIngest:
    """Batch phase 5a for one engine: writes a report buffer through the
    object store's batch door and turns it into :class:`CohortColumns`."""

    __slots__ = ("engine",)

    def __init__(self, engine) -> None:
        self.engine = engine

    def group(self, reports) -> CohortColumns:
        """Write one (non-empty) report buffer into the object store and
        return the batch's cohorts.  Clears the buffer."""
        engine = self.engine
        grid = engine.grid
        count = len(reports)
        oid_arr = np.asarray(list(reports.keys()), dtype=np.int64)
        # The buffer's (x, y, vx, vy, t) tuples, row-major, in one pass.
        x_arr, y_arr, vx_arr, vy_arr, t_arr = np.fromiter(
            chain.from_iterable(reports.values()), np.float64, 5 * count
        ).reshape(count, 5).T
        reports.clear()

        new_cells = point_cells_batch(x_arr, y_arr, grid, np)
        cols = CohortColumns()
        cols.oids = oid_arr
        cols.rows, old_cells = engine._ostore.batch_apply(
            oid_arr, x_arr, y_arr, vx_arr, vy_arr, t_arr, new_cells
        )

        # --- cohort grouping: sort by (transition key, oid), find the
        # group boundaries, emit groups by first occurrence in report
        # order.
        n_cells = grid.n * grid.n
        key = (old_cells + np.int64(1)) * np.int64(n_cells) + new_cells
        order = np.lexsort((oid_arr, key))
        sorted_key = key[order]
        boundary = np.empty(count, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_key[1:], sorted_key[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        # `order` holds report positions, so the minimum per group is
        # its first occurrence in report order.
        perm = np.argsort(np.minimum.reduceat(order, starts), kind="stable")
        group_keys = sorted_key[starts][perm]
        cols.order = order
        cols.old = group_keys // n_cells - 1
        cols.new = group_keys % n_cells
        cols.start = starts[perm]
        cols.count = np.diff(np.append(starts, count))[perm]
        return cols
