"""Vectorized report-buffer ingest (the engine's phase 5a).

:class:`BatchIngest` applies the whole report buffer to object state,
the grid index and the object store, and groups it into transition
cohorts, with a few array passes over the *whole* buffer — there is no
"minority" path, because **every report is one home-cell
transition**:

* a report's cohort key is ``(old home cell, new home cell)`` whatever
  the object's velocity.  Range membership is a function of the point,
  a k-NN circle containing the point has the point's home cell in its
  footprint, and predictive membership is settled by the engine's
  refresh phase — so a predictive object's *swept footprint* is index
  placement and cell churn only, never a join key;
* **new home cells** for the entire buffer come from the shared batch
  kernel (:func:`repro.grid.cellmath.point_cells_batch`, bit-identical
  to the scalar ``Grid.cell_of``);
* **old home cells** are gathered from a dense ``oid -> cell`` int64
  column kept in lockstep with the grid index.  The column holds the
  home cell while the object's index footprint is exactly ``{home}``;
  :data:`MULTI_CELL` marks an object whose footprint is wider, and its
  old home is then ``cell_of`` its stored location, read before the
  state loop overwrites it;
* **transition cohorts** are recovered by one ``lexsort`` over
  ``(key, oid)`` with group-boundary detection; cohorts are emitted in
  first-occurrence order (``minimum.reduceat`` over the original
  positions).  They leave as :class:`CohortColumns` — per-cohort
  ``old``/``new`` cells and member ``start``/``count`` into the sorted
  order — so the columnar evaluator plans the join without ever
  materialising a dict of member lists;
* **swept footprints** of every velocity-carrying row are computed in
  one pass (:func:`repro.grid.cellmath.rect_cell_ranges_batch`,
  operation for operation what ``_object_footprint`` does); the only
  per-object work left is a ``frozenset`` and a ``place_object`` for
  rows whose footprint actually changed.  An object's footprint is
  always a rectangle of cells, so "unchanged" is decided from the new
  rectangle's size and two corner probes, without building it;
* **grid reassignment** of the single-cell rows runs one pass per
  touched *cell* via :meth:`~repro.grid.index.GridIndex.bulk_drain_points`
  / ``bulk_fill_points``;
* **columnar store writes** for the whole batch go through one
  :meth:`~repro.columnar.store.ColumnarObjectStore.batch_apply`.

A hostile identifier cannot turn any of this off.  An oid the dense
column has no slot for (negative, or beyond the sparsity limit the
column grows up to) is an *out-of-column* row: its old home comes from
the object's stored location, its index placement takes the per-object
step, and the column write is skipped — inside the same call, with the
rest of the batch on arrays.

Cohort members come out oid-sorted, which is the order the evaluator
joins and emits them in.  Agreement with the per-object reference is
pinned by the ingest scenarios (``tests/columnar/test_ingest_golden.py``)
and the lock-step state machine.

Like the rest of this package, the module imports nothing from
``repro.core`` — the engine injects its state class.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter

import numpy as np

from repro.grid.cellmath import (
    cell_rect_set,
    point_cells_batch,
    rect_cell_ranges_batch,
)

#: C-level column extractors for the report buffer's (location,
#: velocity, t) tuples.
_GET_X = attrgetter("x")
_GET_Y = attrgetter("y")
_GET_VX = attrgetter("vx")
_GET_VY = attrgetter("vy")
_GET_T = itemgetter(2)

#: Dense-column sentinel: oid currently has no grid placement.
NOT_INDEXED = -1
#: Dense-column sentinel: oid's index footprint is wider than its home
#: cell (a swept predictive footprint); the exact cells live in the
#: grid index's hash index.
MULTI_CELL = -2

#: The dense column is worth its memory only while oids are reasonably
#: dense.  An oid beyond this multiple of the live population (plus
#: slack for small worlds) stays out of the column and takes the
#: per-object placement step instead.
_MAX_SPARSITY = 8
_SPARSITY_SLACK = 65_536


def _cell_runs(cells_sorted):
    """Group boundaries of a sorted cell array: parallel lists of
    (cell id, run start, run stop) for zipping."""
    n = len(cells_sorted)
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(cells_sorted[1:], cells_sorted[:-1], out=boundary[1:])
    starts = np.flatnonzero(boundary)
    stops = np.append(starts[1:], n)
    return cells_sorted[starts].tolist(), starts.tolist(), stops.tolist()


def swept_cell_ranges(x, y, vx, vy, t, home, horizon: float, grid, np):
    """The index footprint of every row as inclusive cell ranges
    ``(col_lo, col_hi, row_lo, row_hi)`` — ``_object_footprint``
    operation for operation: the cells under the bounding rectangle of
    the trajectory over ``[t, t + horizon]``, or the clamped ``home``
    cell when that rectangle misses the world entirely (a stationary
    row's degenerate rectangle *is* its home cell)."""
    n = grid.n
    col_lo = col_hi = home % n
    row_lo = row_hi = home // n
    if horizon > 0:
        dt = (t + horizon) - t
        # A finite but absurd velocity overflows to inf silently, as the
        # scalar footprint's Python floats do.
        with np.errstate(over="ignore"):
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
    emission (first-occurrence) order: the cohort's old home cell
    (:data:`NOT_INDEXED` for new objects), its new home cell, and its
    members as the slice ``order[start : start + count]`` — positions
    into the report-order columns ``oids``/``states``/``rows``
    (``rows``: object-store rows), ascending by oid within a cohort.
    ``scalar_rows`` counts the rows that needed a per-object index
    placement.
    """

    __slots__ = (
        "old",
        "new",
        "start",
        "count",
        "order",
        "oids",
        "states",
        "rows",
        "scalar_rows",
    )

    def __len__(self) -> int:
        return len(self.old)


class BatchIngest:
    """Batch phase 5a for one engine: owns the dense ``oid -> cell``
    column and turns a report buffer into :class:`CohortColumns`."""

    __slots__ = ("engine", "state_cls", "_cell_by_oid")

    def __init__(self, engine, state_cls) -> None:
        self.engine = engine
        self.state_cls = state_cls
        self._cell_by_oid = None

    # ------------------------------------------------------------------
    # Dense-column maintenance
    # ------------------------------------------------------------------

    def forget(self, oid: int) -> None:
        """Mark ``oid`` unindexed (the engine's removal phase)."""
        column = self._cell_by_oid
        if column is not None and 0 <= oid < len(column):
            column[oid] = NOT_INDEXED

    def cell_hint(self, oid: int) -> int | None:
        """The dense column's view of ``oid`` — ``None`` for an
        out-of-column oid (tests/invariants only)."""
        column = self._cell_by_oid
        if column is None or not 0 <= oid < len(column):
            return None
        return int(column[oid])

    def _cover(self, oid_arr, population: int):
        """Grow the dense column over this batch's in-limit oids and
        return the batch's in-column mask: exactly the oids the column
        has a slot for, so no slot is ever left unwritten."""
        column = self._cell_by_oid
        have = 0 if column is None else len(column)
        limit = max(have, _MAX_SPARSITY * max(population, 1) + _SPARSITY_SLACK)
        inside = (oid_arr >= 0) & (oid_arr < limit)
        needed = int(oid_arr[inside].max()) + 1 if inside.any() else 0
        if column is None or needed > have:
            fresh = np.full(
                max(needed, 1024, (have * 3) // 2), NOT_INDEXED, dtype=np.int64
            )
            if column is not None:
                fresh[:have] = column
            # An object can only be indexed above the old bound if it was
            # out-of-column so far (the limit moves with the population).
            for oid, cells in self.engine.index.iter_object_cells():
                if have <= oid < len(fresh):
                    fresh[oid] = (
                        next(iter(cells)) if len(cells) == 1 else MULTI_CELL
                    )
            self._cell_by_oid = fresh
            # Growth has headroom, so the column may end beyond `limit`.
            inside = (oid_arr >= 0) & (oid_arr < len(fresh))
        return inside

    # ------------------------------------------------------------------
    # The batch kernel
    # ------------------------------------------------------------------

    def group(self, reports, churned_cells: set) -> CohortColumns:
        """Apply one (non-empty) report buffer to object state, the
        grid index and the object store; add every cell whose
        population or residents' motion changed to ``churned_cells``;
        return the batch's cohorts.  Clears the buffer."""
        engine = self.engine
        objects = engine.objects
        grid = engine.grid
        index = engine.index
        oid_list = list(reports.keys())
        count = len(oid_list)
        oid_arr = np.asarray(oid_list, dtype=np.int64)

        # --- old home cells, before the state loop overwrites the
        # stored locations they may have to be read from.
        in_column = self._cover(oid_arr, len(objects) + count)
        column = self._cell_by_oid
        old_cells = np.where(
            in_column, column[np.where(in_column, oid_arr, 0)], NOT_INDEXED
        )
        # Rows placed per object: multi-cell holders and out-of-column
        # oids now, velocity-carrying rows below.  The first two read
        # their old home from the stored location.
        scalar = (old_cells == MULTI_CELL) | ~in_column
        stored_idx = np.asarray(
            [i for i in np.flatnonzero(scalar).tolist() if oid_list[i] in objects],
            dtype=np.int64,
        )
        if len(stored_idx):
            stored = [
                objects[oid_list[i]].location for i in stored_idx.tolist()
            ]
            old_cells[stored_idx] = point_cells_batch(
                np.fromiter(map(_GET_X, stored), np.float64, count=len(stored)),
                np.fromiter(map(_GET_Y, stored), np.float64, count=len(stored)),
                grid,
                np,
            )

        # --- extraction.  Coordinate columns come straight out of the
        # buffer via C-level passes (list comprehensions + fromiter over
        # attrgetter maps — no per-report Python frame); the one
        # remaining per-report Python loop applies each report to its
        # ObjectState, exactly as the per-object path does.
        vals = reports.values()
        locs = [v[0] for v in vals]
        vels = [v[1] for v in vals]
        f64 = np.float64
        x_arr = np.fromiter(map(_GET_X, locs), f64, count=count)
        y_arr = np.fromiter(map(_GET_Y, locs), f64, count=count)
        vx_arr = np.fromiter(map(_GET_VX, vels), f64, count=count)
        vy_arr = np.fromiter(map(_GET_VY, vels), f64, count=count)
        t_arr = np.fromiter(map(_GET_T, vals), f64, count=count)
        state_cls = self.state_cls
        states_buf: list = []
        add_state = states_buf.append
        get_state = objects.get
        for oid, (location, velocity, t) in reports.items():
            state = get_state(oid)
            if state is None:
                state = state_cls(oid, location, velocity, t)
                objects[oid] = state
            else:
                state.location = location
                state.velocity = velocity
                state.t = t
            add_state(state)
        reports.clear()

        new_cells = point_cells_batch(x_arr, y_arr, grid, np)
        horizon = engine.prediction_horizon
        if horizon > 0:
            scalar |= (vx_arr != 0.0) | (vy_arr != 0.0)

        cols = CohortColumns()
        cols.oids = oid_arr
        cols.states = states_buf
        cols.rows = engine._ostore.batch_apply(
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
        churned_cells.update(np.unique(cols.new).tolist())
        churned_cells.update(np.unique(cols.old[cols.old >= 0]).tolist())

        # --- grid reassignment of the single-cell rows, one pass per
        # *cell* rather than per transition: drain every old cell of
        # its departing members, then fill every new cell with its
        # arrivals (new objects and movers alike).  Net bucket/footprint
        # state is identical to per-transition moves — set operations
        # commute and stay-put members never leave their bucket.
        sorted_old = old_cells[order]
        sorted_new = new_cells[order]
        moved = sorted_old != sorted_new
        scalar_idx = np.flatnonzero(scalar)
        if len(scalar_idx):
            moved &= ~scalar[order]
        if moved.any():
            oid_sorted = oid_arr[order]
            dep_mask = moved & (sorted_old != np.int64(NOT_INDEXED))
            if dep_mask.any():
                # Already sorted by (old, new), so departures are
                # contiguous runs of old cell.
                dep_oids = oid_sorted[dep_mask].tolist()
                drain = index.bulk_drain_points
                for cell, lo, hi in zip(*_cell_runs(sorted_old[dep_mask])):
                    drain(cell, dep_oids[lo:hi])
            arr_new = sorted_new[moved]
            arr_order = np.argsort(arr_new, kind="stable")
            arr_oids = oid_sorted[moved][arr_order].tolist()
            fill = index.bulk_fill_points
            for cell, lo, hi in zip(*_cell_runs(arr_new[arr_order])):
                fill(cell, arr_oids[lo:hi])
        column[oid_arr[in_column]] = new_cells[in_column]

        cols.scalar_rows = 0
        if len(scalar_idx):
            cols.scalar_rows = self._place_scalar_rows(
                scalar_idx,
                oid_arr[scalar_idx],
                in_column[scalar_idx],
                old_cells[scalar_idx] != NOT_INDEXED,
                new_cells[scalar_idx],
                (x_arr, y_arr, vx_arr, vy_arr, t_arr),
                churned_cells,
            )
        return cols

    def _place_scalar_rows(
        self, idx, oids, in_column, known, home, motion, churned_cells
    ) -> int:
        """Index placement for the rows that may hold (or leave) a
        multi-cell footprint, plus out-of-column oids.  Footprints are
        computed for all of them in one pass — ``_object_footprint``
        operation for operation — and only a row whose footprint
        changed pays for a ``frozenset`` and a ``place_object``.
        Returns how many rows took that per-object step (out-of-column
        rows always count)."""
        engine = self.engine
        grid = engine.grid
        n = grid.n
        col_lo, col_hi, row_lo, row_hi = swept_cell_ranges(
            *(column[idx] for column in motion),
            home,
            engine.prediction_horizon,
            grid,
            np,
        )
        width = col_hi - col_lo + 1
        area = width * (row_hi - row_lo + 1)
        self._cell_by_oid[oids[in_column]] = np.where(area > 1, MULTI_CELL, home)[
            in_column
        ]
        index = engine.index
        object_cells = index.object_cells
        place_object = index.place_object
        churn = churned_cells.update
        placed = 0
        for oid, known, first, last, size, wide, out in zip(
            oids.tolist(),
            known.tolist(),
            (row_lo * n + col_lo).tolist(),
            (row_hi * n + col_hi).tolist(),
            area.tolist(),
            width.tolist(),
            (~in_column).tolist(),
        ):
            old_fs = object_cells(oid) if known else None
            if old_fs is not None:
                churn(old_fs)
                # Footprints are cell rectangles: same size and both
                # corners inside means the same rectangle.
                if len(old_fs) == size and first in old_fs and last in old_fs:
                    placed += out
                    continue
            new_fs = cell_rect_set(first, last, wide, n)
            place_object(oid, new_fs)
            churn(new_fs)
            placed += 1
        return placed
