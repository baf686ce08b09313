"""Columnar (struct-of-arrays) stores for objects and queries.

A containment test over a million (query, object) pairs wants the four
query bounds and the four object coordinates as flat ``float64``
columns.  Under ``pipeline="columnar"`` the object store is not a
mirror of anything: an object's row — ``oid, x, y, old x/y, vx, vy, t,
cell`` — is the only record of it, and ``engine.objects`` is a
read-only mapping that materialises an ``ObjectState`` from a row on
access.  An answer is its query's ``answer`` set; nothing here copies
it.  Two design rules:

* Columns are stdlib ``array.array`` buffers.  Scalar writes (one query
  move, one removal) cost an index assignment; the kernels view the very
  same buffers zero-copy through ``np.frombuffer``.  Views must be
  re-taken after any append (``array`` reallocates); the kernels take
  them fresh per batch.
* Rows are dense and unordered, with swap-remove deletion.  An
  identifier's row can change on *any* removal, so row handles are only
  valid between store mutations — the evaluator resolves rows per
  evaluation and caches them keyed on :attr:`ColumnarQueryStore.version`.

Object rows also carry the **previous** coordinates (``old_xs`` /
``old_ys``): the batch membership kernel classifies enter/leave/still
transitions by recomputing prior membership *geometrically* (a range
answer is exactly the set of objects inside the region, so "was a
member" == "old location inside current bounds"), which is what lets
the kernel run without any per-pair membership lookup.  New objects get
NaN old coordinates — every containment test on NaN is False, exactly
the "was not a member of anything" a fresh object needs.  Both report
doors clamp into the world, so every stored coordinate lies in it.

The ``cells`` column is the only record of where an object is on the
production path: the grid index holds queries only.  :class:`HomeCells`
is that column sorted by cell (a permutation; offsets are binary
searches), cut by :meth:`ColumnarObjectStore.home_cells` at most once
per store ``version``, and its :meth:`~HomeCells.gather` is the one
ragged gather every array pass that needs "the objects under these
cells" shares.  An object's swept footprint is not stored at all: it is
a function of its ``x, y, vx, vy, t, cell`` row
(:meth:`ColumnarObjectStore.motion_at`), recomputed where it is needed.

Query rows are ``(kind, min_x, min_y, max_x, max_y)`` descriptors, with
zeroed bounds for the k-NN and predictive kinds.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.grid.cellmath import ragged_arange, rect_cell_strips_batch

#: Query-kind codes.
KIND_RANGE = 0
KIND_KNN = 1
KIND_PREDICTIVE = 2

_NAN = float("nan")


def _f64_view(column: array):
    """Zero-copy float64 numpy view over an ``array('d')`` column."""
    if not column:
        return np.empty(0, dtype=np.float64)
    return np.frombuffer(column, dtype=np.float64)


class HomeCells:
    """The objects of one store state bucketed by home cell: ``order``
    is the store's rows sorted by cell and ``cells`` their (ascending)
    cells, so the rows homed in cells ``a..b`` are one slice of
    ``order``, found by binary search.  The columns are the truth — this
    is a sort-by-cell permutation of ``cells``, cut in one array pass,
    and nothing in it is sized by the grid."""

    __slots__ = ("order", "cells")

    def __init__(self, cells, n_cells: int, np) -> None:
        # 16-bit keys take numpy's radix sort (~10x the int64 sort).
        keys = cells.astype(np.uint16) if n_cells <= 1 << 16 else cells
        self.order = np.argsort(keys, kind="stable")
        self.cells = cells[self.order]

    def gather(self, col_lo, col_hi, row_lo, row_hi, n: int, np):
        """The ragged gather ``(cell rects) -> (rect position, store
        row)``: every object homed in a cell of rectangle ``i`` (cell
        ranges as :func:`~repro.grid.cellmath.rect_cell_ranges_batch`
        returns them) as one pair ``(i, row)``, rectangle-major."""
        owner, first, width = rect_cell_strips_batch(
            col_lo, col_hi, row_lo, row_hi, n, np
        )
        start = np.searchsorted(self.cells, first)
        stop = np.searchsorted(self.cells, first + width)
        strip, at = ragged_arange(start, stop - start, np)
        return owner[strip], self.order[at]


class ColumnarObjectStore:
    """Parallel arrays of object state: oid, x, y, old x/y, velocity,
    report time, and home cell.

    ``batch_apply`` is the single write path for position state (the
    engine's batch ingest calls it once per evaluation), ``remove`` the
    single delete path.  ``row_of`` maps an oid to its current row.
    ``version`` counts mutations; :meth:`home_cells` is cut at most
    once per version.
    """

    __slots__ = (
        "oids",
        "xs",
        "ys",
        "old_xs",
        "old_ys",
        "vxs",
        "vys",
        "ts",
        "cells",
        "_row_of",
        "version",
        "_home",
    )

    def __init__(self) -> None:
        self.version = 0
        self._home: tuple[int, HomeCells] | None = None
        self.oids = array("q")
        self.xs = array("d")
        self.ys = array("d")
        self.old_xs = array("d")
        self.old_ys = array("d")
        self.vxs = array("d")
        self.vys = array("d")
        self.ts = array("d")
        self.cells = array("q")
        self._row_of: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self.oids)

    def __contains__(self, oid: int) -> bool:
        return oid in self._row_of

    def row_of(self, oid: int) -> int:
        """The current row of ``oid`` (valid until the next mutation)."""
        return self._row_of[oid]

    def batch_apply(self, oids, xs, ys, vxs, vys, ts, cells):
        """Apply one whole report buffer in a few array passes; returns
        ``(rows, known, prior)``: the batch's store rows as an int64
        ndarray aligned with ``oids`` (the column planner's member rows),
        the batch positions of the oids that already had a row, and
        those rows' :meth:`motion_at` columns as they were before this
        call overwrote them (their old home cells and footprints).

        The oids must be **distinct** within the batch (the engine's
        report buffer is a dict, so they are) and the columns aligned
        ndarrays (float64 coordinates/velocities/times, int64 cells).
        An existing object's current coordinates become its old
        coordinates; a new object gets NaN old coordinates (member of
        nothing under every containment test).  New rows are
        bulk-appended via ``frombytes`` and existing rows updated by
        gather/scatter through zero-copy ``frombuffer`` views
        (``array.array`` buffers are writable, so scatters write
        through).
        """
        self.version += 1
        row_of = self._row_of
        get = row_of.get
        count = len(oids)
        # tolist() + map keeps the lookup loop in C and avoids boxing
        # one np.int64 per element.
        rows = np.fromiter(
            map(get, oids.tolist(), repeat(-1)), dtype=np.int64, count=count
        )
        fresh = np.flatnonzero(rows < 0)
        known = np.flatnonzero(rows >= 0)
        prior = self.motion_at(rows[known])
        if len(fresh):
            # Bulk-append new rows first so the scatter views below are
            # taken after the last reallocation.
            base = len(self.oids)
            for offset, oid in enumerate(oids[fresh].tolist()):
                row_of[oid] = base + offset
            rows[fresh] = np.arange(base, base + len(fresh))
            self.oids.frombytes(oids[fresh].tobytes())
            self.xs.frombytes(xs[fresh].tobytes())
            self.ys.frombytes(ys[fresh].tobytes())
            nan_block = np.full(len(fresh), _NAN).tobytes()
            self.old_xs.frombytes(nan_block)
            self.old_ys.frombytes(nan_block)
            self.vxs.frombytes(vxs[fresh].tobytes())
            self.vys.frombytes(vys[fresh].tobytes())
            self.ts.frombytes(ts[fresh].tobytes())
            self.cells.frombytes(cells[fresh].tobytes())
        if len(fresh) < count:
            target = rows[known]
            xs_v = np.frombuffer(self.xs, dtype=np.float64)
            ys_v = np.frombuffer(self.ys, dtype=np.float64)
            old_xs_v = np.frombuffer(self.old_xs, dtype=np.float64)
            old_ys_v = np.frombuffer(self.old_ys, dtype=np.float64)
            old_xs_v[target] = xs_v[target]
            old_ys_v[target] = ys_v[target]
            xs_v[target] = xs[known]
            ys_v[target] = ys[known]
            np.frombuffer(self.vxs, dtype=np.float64)[target] = vxs[known]
            np.frombuffer(self.vys, dtype=np.float64)[target] = vys[known]
            np.frombuffer(self.ts, dtype=np.float64)[target] = ts[known]
            np.frombuffer(self.cells, dtype=np.int64)[target] = cells[known]
        return rows, known, prior

    def remove(self, oid: int) -> None:
        """Swap-remove ``oid``'s row; unknown oids raise ``KeyError``."""
        row = self._row_of.pop(oid)
        self.version += 1
        last = len(self.oids) - 1
        if row != last:
            moved = self.oids[last]
            self.oids[row] = moved
            self.xs[row] = self.xs[last]
            self.ys[row] = self.ys[last]
            self.old_xs[row] = self.old_xs[last]
            self.old_ys[row] = self.old_ys[last]
            self.vxs[row] = self.vxs[last]
            self.vys[row] = self.vys[last]
            self.ts[row] = self.ts[last]
            self.cells[row] = self.cells[last]
            self._row_of[moved] = row
        self.oids.pop()
        self.xs.pop()
        self.ys.pop()
        self.old_xs.pop()
        self.old_ys.pop()
        self.vxs.pop()
        self.vys.pop()
        self.ts.pop()
        self.cells.pop()

    def motion_at(self, rows):
        """``(x, y, vx, vy, t, cell)`` of object-store ``rows`` as
        arrays: everything an object's home cell and swept footprint are
        a function of."""
        f64 = np.float64
        return tuple(
            np.frombuffer(column, dtype=dtype)[rows]
            for column, dtype in (
                (self.xs, f64),
                (self.ys, f64),
                (self.vxs, f64),
                (self.vys, f64),
                (self.ts, f64),
                (self.cells, np.int64),
            )
        )

    def cell_counts(self, n_cells: int):
        """Objects per home cell, one int64 count per cell."""
        cells = np.frombuffer(self.cells, dtype=np.int64)
        return np.bincount(cells, minlength=n_cells)

    def coord_views(self):
        """Fresh zero-copy numpy views ``(x, y, old_x, old_y)``.

        Only valid until the next append/remove.
        """
        return (
            _f64_view(self.xs),
            _f64_view(self.ys),
            _f64_view(self.old_xs),
            _f64_view(self.old_ys),
        )

    def xy_views(self):
        """Fresh zero-copy numpy views ``(x, y)``."""
        return _f64_view(self.xs), _f64_view(self.ys)

    def home_cells(self, n_cells: int) -> HomeCells:
        """The :class:`HomeCells` of the current state, cut on first use
        after a mutation."""
        cached = self._home
        if cached is None or cached[0] != self.version:
            cells = np.frombuffer(self.cells, dtype=np.int64)
            cached = self._home = (self.version, HomeCells(cells, n_cells, np))
        return cached[1]


class ColumnarQueryStore:
    """Parallel arrays of query descriptors: qid, kind code, and range
    bounds (zeroed for k-NN and predictive kinds).

    ``version`` increments on **every** mutation; downstream caches
    (the evaluator's per-cell candidate entries, whose contents embed
    store rows and range bounds) key their validity on it.  k-NN
    footprint re-placements in the grid index do *not* touch this store
    — deliberately, since they happen every evaluation and never affect
    a cached range/predictive entry.
    """

    __slots__ = (
        "qids",
        "kinds",
        "min_xs",
        "min_ys",
        "max_xs",
        "max_ys",
        "_row_of",
        "version",
    )

    def __init__(self) -> None:
        self.qids = array("q")
        self.kinds = array("b")
        self.min_xs = array("d")
        self.min_ys = array("d")
        self.max_xs = array("d")
        self.max_ys = array("d")
        self._row_of: dict[int, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self.qids)

    def __contains__(self, qid: int) -> bool:
        return qid in self._row_of

    def row_of(self, qid: int) -> int:
        """The current row of ``qid`` (valid until the next mutation)."""
        return self._row_of[qid]

    def put(
        self,
        qid: int,
        kind: int,
        min_x: float = 0.0,
        min_y: float = 0.0,
        max_x: float = 0.0,
        max_y: float = 0.0,
    ) -> int:
        """Insert or update one query's descriptor row; returns the row."""
        self.version += 1
        row = self._row_of.get(qid)
        if row is None:
            row = len(self.qids)
            self._row_of[qid] = row
            self.qids.append(qid)
            self.kinds.append(kind)
            self.min_xs.append(min_x)
            self.min_ys.append(min_y)
            self.max_xs.append(max_x)
            self.max_ys.append(max_y)
        else:
            self.kinds[row] = kind
            self.min_xs[row] = min_x
            self.min_ys[row] = min_y
            self.max_xs[row] = max_x
            self.max_ys[row] = max_y
        return row

    def move_bounds(self, rows, min_xs, min_ys, max_xs, max_ys) -> None:
        """New bounds for the existing ``rows`` (distinct), as one
        scatter per column — ``put`` once per row."""
        self.version += len(rows)
        for column, values in zip(
            (self.min_xs, self.min_ys, self.max_xs, self.max_ys),
            (min_xs, min_ys, max_xs, max_ys),
        ):
            np.frombuffer(column, dtype=np.float64)[rows] = values

    def remove(self, qid: int) -> None:
        """Swap-remove ``qid``'s row; unknown qids raise ``KeyError``."""
        self.version += 1
        row = self._row_of.pop(qid)
        last = len(self.qids) - 1
        if row != last:
            moved = self.qids[last]
            self.qids[row] = moved
            self.kinds[row] = self.kinds[last]
            self.min_xs[row] = self.min_xs[last]
            self.min_ys[row] = self.min_ys[last]
            self.max_xs[row] = self.max_xs[last]
            self.max_ys[row] = self.max_ys[last]
            self._row_of[moved] = row
        self.qids.pop()
        self.kinds.pop()
        self.min_xs.pop()
        self.min_ys.pop()
        self.max_xs.pop()
        self.max_ys.pop()

    def descriptor(self, qid: int) -> tuple[int, float, float, float, float]:
        """``qid``'s row as ``(kind, min_x, min_y, max_x, max_y)``."""
        row = self._row_of[qid]
        return (
            self.kinds[row],
            self.min_xs[row],
            self.min_ys[row],
            self.max_xs[row],
            self.max_ys[row],
        )

    def bounds_views(self):
        """Fresh zero-copy numpy views ``(min_x, min_y, max_x, max_y)``.

        Only valid until the next ``put`` of a new qid or ``remove``.
        """
        return (
            _f64_view(self.min_xs),
            _f64_view(self.min_ys),
            _f64_view(self.max_xs),
            _f64_view(self.max_ys),
        )
