"""Columnar (struct-of-arrays) stores for objects and queries.

A containment test over a million (query, object) pairs wants the four
query bounds and the four object coordinates as flat ``float64``
columns.  The object store is not a mirror of anything: an object's
row — ``oid, x, y, vx, vy, t, cell`` — is the only record of it, and
``engine.objects`` is a read-only mapping that materialises an
``ObjectState`` from a row on access.  Two design rules:

* Columns are stdlib ``array.array`` buffers.  Scalar writes (one query
  move, one removal) cost an index assignment; the kernels view the very
  same buffers zero-copy through ``np.frombuffer``.  Views must be
  re-taken after any append (``array`` reallocates); the kernels take
  them fresh per batch.
* Rows are dense and unordered, with swap-remove deletion.  An
  identifier's row can change on *any* removal, so row handles are only
  valid between store mutations — the evaluator resolves rows per
  evaluation and caches them keyed on :attr:`ColumnarQueryStore.version`.

An object keeps no previous location: :meth:`ColumnarObjectStore.batch_apply`
hands back what it overwrote — each reported row's old home cell and old
coordinates, NaN for a new object — and the report join classifies each
reported object's transition from those, recomputing prior membership
*geometrically* (a range answer is exactly the set of objects inside the
region, so "was a member" == "old location inside current bounds").
Every containment test on NaN is False, exactly the "was not a member of
anything" a fresh object needs.  Both report doors clamp into the world,
so every stored coordinate lies in it.

The ``cells`` column is the only record of where an object is: the
engine keeps no grid index.  :class:`HomeCells`
is that column sorted by cell (a permutation; offsets are binary
searches), cut by :meth:`ColumnarObjectStore.home_cells` at most once
per store ``version``, and its :meth:`~HomeCells.gather` is the one
ragged gather every array pass that needs "the objects under these
cells" shares.  An object's swept footprint is not stored at all: it is
a function of its ``x, y, vx, vy, t, cell`` row, recomputed where it is
needed.

The query store is the same for queries: a query's row — its kind,
region bounds, k-NN centre, radius and ``k``, predictive horizon and
``t`` — is the only record of it, and ``engine.queries`` is a read-only
mapping that materialises a query state from a row on access.

Every answer is one run of :attr:`ColumnarQueryStore.keys`, the sorted
int64 *answer keys* ``query row << 32 | object row`` (rows, not ids: an
id may be any int64).  A pass merges its changes in O(answers +
changed) (:meth:`~ColumnarQueryStore.toggle`); a swap-remove on either
side rewrites the moved row's keys, an O(answers) pass paid only in a
cycle with removals.
"""

from __future__ import annotations

from array import array
from itertools import repeat

import numpy as np

from repro.geometry import Rect
from repro.grid.cellmath import ragged_arange, rect_cell_strips_batch

#: Query-kind codes.
KIND_RANGE = 0
KIND_KNN = 1
KIND_PREDICTIVE = 2

_NAN = float("nan")

#: An answer key is ``query row << ROW_BITS | object row``.
ROW_BITS = 32
ROW_MASK = (1 << ROW_BITS) - 1


def answer_keys(qrows, orows):
    """The answer keys of aligned query and object rows (int64)."""
    return qrows << ROW_BITS | orows


def key_rows(keys):
    """``(query rows, object rows)`` of answer keys."""
    return keys >> ROW_BITS, keys & ROW_MASK


def holds(sorted_keys, keys):
    """Per key of ``keys``, whether the ascending ``sorted_keys`` holds
    it: one binary search each (a bool array)."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    at = np.searchsorted(sorted_keys, keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


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
    """Parallel arrays of object state: oid, x, y, velocity, report
    time, and home cell.

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
        "vxs",
        "vys",
        "ts",
        "cells",
        "_arrays",
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
        self.vxs = array("d")
        self.vys = array("d")
        self.ts = array("d")
        self.cells = array("q")
        self._arrays = (self.oids, self.xs, self.ys, self.vxs, self.vys, self.ts, self.cells)
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
        each report's row and what it overwrote, ndarrays aligned with
        ``oids``: ``(rows, prev_cells, prev_xs, prev_ys)`` — the row now
        holding the report (int64), and its home cell (int64, ``-1`` for
        an oid that had no row) and coordinates (float64, NaN for an oid
        that had no row: a member of nothing under every containment
        test).

        The oids must be **distinct** within the batch (the engine's
        report buffer is a dict, so they are) and the columns aligned
        ndarrays (float64 coordinates/velocities/times, int64 cells).
        New rows are bulk-appended via ``frombytes`` and existing rows
        updated by gather/scatter through zero-copy ``frombuffer`` views
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
        if len(fresh):
            # Bulk-append new rows first: an array with numpy views
            # over it refuses to grow.
            base = len(self.oids)
            for offset, oid in enumerate(oids[fresh].tolist()):
                row_of[oid] = base + offset
            rows[fresh] = np.arange(base, base + len(fresh))
            for column, values in zip(self._arrays, (oids, xs, ys, vxs, vys, ts, cells)):
                column.frombytes(values[fresh].tobytes())
        prev_cells = np.full(count, -1, dtype=np.int64)
        prev_xs = np.full(count, _NAN)
        prev_ys = np.full(count, _NAN)
        if len(known):
            target = rows[known]
            cells_v = np.frombuffer(self.cells, dtype=np.int64)
            xs_v = np.frombuffer(self.xs, dtype=np.float64)
            ys_v = np.frombuffer(self.ys, dtype=np.float64)
            prev_cells[known] = cells_v[target]
            prev_xs[known] = xs_v[target]
            prev_ys[known] = ys_v[target]
            cells_v[target] = cells[known]
            xs_v[target] = xs[known]
            ys_v[target] = ys[known]
            np.frombuffer(self.vxs, dtype=np.float64)[target] = vxs[known]
            np.frombuffer(self.vys, dtype=np.float64)[target] = vys[known]
            np.frombuffer(self.ts, dtype=np.float64)[target] = ts[known]
        return rows, prev_cells, prev_xs, prev_ys

    def remove(self, oid: int) -> int:
        """Swap-remove ``oid``'s row, into which the last row moves;
        returns that row.  Unknown oids raise ``KeyError``."""
        row = self._row_of.pop(oid)
        self.version += 1
        last = len(self.oids) - 1
        if row != last:
            self._row_of[self.oids[last]] = row
            for column in self._arrays:
                column[row] = column[last]
        for column in self._arrays:
            column.pop()
        return row

    def remove_many(self, oids):
        """Swap-remove every row of ``oids`` (distinct, each stored);
        returns where each row went: an int64 array over the old rows,
        the new row or ``-1`` for a removed one."""
        count = len(self.oids)
        origin = np.arange(count)
        for oid in oids:
            row = self.remove(oid)
            origin[row] = origin[len(self.oids)]
        remap = np.full(count, -1, dtype=np.int64)
        remap[origin[: len(self.oids)]] = np.arange(len(self.oids))
        return remap

    def cell_counts(self, n_cells: int):
        """Objects per home cell, one int64 count per cell."""
        cells = np.frombuffer(self.cells, dtype=np.int64)
        return np.bincount(cells, minlength=n_cells)

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


#: The query store's ``array`` columns and their typecodes, in the order
#: :meth:`ColumnarQueryStore.add` takes a row's values.
_QUERY_COLUMNS = (
    ("qids", "q"), ("kinds", "b"),
    ("min_xs", "d"), ("min_ys", "d"), ("max_xs", "d"), ("max_ys", "d"),
    ("cxs", "d"), ("cys", "d"), ("radii", "d"), ("ks", "q"),
    ("horizons", "d"), ("ts", "d"),
)  # fmt: skip


class ColumnarQueryStore:
    """Parallel arrays of query state, one row per query and the only
    record of it: qid, kind code, the region bounds (a range or
    predictive query's), a k-NN query's centre, radius and ``k``, a
    predictive query's horizon, and the time of its last registration
    or move.  A column a kind does not use holds zero.  Every answer is
    one run of :attr:`keys`, the sorted int64 answer keys ``query row <<
    ROW_BITS | object row``.

    ``version`` says "the range CSR must be re-cut": it bumps when a row
    is added or removed, or when a range query's bounds change — not
    when a k-NN centre or radius, a predictive region, or a ``t`` is
    written, so a re-solve every evaluation never invalidates the
    evaluator's cache.  The ``kinds`` column is the only record of
    which queries are k-NN or predictive (:meth:`rows_of`).
    """

    __slots__ = (
        *(name for name, _ in _QUERY_COLUMNS), "_arrays", "_keys", "_starts", "_row_of", "version"
    )

    def __init__(self) -> None:
        for name, typecode in _QUERY_COLUMNS:
            setattr(self, name, array(typecode))
        self._arrays = tuple(getattr(self, name) for name, _ in _QUERY_COLUMNS)
        self.keys = np.empty(0, dtype=np.int64)
        self._row_of: dict[int, int] = {}
        self.version = 0

    def __len__(self) -> int:
        return len(self.qids)

    def __contains__(self, qid: int) -> bool:
        return qid in self._row_of

    def row_of(self, qid: int) -> int:
        """The current row of ``qid`` (valid until the next add or remove)."""
        return self._row_of[qid]

    def add(
        self,
        qid: int,
        kind: int,
        min_x: float = 0.0,
        min_y: float = 0.0,
        max_x: float = 0.0,
        max_y: float = 0.0,
        *,
        cx: float = 0.0,
        cy: float = 0.0,
        k: int = 0,
        horizon: float = 0.0,
        t: float = 0.0,
    ) -> int:
        """Append a new query's row, its answer empty and its radius 0;
        returns the row."""
        self.version += 1
        row = len(self.qids)
        self._row_of[qid] = row
        values = (qid, kind, min_x, min_y, max_x, max_y, cx, cy, 0.0, k, horizon, t)
        for column, value in zip(self._arrays, values):
            column.append(value)
        return row

    def move_bounds(self, rows, min_xs, min_ys, max_xs, max_ys) -> None:
        """New region bounds for the existing ``rows`` (distinct), as one
        scatter per column; ``version`` bumps if a range row is among
        them."""
        self.version += bool((np.frombuffer(self.kinds, np.int8)[rows] == KIND_RANGE).any())
        for column, values in zip(
            (self.min_xs, self.min_ys, self.max_xs, self.max_ys),
            (min_xs, min_ys, max_xs, max_ys),
        ):
            np.frombuffer(column, dtype=np.float64)[rows] = values

    def remove(self, qid: int) -> None:
        """Swap-remove ``qid``'s row and its answer; the last row and
        its answer keys move into the hole.  Unknown qids raise
        ``KeyError``."""
        row = self._row_of.pop(qid)
        self.version += 1
        last = len(self.qids) - 1
        keys = self.keys
        lo, hi, tail = np.searchsorted(keys, np.array((row, row + 1, last)) << ROW_BITS)
        moved = keys[tail:] - ((last - row) << ROW_BITS) if row != last else keys[:0]
        self.keys = np.concatenate((keys[:lo], moved, keys[hi:tail]))
        if row != last:
            self._row_of[self.qids[last]] = row
            for column in self._arrays:
                column[row] = column[last]
        for column in self._arrays:
            column.pop()

    # ------------------------------------------------------------------
    # Answers: runs of the sorted key array
    # ------------------------------------------------------------------

    @property
    def keys(self):
        """The sorted int64 answer keys ``query row << ROW_BITS | object
        row``; every write replaces the array."""
        return self._keys

    @keys.setter
    def keys(self, keys) -> None:
        self._keys = keys
        self._starts = None

    def run_starts(self):
        """Where each row's run starts in :attr:`keys`, plus the end
        (int64): cut once per key array and row count, so the commits
        between two evaluations share one cut."""
        return np.frombuffer(self._cut(), dtype=np.int64)

    def run_span(self, row: int) -> tuple[int, int]:
        """``(start, stop)`` of query ``row``'s run in :attr:`keys`, as
        Python ints off the cut: one answer read pays no numpy call."""
        starts = self._cut()
        return starts[row], starts[row + 1]

    def _cut(self) -> array:
        starts = self._starts
        if starts is None or len(starts) != len(self.qids) + 1:
            first = np.arange(len(self.qids) + 1) << ROW_BITS
            starts = self._starts = array("q", np.searchsorted(self._keys, first).tobytes())
        return starts

    def answer_rows(self, row: int):
        """The object rows of query ``row``'s answer (int64, ascending)."""
        start, stop = self.run_span(row)
        return self._keys[start:stop] & ROW_MASK

    def run_keys(self, rows):
        """The answer keys of query ``rows`` (int64), flat: ``(owner,
        keys)`` — per key, the position in ``rows`` of the query holding
        it — query by query, each run ascending."""
        first = rows << ROW_BITS
        starts = np.searchsorted(self._keys, first)
        owner, at = ragged_arange(starts, np.searchsorted(self._keys, first + 1 + ROW_MASK) - starts, np)
        return owner, self._keys[at]

    def members(self, rows):
        """:meth:`run_keys` as ``(owner, object rows)``."""
        owner, keys = self.run_keys(rows)
        return owner, keys & ROW_MASK

    def answer_sizes(self):
        """Every query's answer size, by row (int64)."""
        return np.diff(self.run_starts())

    def toggle(self, leave, enter) -> None:
        """Apply changed memberships as answer keys: drop ``leave``
        (each held, distinct) and add ``enter`` (each absent, distinct)
        — one merge into one new array, never a re-sort of the whole."""
        if not (len(leave) or len(enter)):
            return  # keep the array, and with it its run starts
        kept = np.delete(self._keys, np.searchsorted(self._keys, np.sort(leave)))
        # Released before the merge allocates: at most two arrays alive.
        self.keys = kept
        merged = np.concatenate((kept, np.sort(enter)))
        # A stable sort is timsort: it finds the two sorted runs and
        # merges them.
        merged.sort(kind="stable")
        self.keys = merged

    def relabel_objects(self, remap):
        """Follow the object store's swap-removes (``remap``: old object
        row -> new row, ``-1`` for a removed one): drop the removed
        objects' keys and rewrite the moved ones'.  Returns the dropped
        keys, ascending."""
        keys = self.keys
        rows = keys & ROW_MASK
        new = remap[rows]
        stay = new == rows
        gone = new < 0
        moved = ~(stay | gone)
        rewritten = np.sort(keys[moved] - rows[moved] + new[moved])
        kept = keys[stay]
        self.keys = np.insert(kept, np.searchsorted(kept, rewritten), rewritten)
        return keys[gone]

    def region_at(self, row: int) -> Rect:
        """The region of the range or predictive query in ``row``."""
        return Rect(self.min_xs[row], self.min_ys[row], self.max_xs[row], self.max_ys[row])

    def rows_of(self, kind: int):
        """The rows of every ``kind`` query, ascending by qid (int64)."""
        rows = np.flatnonzero(np.frombuffer(self.kinds, dtype=np.int8) == kind)
        return rows[np.argsort(np.frombuffer(self.qids, dtype=np.int64)[rows])]

    def bounds_views(self):
        """Fresh zero-copy numpy views ``(min_x, min_y, max_x, max_y)``.

        Only valid until the next ``add`` or ``remove``.
        """
        return (
            _f64_view(self.min_xs),
            _f64_view(self.min_ys),
            _f64_view(self.max_xs),
            _f64_view(self.max_ys),
        )
