"""Mutable grid index over objects and queries.

One :class:`GridIndex` instance is the heart of the location-aware
server: it holds, per cell, the identifiers of the queries whose region
overlaps the cell and of the objects located in the cell.  Auxiliary
hash indexes map each identifier back to its current cell set, which is
what lets an update locate (and clear) the *old* position without a
spatial search — the role the paper assigns to its "object index" and
"query index" (compare the LUR-tree's linked list and the FUR-tree's
hash table).

The engine uses the query side only: there an object's cell lives in
the object store's ``cells`` column.  The object side serves the
snapshot baseline (:class:`repro.baselines.snapshot.SnapshotEngine`).
"""

from __future__ import annotations

from collections.abc import Set
from dataclasses import dataclass, field

import numpy as np

from repro.geometry import Point, Rect
from repro.grid.partition import Grid
from repro.obs import MetricsRegistry

#: Upper bounds for the cell-occupancy histogram (objects per cell).
OCCUPANCY_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0
)

#: Shared sentinel returned for empty cells by the zero-copy retrieval
#: methods.  Immutable, so accidental mutation of "no residents" fails
#: loudly instead of corrupting a shared object.
_EMPTY: frozenset[int] = frozenset()


@dataclass(slots=True)
class CellBucket:
    """The contents of one grid cell: resident objects and overlapping queries."""

    objects: set[int] = field(default_factory=set)
    queries: set[int] = field(default_factory=set)

    def is_empty(self) -> bool:
        return not self.objects and not self.queries


class GridIndex:
    """Cell buckets plus identifier->cells auxiliary indexes.

    The index is intentionally ignorant of object/query *state* (answer
    lists, regions, timestamps live in the engine); it deals purely in
    identifiers and cell memberships, which keeps re-indexing on updates
    cheap and keeps a single source of truth for each piece of state.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._cells: dict[int, CellBucket] = {}
        self._object_cells: dict[int, frozenset[int]] = {}
        self._query_cells: dict[int, frozenset[int]] = {}
        # Reusable clipping buffer for the *_overlapping retrieval
        # methods (see Grid.cells_overlapping_into); makes them
        # allocation-free but non-reentrant.
        self._scratch_cells: list[int] = []

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def object_count(self) -> int:
        return len(self._object_cells)

    @property
    def query_count(self) -> int:
        return len(self._query_cells)

    @property
    def populated_cell_count(self) -> int:
        return len(self._cells)

    def contains_query(self, qid: int) -> bool:
        return qid in self._query_cells

    def query_cells(self, qid: int) -> frozenset[int]:
        """The cells currently overlapped by query ``qid``."""
        return self._query_cells[qid]

    # ------------------------------------------------------------------
    # Object side
    # ------------------------------------------------------------------

    def place_object(self, oid: int, cells: frozenset[int]) -> None:
        """Insert or move object ``oid`` so it occupies exactly ``cells``.

        A plain moving object occupies one cell (its location's home
        cell); a predictive object occupies every cell its trajectory MBR
        overlaps.
        """
        if not cells:
            raise ValueError(f"object {oid} must occupy at least one cell")
        old = self._object_cells.get(oid, frozenset())
        for cell in old - cells:
            self._remove_member(cell, oid, is_query=False)
        for cell in cells - old:
            self._cells.setdefault(cell, CellBucket()).objects.add(oid)
        self._object_cells[oid] = cells

    def place_object_at(self, oid: int, location: Point) -> None:
        """Convenience: place a point object at ``location``."""
        self.place_object(oid, frozenset((self.grid.cell_of(location),)))

    def remove_object(self, oid: int) -> None:
        """Remove object ``oid`` entirely; unknown ids raise ``KeyError``."""
        cells = self._object_cells.pop(oid, None)
        if cells is None:
            raise KeyError(f"object {oid} is not indexed")
        for cell in cells:
            self._remove_member(cell, oid, is_query=False)

    # ------------------------------------------------------------------
    # Query side
    # ------------------------------------------------------------------

    def place_query(self, qid: int, cells: frozenset[int]) -> None:
        """Insert or move query ``qid`` so it overlaps exactly ``cells``."""
        if not cells:
            raise ValueError(f"query {qid} must overlap at least one cell")
        old = self._query_cells.get(qid, frozenset())
        buckets = self._cells
        for cell in old - cells:
            self._remove_member(cell, qid, is_query=True)
        for cell in cells - old:
            bucket = buckets.get(cell)
            if bucket is None:
                bucket = buckets[cell] = CellBucket()
            bucket.queries.add(qid)
        self._query_cells[qid] = cells

    def place_query_region(self, qid: int, region: Rect) -> None:
        """Convenience: clip a rectangular query region onto the grid.

        A region that has drifted entirely outside the world still needs
        a home (moving queries follow their clients off the map edge);
        it is clamped to the cell nearest its center.
        """
        cells = self.grid.cells_overlapping_set(region)
        if not cells:
            cells = frozenset((self.grid.cell_of(region.center),))
        self.place_query(qid, cells)

    def remove_query(self, qid: int) -> None:
        """Remove query ``qid`` entirely; unknown ids raise ``KeyError``."""
        cells = self._query_cells.pop(qid, None)
        if cells is None:
            raise KeyError(f"query {qid} is not indexed")
        for cell in cells:
            self._remove_member(cell, qid, is_query=True)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------

    def queries_in_cell(self, cell: int) -> Set[int]:
        """The queries overlapping ``cell`` — a zero-copy live view.

        Aliasing contract: the returned set is the index's own bucket
        storage (or a shared immutable empty sentinel).  It reflects
        subsequent index mutations, MUST NOT be mutated by the caller,
        and must be snapshotted (``set(...)``) before being retained
        across any ``place_*`` / ``remove_*`` call.
        """
        bucket = self._cells.get(cell)
        return bucket.queries if bucket else _EMPTY

    def objects_overlapping(self, rect: Rect) -> set[int]:
        """Candidate objects: all objects registered in cells touching ``rect``.

        Candidates still need an exact geometric check by the caller —
        a cell may extend well beyond ``rect``.  The returned set is a
        fresh copy (callers may mutate it freely).
        """
        found: set[int] = set()
        cells = self._cells
        for cell in self.grid.cells_overlapping_into(rect, self._scratch_cells):
            bucket = cells.get(cell)
            if bucket:
                found.update(bucket.objects)
        return found

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def sample_occupancy(
        self, registry: MetricsRegistry, counts: np.ndarray, objects: int, top_k: int = 5
    ) -> None:
        """Record the grid's occupancy shape into ``registry``.

        ``counts`` holds one object count per cell — the engine passes
        the ``np.bincount`` of its store's ``cells`` column (objects per
        *home* cell).  ``objects`` is the population
        (``grid_indexed_objects``).

        Observes every occupied cell's object count into the
        ``grid_cell_occupancy`` histogram (cumulative across samples —
        the engine samples once per evaluation), refreshes the
        ``grid_populated_cells`` (cells holding an object or a query) /
        ``grid_indexed_objects`` / ``grid_indexed_queries`` gauges, and
        publishes the ``top_k`` hottest cells as
        ``grid_hot_cell_occupancy{rank=...}`` plus the matching
        ``grid_hot_cell_id{rank=...}`` (ties go to the lower cell id) —
        the operator's view of skew (a mis-sized grid shows up as a few
        enormous cells).  Skipped entirely under a disabled (null)
        registry.
        """
        if not registry.enabled:
            return
        buckets = self._cells
        listed = np.fromiter(buckets, np.int64, count=len(buckets))
        cells = np.flatnonzero(counts)
        sizes = counts[cells]
        populated = len(buckets) + int((~np.isin(cells, listed)).sum())
        histogram = registry.histogram(
            "grid_cell_occupancy", buckets=OCCUPANCY_BUCKETS
        )
        for n, times in zip(*np.unique(sizes, return_counts=True)):
            histogram.observe_n(int(n), int(times))
        hottest = np.lexsort((cells, -sizes))[:top_k]
        registry.gauge("grid_populated_cells").set(populated)
        registry.gauge("grid_indexed_objects").set(objects)
        registry.gauge("grid_indexed_queries").set(len(self._query_cells))
        for rank in range(top_k):
            labels = {"rank": str(rank)}
            if rank < len(hottest):
                n, cell = int(sizes[hottest[rank]]), int(cells[hottest[rank]])
            else:  # ranks beyond today's occupied count show no stale cell
                n, cell = 0, -1
            registry.gauge("grid_hot_cell_occupancy", labels=labels).set(n)
            registry.gauge("grid_hot_cell_id", labels=labels).set(cell)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remove_member(self, cell: int, ident: int, is_query: bool) -> None:
        bucket = self._cells[cell]
        if is_query:
            bucket.queries.discard(ident)
        else:
            bucket.objects.discard(ident)
        if bucket.is_empty():
            # Reclaim empty buckets so a sparse world stays sparse.
            del self._cells[cell]
