"""Mutable grid index over objects, for the snapshot baseline.

A :class:`GridIndex` holds, per cell, the identifiers of the objects
located in the cell, plus a hash index mapping each identifier back to
its current cell set — what lets an update locate (and clear) the *old*
position without a spatial search, the role the paper assigns to its
"object index" (compare the LUR-tree's linked list and the FUR-tree's
hash table).

It serves the snapshot baseline
(:class:`repro.baselines.snapshot.SnapshotEngine`) and the update-cost
ablation.  The incremental engine keeps no index: an object's cell is
its store row's ``cells`` column, and a query's cells are arithmetic on
its geometry (:meth:`repro.columnar.ColumnarEvaluator._footprint_ranges`).
"""

from __future__ import annotations

from repro.geometry import Point, Rect
from repro.grid.partition import Grid


class GridIndex:
    """Cell buckets of object ids plus the id -> cells auxiliary index.

    The index is intentionally ignorant of object *state* (locations and
    timestamps live with the caller); it deals purely in identifiers and
    cell memberships, which keeps re-indexing on updates cheap.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        self._cells: dict[int, set[int]] = {}
        self._object_cells: dict[int, frozenset[int]] = {}
        # Reusable clipping buffer for objects_overlapping (see
        # Grid.cells_overlapping_into); makes it allocation-free but
        # non-reentrant.
        self._scratch_cells: list[int] = []

    @property
    def object_count(self) -> int:
        return len(self._object_cells)

    @property
    def populated_cell_count(self) -> int:
        return len(self._cells)

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
            self._remove_member(cell, oid)
        for cell in cells - old:
            self._cells.setdefault(cell, set()).add(oid)
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
            self._remove_member(cell, oid)

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
                found.update(bucket)
        return found

    def _remove_member(self, cell: int, oid: int) -> None:
        bucket = self._cells[cell]
        bucket.discard(oid)
        if not bucket:
            # Reclaim empty buckets so a sparse world stays sparse.
            del self._cells[cell]
