"""Geometry of the uniform N x N space partitioning."""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro.geometry import Point, Rect
from repro.grid.cellmath import clamp_axis_index


@dataclass(frozen=True, slots=True)
class Grid:
    """An ``n x n`` uniform partitioning of a rectangular world.

    Cells are identified by a single flattened integer index
    ``cell = row * n + col`` so they can be used directly as dictionary
    keys and set members.  Points on shared cell boundaries are assigned
    to the higher-index cell, except on the world's outer maximum edges
    which fold back into the last row/column, so every point in the world
    has exactly one home cell.
    """

    world: Rect
    n: int

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError(f"grid needs a positive cell count, got {self.n}")
        if self.world.width <= 0 or self.world.height <= 0:
            raise ValueError("grid world must have positive area")

    # ------------------------------------------------------------------
    # Cell addressing
    # ------------------------------------------------------------------

    @property
    def cell_count(self) -> int:
        return self.n * self.n

    @property
    def cell_width(self) -> float:
        return self.world.width / self.n

    @property
    def cell_height(self) -> float:
        return self.world.height / self.n

    def _col_of(self, x: float) -> int:
        return clamp_axis_index(x, self.world.min_x, self.cell_width, self.n)

    def _row_of(self, y: float) -> int:
        return clamp_axis_index(y, self.world.min_y, self.cell_height, self.n)

    def cell_of(self, p: Point) -> int:
        """The flattened cell index of the cell containing ``p``.

        Points outside the world are clamped to the nearest border cell:
        a location report that drifts marginally out of the configured
        world (GPS noise) must still land somewhere deterministic.
        """
        return self._row_of(p.y) * self.n + self._col_of(p.x)

    def cell_rect(self, cell: int) -> Rect:
        """The rectangle covered by ``cell``."""
        if not 0 <= cell < self.cell_count:
            raise IndexError(f"cell {cell} out of range 0..{self.cell_count - 1}")
        row, col = divmod(cell, self.n)
        return Rect(
            self.world.min_x + col * self.cell_width,
            self.world.min_y + row * self.cell_height,
            self.world.min_x + (col + 1) * self.cell_width,
            self.world.min_y + (row + 1) * self.cell_height,
        )

    # ------------------------------------------------------------------
    # Region clipping
    # ------------------------------------------------------------------

    def cells_overlapping(self, rect: Rect) -> Iterator[int]:
        """All cells whose area intersects ``rect`` (clamped to the world).

        This is how query regions, k-NN circles (via their bounding
        rectangle) and predictive trajectory MBRs are clipped onto the
        grid.
        """
        clipped = rect.intersection(self.world)
        if clipped is None:
            return
        col_lo = self._col_of(clipped.min_x)
        col_hi = self._col_of(clipped.max_x)
        row_lo = self._row_of(clipped.min_y)
        row_hi = self._row_of(clipped.max_y)
        for row in range(row_lo, row_hi + 1):
            base = row * self.n
            for col in range(col_lo, col_hi + 1):
                yield base + col

    def cells_overlapping_set(self, rect: Rect) -> frozenset[int]:
        """Like :meth:`cells_overlapping` but materialised as a frozenset."""
        return frozenset(self.cells_overlapping(rect))

    def cells_overlapping_into(self, rect: Rect, out: list[int]) -> list[int]:
        """Scratch-buffer variant of :meth:`cells_overlapping`.

        Clears ``out``, fills it with the overlapped cell ids, and
        returns it.  Callers on hot paths keep one scratch list alive
        and pass it to every call, so the per-invocation generator and
        set allocations of the other variants disappear.

        Contract: the returned list is ``out`` itself — it is only
        valid until the next call that reuses the same buffer, and a
        shared buffer makes this method non-reentrant (one in-flight
        call per buffer).
        """
        out.clear()
        clipped = rect.intersection(self.world)
        if clipped is None:
            return out
        col_lo = self._col_of(clipped.min_x)
        col_hi = self._col_of(clipped.max_x)
        row_lo = self._row_of(clipped.min_y)
        row_hi = self._row_of(clipped.max_y)
        append = out.append
        for row in range(row_lo, row_hi + 1):
            base = row * self.n
            for col in range(col_lo, col_hi + 1):
                append(base + col)
        return out
