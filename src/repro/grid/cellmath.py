"""Home-cell arithmetic shared by both pipelines, scalar and batch.

The clamped truncate-divide below is the *definition* of a point's home
cell: ``Grid.cell_of`` uses the scalar form, and the columnar batch
ingest applies the vectorized form to a whole report buffer.  Both live
here so the two can never drift — the batch kernel's cohort keys must be
bit-identical to the reference's cells or the two pipelines' answers
diverge.

Truncation parity: Python's ``int()`` on a float and numpy's
``.astype(np.int64)`` both truncate toward zero (C cast semantics), so
a marginally out-of-world coordinate like ``x = min_x - 0.3`` yields
``-0`` either way before clamping pins it to the border cell.  The
hypothesis suite (``tests/grid/test_cellmath.py``) pins this on
boundary coordinates.
"""

from __future__ import annotations

__all__ = [
    "cell_rect_set",
    "clamp_axis_index",
    "point_cell",
    "point_cells_batch",
    "ragged_arange",
    "rect_cell_ranges_batch",
    "rect_cell_strips_batch",
]


def clamp_axis_index(value: float, origin: float, step: float, n: int) -> int:
    """The clamped index of ``value`` along one grid axis.

    Points on shared cell boundaries land in the higher-index cell
    (truncate-divide), except on the world's outer maximum edge which
    folds back into the last row/column via the clamp.
    """
    index = int((value - origin) / step)
    if index < 0:
        return 0
    last = n - 1
    return last if index > last else index


def point_cell(
    x: float,
    y: float,
    min_x: float,
    min_y: float,
    cell_w: float,
    cell_h: float,
    n: int,
) -> int:
    """Flattened home-cell index ``row * n + col`` of one point."""
    return (
        clamp_axis_index(y, min_y, cell_h, n) * n
        + clamp_axis_index(x, min_x, cell_w, n)
    )


def cell_rect_set(first: int, last: int, width: int, n: int) -> frozenset[int]:
    """The cells of one rectangle of cells — ``width`` columns wide, from
    its lowest cell id ``first`` to its highest ``last`` — as the
    ``frozenset`` the grid index stores for a footprint."""
    if last - first < width:  # one grid row
        return frozenset(range(first, last + 1))
    return frozenset(
        [
            base + col
            for base in range(first, last - width + 2, n)
            for col in range(width)
        ]
    )


def _axis_indices_batch(values, origin: float, step: float, n: int, np):
    """:func:`clamp_axis_index` over a float64 ndarray (int64 result)."""
    indices = ((values - origin) / step).astype(np.int64)
    np.clip(indices, 0, n - 1, out=indices)
    return indices


def point_cells_batch(xs, ys, grid, np):
    """Home cells of a whole coordinate batch, bit-identical to
    :func:`point_cell` element for element.

    ``xs``/``ys`` are float64 ndarrays of finite coordinates (report
    ingestion clamps to the world, but any value within int64 cast
    range is handled identically to the scalar path); ``np`` is the
    caller's numpy module.  Returns an int64 ndarray of cell ids.
    """
    world = grid.world
    n = grid.n
    rows = _axis_indices_batch(ys, world.min_y, grid.cell_height, n, np)
    rows *= n
    rows += _axis_indices_batch(xs, world.min_x, grid.cell_width, n, np)
    return rows


def rect_cell_ranges_batch(min_xs, min_ys, max_xs, max_ys, grid, np):
    """The cell ranges of a whole batch of rectangles — the vectorised
    twin of ``Grid.cells_overlapping``'s clip-then-truncate arithmetic,
    exactly as :func:`point_cells_batch` is the twin of ``cell_of``.

    Returns ``(col_lo, col_hi, row_lo, row_hi, hit)``: inclusive int64
    index ranges per rectangle plus a bool mask of the rectangles that
    share at least a boundary point with the world.  Rectangle ``i``
    overlaps exactly the cells ``row * n + col`` for ``row`` in
    ``row_lo[i]..row_hi[i]`` and ``col`` in ``col_lo[i]..col_hi[i]``
    when ``hit[i]``, and no cell otherwise (its ranges are then the
    clamped border indices and carry no meaning).
    """
    world = grid.world
    n = grid.n
    hit = (
        (min_xs <= world.max_x)
        & (world.min_x <= max_xs)
        & (min_ys <= world.max_y)
        & (world.min_y <= max_ys)
    )
    cell_w = grid.cell_width
    cell_h = grid.cell_height
    col_lo = _axis_indices_batch(
        np.maximum(min_xs, world.min_x), world.min_x, cell_w, n, np
    )
    col_hi = _axis_indices_batch(
        np.minimum(max_xs, world.max_x), world.min_x, cell_w, n, np
    )
    row_lo = _axis_indices_batch(
        np.maximum(min_ys, world.min_y), world.min_y, cell_h, n, np
    )
    row_hi = _axis_indices_batch(
        np.minimum(max_ys, world.max_y), world.min_y, cell_h, n, np
    )
    return col_lo, col_hi, row_lo, row_hi, hit


def ragged_arange(starts, counts, np):
    """``concatenate([arange(s, s + c) for s, c in zip(starts, counts)])``
    without the loop, plus — per element — the index of the segment it
    came from.  Returns ``(owner, values)``, both int64, segment-major.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    owner = np.repeat(np.arange(len(counts)), counts)
    values = np.arange(total) + np.repeat(starts - (ends - counts), counts)
    return owner, values


def rect_cell_strips_batch(col_lo, col_hi, row_lo, row_hi, n: int, np):
    """Cut every rectangle of cell ranges into one *strip* per grid row:
    a run of consecutive cell ids ``first .. first + width - 1``.

    Returns ``(owner, first, width)`` — the rectangle each strip came
    from, rectangle-major and bottom row first.  A rectangle with
    ``row_hi < row_lo`` yields no strip.  Everything ragged over cells —
    a query's footprint, the objects homed under a rectangle — is one
    :func:`ragged_arange` over these strips.
    """
    owner, rows = ragged_arange(row_lo, row_hi - row_lo + 1, np)
    return owner, rows * n + col_lo[owner], (col_hi - col_lo + 1)[owner]
