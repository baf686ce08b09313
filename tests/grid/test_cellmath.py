"""Scalar/batch home-cell bit-identity (the shared cellmath kernel).

``Grid.cell_of`` and the batch kernel ``point_cells_batch`` must agree
bit for bit on every coordinate — including cell-boundary points, the
world edge, and out-of-world coordinates that clamp — because the batch
ingest path substitutes one for the other, and the two pipelines must
agree on every object's home cell.  Hypothesis hunts the boundary
cases; a deterministic sweep pins exact cell-edge multiples.  The
engine's query footprints, computed from geometry, are held to the
scalar ``Grid.cells_overlapping_set`` the same way.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.columnar import KIND_KNN, KIND_RANGE
from repro.core import IncrementalEngine
from repro.geometry import Circle, Point, Rect
from repro.grid import Grid
from repro.grid.cellmath import (
    clamp_axis_index,
    point_cell,
    point_cells_batch,
    rect_cell_ranges_batch,
)

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

# Coordinates straddling the world: in-world, clamped, and boundary.
coords = st.floats(
    min_value=-0.5, max_value=1.5, allow_nan=False, allow_infinity=False
)
grid_sizes = st.integers(min_value=1, max_value=64)


@given(grid_sizes, coords, coords)
def test_scalar_kernel_matches_grid_cell_of(n, x, y):
    grid = Grid(UNIT, n)
    p = Point(min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0))
    assert (
        point_cell(p.x, p.y, 0.0, 0.0, grid.cell_width, grid.cell_height, n)
        == grid.cell_of(p)
    )


@given(grid_sizes, st.lists(st.tuples(coords, coords), min_size=1, max_size=64))
def test_batch_kernel_matches_scalar_on_arbitrary_points(n, points):
    grid = Grid(UNIT, n)
    xs = np.asarray([x for x, _ in points])
    ys = np.asarray([y for _, y in points])
    got = point_cells_batch(xs, ys, grid, np).tolist()
    want = [
        point_cell(x, y, 0.0, 0.0, grid.cell_width, grid.cell_height, n)
        for x, y in points
    ]
    assert got == want


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64])
def test_batch_kernel_bit_identical_on_cell_boundaries(n):
    """Exact cell-edge multiples: k/n for every k, plus the nearest
    floats on either side — where truncate-vs-floor or rounding drift
    between the scalar and vectorized forms would first show."""
    grid = Grid(UNIT, n)
    edges = []
    for k in range(n + 1):
        edge = k / n
        edges.extend(
            (
                max(0.0, min(1.0, v))
                for v in (
                    edge,
                    float(np.nextafter(edge, -1.0)),
                    float(np.nextafter(edge, 2.0)),
                )
            )
        )
    xs = np.asarray([x for x in edges for _ in edges])
    ys = np.asarray([y for _ in edges for y in edges])
    got = point_cells_batch(xs, ys, grid, np).tolist()
    want = [grid.cell_of(Point(x, y)) for x, y in zip(xs.tolist(), ys.tolist())]
    assert got == want


@given(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    grid_sizes,
)
def test_clamp_axis_index_stays_in_range(value, n):
    idx = clamp_axis_index(value, 0.0, 1.0 / n, n)
    assert 0 <= idx <= n - 1


# ----------------------------------------------------------------------
# rect_cell_ranges_batch: the vectorised twin of Grid.cells_overlapping
# ----------------------------------------------------------------------


def enumerate_ranges(rects, grid):
    """Expand the batch kernel's ranges into per-rectangle cell lists."""
    cols = [np.asarray(c, dtype=np.float64) for c in zip(*rects)]
    col_lo, col_hi, row_lo, row_hi, hit = (
        a.tolist() for a in rect_cell_ranges_batch(*cols, grid, np)
    )
    return [
        [
            row * grid.n + col
            for row in range(row_lo[i], row_hi[i] + 1)
            for col in range(col_lo[i], col_hi[i] + 1)
        ]
        if hit[i]
        else []
        for i in range(len(rects))
    ]


def ordered(a, b):
    return (a, b) if a <= b else (b, a)


# Rectangles inside, straddling and entirely off the world; a == b
# draws make degenerate (segment and point) rectangles.
rect_coords = st.floats(
    min_value=-1.0, max_value=2.0, allow_nan=False, allow_infinity=False
)
rects = st.tuples(rect_coords, rect_coords, rect_coords, rect_coords).map(
    lambda v: (min(v[0], v[2]), min(v[1], v[3]), max(v[0], v[2]), max(v[1], v[3]))
)


@given(grid_sizes, st.lists(rects, min_size=1, max_size=32))
def test_rect_ranges_enumerate_exactly_cells_overlapping(n, batch):
    grid = Grid(UNIT, n)
    want = [list(grid.cells_overlapping(Rect(*r))) for r in batch]
    assert enumerate_ranges(batch, grid) == want


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 64])
def test_rect_ranges_bit_identical_on_cell_edges(n):
    """Corners on exact cell-edge multiples and the floats either side
    of them (``nextafter``), paired into every ordered rectangle —
    degenerate ones included — plus rectangles just off each world
    edge, which must report no cell at all."""
    grid = Grid(UNIT, n)
    values = []
    for k in sorted({0, 1, n // 2, n - 1, n}):
        edge = k / n
        values.extend(
            (
                edge,
                float(np.nextafter(edge, -1.0)),
                float(np.nextafter(edge, 2.0)),
            )
        )
    values.extend((-0.25, 1.25))
    spans = [ordered(a, b) for a in values for b in values]
    batch = [
        (x0, y0, x1, y1) for x0, x1 in spans for y0, y1 in spans[:: len(values)]
    ] + [(x0, y0, x1, y1) for y0, y1 in spans for x0, x1 in spans[:: len(values)]]
    want = [list(grid.cells_overlapping(Rect(*r))) for r in batch]
    got = enumerate_ranges(batch, grid)
    assert got == want
    assert any(not cells for cells in want)
    assert n == 1 or any(len(cells) > 1 for cells in want)


# ----------------------------------------------------------------------
# The engine's query footprints: arithmetic twins of the scalar cells
# ----------------------------------------------------------------------


def edge_coords(n):
    """Off-world and in-world coordinates, cell edges ``k / n`` and the
    floats one ulp either side of them."""
    edges = st.integers(0, n).map(lambda k: k / n)
    nudged = st.tuples(edges, st.sampled_from((-np.inf, 0.0, np.inf))).map(
        lambda v: float(np.nextafter(v[0], v[1])) if v[1] else v[0]
    )
    return st.one_of(rect_coords, st.floats(-1e3, 1e3), nudged)


def expand(ranges, n):
    """Per footprint, its cells as a frozenset."""
    return [
        frozenset(
            row * n + col
            for row in range(row_lo, row_hi + 1)
            for col in range(col_lo, col_hi + 1)
        )
        for col_lo, col_hi, row_lo, row_hi in ranges.T.tolist()
    ]


@given(grid_sizes, st.data())
def test_engine_footprints_match_scalar_cells(n, data):
    """A rectangle's footprint is ``Grid.cells_overlapping_set`` of it,
    a circle's that of its bounding rectangle, each falling back to the
    home cell of its centre when it misses the world — off-world
    centres, radius 0 and edges nudged one ulp included.  Circles reach
    to a drawn coordinate, so their bounds land on and beside edges."""
    engine = IncrementalEngine(world=UNIT, grid_size=n)
    grid = engine.grid
    evaluator = engine._columnar_evaluator
    coord = edge_coords(n)
    points = data.draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=16))
    circles = []
    for x, y in points:
        base = data.draw(st.sampled_from((x, y)))
        reach = data.draw(st.one_of(st.just(base), coord))
        circles.append(Circle(Point(x, y), abs(reach - base)))
    rects = [
        Rect(min(x0, x1), min(y0, y1), max(x0, x1), max(y0, y1))
        for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])
    ]
    # Query-store rows, circles and rectangles interleaved.
    qstore = engine._qstore
    rows = []
    for circle, rect in zip(circles, rects):
        center = circle.center
        rows.append(qstore.add(len(rows), KIND_KNN, cx=center.x, cy=center.y, k=1))
        qstore.radii[rows[-1]] = circle.radius
        bounds = (rect.min_x, rect.min_y, rect.max_x, rect.max_y)
        rows.append(qstore.add(len(rows), KIND_RANGE, *bounds))
    got = expand(evaluator.footprints(np.array(rows)), n)
    for got_circle, got_rect, circle, rect in zip(got[0::2], got[1::2], circles, rects):
        want = grid.cells_overlapping_set(circle.bounding_rect())
        assert got_circle == (want or {grid.cell_of(circle.center)})
        want = grid.cells_overlapping_set(rect)
        assert got_rect == (want or {grid.cell_of(rect.center)})
