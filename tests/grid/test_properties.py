"""Property-based tests for the grid (hypothesis)."""

from hypothesis import given, strategies as st

from repro.geometry import Point, Rect
from repro.grid import Grid, GridIndex

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

unit_coords = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
grid_sizes = st.integers(min_value=1, max_value=24)


@st.composite
def unit_rects(draw):
    x1, x2 = sorted((draw(unit_coords), draw(unit_coords)))
    y1, y2 = sorted((draw(unit_coords), draw(unit_coords)))
    return Rect(x1, y1, x2, y2)


class TestPartitionProperties:
    @given(grid_sizes, unit_coords, unit_coords)
    def test_home_cell_contains_point(self, n, x, y):
        grid = Grid(UNIT, n)
        p = Point(x, y)
        assert grid.cell_rect(grid.cell_of(p)).contains_point(p)

    @given(grid_sizes, unit_rects())
    def test_clipping_is_sound_and_complete(self, n, rect):
        """Clipped cells really touch the rect (soundness, judged on the
        closed cell rects), and every home cell of a sampled in-rect
        point is clipped (completeness under the grid's half-open
        boundary convention — a point on a shared cell border belongs to
        the higher cell, so the lower cell need not appear)."""
        grid = Grid(UNIT, n)
        got = grid.cells_overlapping_set(rect)
        for cell in got:
            assert grid.cell_rect(cell).intersects(rect)
        for i in range(5):
            for j in range(5):
                p = Point(
                    rect.min_x + rect.width * i / 4,
                    rect.min_y + rect.height * j / 4,
                )
                assert grid.cell_of(p) in got

    @given(grid_sizes, unit_coords, unit_coords, unit_rects())
    def test_point_in_rect_implies_home_cell_clipped(self, n, x, y, rect):
        """The completeness property candidate retrieval relies on: if a
        point is inside a region, its home cell is in the region's clip."""
        grid = Grid(UNIT, n)
        p = Point(x, y)
        if rect.contains_point(p):
            assert grid.cell_of(p) in grid.cells_overlapping_set(rect)


class TestIndexProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), unit_coords, unit_coords),
            min_size=1,
            max_size=60,
        ),
        unit_rects(),
    )
    def test_candidate_retrieval_is_complete(self, placements, region):
        """objects_overlapping never misses an object inside the region."""
        index = GridIndex(Grid(UNIT, 9))
        latest: dict[int, Point] = {}
        for oid, x, y in placements:
            latest[oid] = Point(x, y)
            index.place_object_at(oid, latest[oid])
        candidates = index.objects_overlapping(region)
        for oid, location in latest.items():
            if region.contains_point(location):
                assert oid in candidates

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), unit_coords, unit_coords),
            min_size=1,
            max_size=80,
        )
    )
    def test_repeated_placement_keeps_one_home(self, moves):
        """However an object moves, it occupies exactly one cell: only
        the latest home cells stay populated."""
        index = GridIndex(Grid(UNIT, 7))
        homes = {}
        for oid, x, y in moves:
            index.place_object_at(oid, Point(x, y))
            homes[oid] = index.grid.cell_of(Point(x, y))
        assert index.object_count == len(homes)
        assert index.populated_cell_count == len(set(homes.values()))
