"""Grid geometry: cell addressing, clipping, rings."""

import pytest

from repro.geometry import Point, Rect
from repro.grid import Grid

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


class TestConstruction:
    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            Grid(UNIT, 0)

    def test_rejects_zero_area_world(self):
        with pytest.raises(ValueError):
            Grid(Rect(0, 0, 0, 1), 4)

    def test_cell_count(self):
        assert Grid(UNIT, 5).cell_count == 25

    def test_cell_dimensions(self):
        g = Grid(Rect(0, 0, 2, 1), 4)
        assert g.cell_width == 0.5
        assert g.cell_height == 0.25


class TestAddressing:
    def test_every_point_has_exactly_one_cell(self):
        g = Grid(UNIT, 4)
        steps = 17
        for i in range(steps):
            for j in range(steps):
                cell = g.cell_of(Point(i / (steps - 1), j / (steps - 1)))
                assert 0 <= cell < g.cell_count

    def test_cell_of_matches_cell_rect(self):
        g = Grid(UNIT, 8)
        p = Point(0.33, 0.71)
        assert g.cell_rect(g.cell_of(p)).contains_point(p)

    def test_max_edge_folds_into_last_cell(self):
        g = Grid(UNIT, 4)
        assert g.cell_of(Point(1.0, 1.0)) == g.cell_count - 1

    def test_out_of_world_points_clamp(self):
        g = Grid(UNIT, 4)
        assert g.cell_of(Point(-5, -5)) == 0
        assert g.cell_of(Point(5, 5)) == g.cell_count - 1

    def test_cell_rect_out_of_range(self):
        g = Grid(UNIT, 2)
        with pytest.raises(IndexError):
            g.cell_rect(4)

    def test_cell_rects_tile_the_world(self):
        g = Grid(UNIT, 3)
        total = sum(g.cell_rect(c).area for c in range(g.cell_count))
        assert total == pytest.approx(UNIT.area)


class TestClipping:
    def test_cells_overlapping_whole_world(self):
        g = Grid(UNIT, 4)
        assert g.cells_overlapping_set(UNIT) == frozenset(range(16))

    def test_cells_overlapping_one_cell_interior(self):
        g = Grid(UNIT, 4)
        r = Rect(0.26, 0.26, 0.49, 0.49)  # strictly inside cell (1,1)
        assert g.cells_overlapping_set(r) == frozenset({5})

    def test_cells_overlapping_outside_world_is_empty(self):
        g = Grid(UNIT, 4)
        assert g.cells_overlapping_set(Rect(2, 2, 3, 3)) == frozenset()

    def test_overlap_is_sound_and_complete(self):
        g = Grid(UNIT, 6)
        region = Rect(0.1, 0.35, 0.62, 0.8)
        got = g.cells_overlapping_set(region)
        want = frozenset(
            c for c in range(g.cell_count) if g.cell_rect(c).intersects(region)
        )
        assert got == want

    def test_cells_overlapping_into_matches_generator(self):
        g = Grid(UNIT, 6)
        scratch: list[int] = []
        for region in (
            UNIT,
            Rect(0.1, 0.35, 0.62, 0.8),
            Rect(0.26, 0.26, 0.49, 0.49),
        ):
            got = g.cells_overlapping_into(region, scratch)
            assert got is scratch  # contract: returns the buffer itself
            assert got == list(g.cells_overlapping(region))

    def test_cells_overlapping_into_clears_stale_contents(self):
        g = Grid(UNIT, 4)
        scratch = [99, 98, 97]
        assert g.cells_overlapping_into(Rect(2, 2, 3, 3), scratch) == []
        assert scratch == []  # off-world region leaves an emptied buffer
