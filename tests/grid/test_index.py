"""GridIndex (the snapshot baseline's object index): placement,
movement, retrieval, bucket reclamation — and the grid-occupancy
gauges the engine samples without one."""

import pytest

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect
from repro.grid import Grid, GridIndex
from repro.obs import NULL_REGISTRY, MetricsRegistry

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def index() -> GridIndex:
    return GridIndex(Grid(UNIT, 8))


class TestObjects:
    def test_place_and_lookup(self, index):
        index.place_object_at(1, Point(0.1, 0.1))
        assert index.object_count == 1
        cell = index.grid.cell_of(Point(0.1, 0.1))
        assert index.objects_overlapping(index.grid.cell_rect(cell)) == {1}

    def test_move_updates_cells(self, index):
        index.place_object_at(1, Point(0.05, 0.05))
        old_cell = index.grid.cell_of(Point(0.05, 0.05))
        index.place_object_at(1, Point(0.95, 0.95))
        new_cell = index.grid.cell_of(Point(0.95, 0.95))
        assert index.objects_overlapping(index.grid.cell_rect(new_cell)) == {1}
        assert index.objects_overlapping(index.grid.cell_rect(old_cell)) == set()
        assert index.object_count == 1

    def test_multi_cell_footprint(self, index):
        cells = index.grid.cells_overlapping_set(Rect(0.0, 0.0, 0.5, 0.1))
        index.place_object(2, cells)
        assert index.populated_cell_count == len(cells)
        for cell in cells:
            assert index.objects_overlapping(index.grid.cell_rect(cell)) == {2}

    def test_remove_object(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        index.remove_object(1)
        assert index.object_count == 0
        assert index.populated_cell_count == 0
        with pytest.raises(KeyError):
            index.remove_object(1)

    def test_empty_footprint_rejected(self, index):
        with pytest.raises(ValueError):
            index.place_object(1, frozenset())


class TestRetrieval:
    def test_objects_overlapping_returns_candidates(self, index):
        index.place_object_at(1, Point(0.51, 0.51))
        index.place_object_at(2, Point(0.99, 0.99))
        found = index.objects_overlapping(Rect(0.5, 0.5, 0.6, 0.6))
        assert 1 in found  # exact hit
        assert 2 not in found  # far away

    def test_candidates_may_exceed_exact_matches(self, index):
        # An object in the same cell but outside the rect is a candidate.
        index.place_object_at(1, Point(0.51, 0.51))
        found = index.objects_overlapping(Rect(0.5, 0.5, 0.505, 0.505))
        assert 1 in found


class TestBuckets:
    def test_empty_buckets_are_reclaimed(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        assert index.populated_cell_count == 1
        index.remove_object(1)
        assert index.populated_cell_count == 0


class TestOccupancySampling:
    """The engine's grid-occupancy gauges, sampled once per evaluation:
    objects counted per home cell from its store, query footprints
    counted as populated cells."""

    #: Cell of (0.1, 0.1) gets 3 objects, two other cells get 1 each.
    POINTS = [
        Point(0.1, 0.1),
        Point(0.12, 0.12),
        Point(0.15, 0.1),
        Point(0.6, 0.6),
        Point(0.9, 0.1),
    ]

    def sampled(self, points=POINTS, registry=None):
        """A 4x4 engine holding ``points`` and one range query over
        cells 0, 1, 4 and 5, evaluated once."""
        registry = MetricsRegistry() if registry is None else registry
        engine = IncrementalEngine(grid_size=4, registry=registry)
        engine.register_range_query(100, Rect(0.0, 0.0, 0.3, 0.3))
        for oid, point in enumerate(points):
            engine.report_object(oid, point, 0.0)
        engine.evaluate(0.0)
        return engine, registry

    def test_population_gauges(self):
        _, registry = self.sampled()
        assert registry.value_of("grid_indexed_objects") == 5.0
        assert registry.value_of("grid_indexed_queries") == 1.0
        # Object cells {0, 3, 10} plus the query's clipped cells
        # (query-only cells are populated too): 4x4 grid, region
        # (0,0)-(0.3,0.3) covers a 2x2 block.
        assert registry.value_of("grid_populated_cells") == 6.0

    def test_occupancy_histogram_counts_populated_cells(self):
        _, registry = self.sampled()
        hist = registry.histogram("grid_cell_occupancy")
        assert hist.count == 3           # one observation per occupied cell
        assert hist.sum == 5.0           # total objects across cells

    def test_hot_cells_ranked_by_occupancy(self):
        engine, registry = self.sampled()
        top = registry.value_of("grid_hot_cell_occupancy", {"rank": "0"})
        second = registry.value_of("grid_hot_cell_occupancy", {"rank": "1"})
        assert top == 3.0 and second == 1.0
        hot_id = registry.value_of("grid_hot_cell_id", {"rank": "0"})
        assert hot_id == float(engine.grid.cell_of(Point(0.1, 0.1)))

    def test_stale_ranks_zeroed_when_world_shrinks(self):
        engine, registry = self.sampled()
        for oid in range(1, len(self.POINTS)):
            engine.remove_object(oid)
        engine.evaluate(1.0)
        assert registry.value_of("grid_hot_cell_occupancy", {"rank": "0"}) == 1.0
        for rank in ("1", "2", "3", "4"):
            assert (
                registry.value_of("grid_hot_cell_occupancy", {"rank": rank}) == 0.0
            )
            assert registry.value_of("grid_hot_cell_id", {"rank": rank}) == -1.0

    def test_home_cell_counts_replace_the_buckets(self):
        """Occupancy counts the store's home cells: populated cells are
        the occupied ones plus the query-only ones, ties rank by cell
        id."""
        # Three objects in cell 0, one each in cells 9 and 3.
        points = [Point(0.1, 0.1)] * 3 + [Point(0.3, 0.6), Point(0.9, 0.1)]
        engine, registry = self.sampled(points)
        assert [engine.grid.cell_of(p) for p in points] == [0, 0, 0, 9, 3]
        assert registry.value_of("grid_indexed_objects") == 5.0
        assert registry.value_of("grid_populated_cells") == 6.0
        hist = registry.histogram("grid_cell_occupancy")
        assert (hist.count, hist.sum) == (3, 5.0)
        assert [
            registry.value_of("grid_hot_cell_id", {"rank": str(rank)})
            for rank in range(3)
        ] == [0.0, 3.0, 9.0]

    def test_knn_and_predictive_footprints_are_populated_cells(self):
        """A k-NN query's footprint is its circle's cells — its centre's
        home cell when the circle misses the world — and a predictive
        query's its region's."""
        registry = MetricsRegistry()
        engine = IncrementalEngine(grid_size=4, registry=registry)
        # No objects, so both circles keep radius 0.
        engine.register_knn_query(200, Point(0.1, 0.1), 1)  # cell 0
        engine.register_knn_query(201, Point(5.0, 0.9), 1)  # off-world: cell 15
        engine.register_predictive_query(300, Rect(0.3, 0.3, 0.6, 0.4), 5.0)
        engine.evaluate(0.0)  # query 300: cells 5, 6
        assert registry.value_of("grid_populated_cells") == 4.0
        assert registry.value_of("grid_indexed_queries") == 3.0
        engine.report_object(1, Point(0.9, 0.1), 1.0)  # cell 3
        engine.evaluate(1.0)
        # Both circles widen to reach (0.9, 0.1); query 200's, of
        # radius 0.8 around (0.1, 0.1), alone covers the whole grid.
        assert registry.value_of("grid_populated_cells") == 16.0

    def test_null_registry_short_circuits(self):
        # Must not raise or record.
        self.sampled(registry=NULL_REGISTRY)
        assert NULL_REGISTRY.to_dict() == {}
