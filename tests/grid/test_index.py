"""GridIndex: placement, movement, retrieval, bucket reclamation."""

import pytest

from repro.geometry import Point, Rect
from repro.grid import Grid, GridIndex

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


@pytest.fixture
def index() -> GridIndex:
    return GridIndex(Grid(UNIT, 8))


class TestObjects:
    def test_place_and_lookup(self, index):
        index.place_object_at(1, Point(0.1, 0.1))
        assert index.contains_object(1)
        assert index.object_count == 1
        cell = index.grid.cell_of(Point(0.1, 0.1))
        assert index.object_cells(1) == frozenset({cell})
        assert 1 in index.objects_in_cell(cell)

    def test_move_updates_cells(self, index):
        index.place_object_at(1, Point(0.05, 0.05))
        old_cell = index.grid.cell_of(Point(0.05, 0.05))
        index.place_object_at(1, Point(0.95, 0.95))
        new_cell = index.grid.cell_of(Point(0.95, 0.95))
        assert index.object_cells(1) == frozenset({new_cell})
        assert 1 not in index.objects_in_cell(old_cell)
        assert index.object_count == 1

    def test_multi_cell_footprint(self, index):
        cells = index.grid.cells_overlapping_set(Rect(0.0, 0.0, 0.5, 0.1))
        index.place_object(2, cells)
        assert index.object_cells(2) == cells
        for cell in cells:
            assert 2 in index.objects_in_cell(cell)

    def test_remove_object(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        index.remove_object(1)
        assert not index.contains_object(1)
        assert index.object_count == 0
        with pytest.raises(KeyError):
            index.remove_object(1)

    def test_empty_footprint_rejected(self, index):
        with pytest.raises(ValueError):
            index.place_object(1, frozenset())


class TestQueries:
    def test_place_query_region(self, index):
        region = Rect(0.2, 0.2, 0.45, 0.3)
        index.place_query_region(7, region)
        assert index.query_cells(7) == index.grid.cells_overlapping_set(region)

    def test_region_outside_world_clamps(self, index):
        index.place_query_region(7, Rect(2, 2, 3, 3))
        assert len(index.query_cells(7)) == 1

    def test_move_query(self, index):
        index.place_query_region(7, Rect(0.0, 0.0, 0.1, 0.1))
        index.place_query_region(7, Rect(0.9, 0.9, 1.0, 1.0))
        assert index.query_count == 1
        old_cell = index.grid.cell_of(Point(0.05, 0.05))
        assert 7 not in index.queries_in_cell(old_cell)

    def test_remove_query(self, index):
        index.place_query_region(7, Rect(0, 0, 1, 1))
        index.remove_query(7)
        assert not index.contains_query(7)
        assert index.populated_cell_count == 0


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

    def test_queries_colocated_with_object(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        index.place_query_region(7, Rect(0.45, 0.45, 0.55, 0.55))
        index.place_query_region(8, Rect(0.0, 0.0, 0.05, 0.05))
        colocated = index.queries_colocated_with_object(1)
        assert 7 in colocated and 8 not in colocated


class TestZeroCopyViews:
    """The *_in_cell accessors return live bucket storage, not copies."""

    def test_views_alias_bucket_storage(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        cell = index.grid.cell_of(Point(0.5, 0.5))
        view = index.objects_in_cell(cell)
        assert view == {1}
        index.place_object_at(2, Point(0.5, 0.5))
        assert view == {1, 2}  # reflects later mutations
        index.remove_object(1)
        assert view == {2}

    def test_empty_cell_view_is_shared_and_immutable(self, index):
        view = index.objects_in_cell(3)
        assert view == frozenset()
        assert view is index.queries_in_cell(5)  # one shared sentinel
        with pytest.raises(AttributeError):
            view.add(1)  # accidental mutation fails loudly

    def test_snapshot_survives_index_mutation(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        cell = index.grid.cell_of(Point(0.5, 0.5))
        snapshot = set(index.objects_in_cell(cell))
        index.remove_object(1)
        assert snapshot == {1}  # the copy, unlike the view, is stable


class TestBuckets:
    def test_empty_buckets_are_reclaimed(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        assert index.populated_cell_count == 1
        index.remove_object(1)
        assert index.populated_cell_count == 0

    def test_bucket_shared_by_object_and_query(self, index):
        index.place_object_at(1, Point(0.5, 0.5))
        cell = index.grid.cell_of(Point(0.5, 0.5))
        index.place_query(9, frozenset({cell}))
        bucket = index.bucket(cell)
        assert bucket is not None
        assert 1 in bucket.objects and 9 in bucket.queries
        index.remove_object(1)
        assert index.bucket(cell) is not None  # query keeps it alive
        index.remove_query(9)
        assert index.bucket(cell) is None


class TestOccupancySampling:
    def populated_index(self):
        index = GridIndex(Grid(UNIT, 4))
        # Cell of (0.1, 0.1) gets 3 objects, two other cells get 1 each.
        for oid, point in enumerate(
            [
                Point(0.1, 0.1),
                Point(0.12, 0.12),
                Point(0.15, 0.1),
                Point(0.6, 0.6),
                Point(0.9, 0.1),
            ]
        ):
            index.place_object_at(oid, point)
        index.place_query_region(100, Rect(0.0, 0.0, 0.3, 0.3))
        return index

    def test_population_gauges(self):
        from repro.obs import MetricsRegistry

        index, registry = self.populated_index(), MetricsRegistry()
        index.sample_occupancy(registry, index.object_counts(), 5)
        assert registry.value_of("grid_indexed_objects") == 5.0
        assert registry.value_of("grid_indexed_queries") == 1.0
        # Object cells {3} plus the query's clipped cells (query-only
        # cells are populated too): 4x4 grid, region (0,0)-(0.3,0.3)
        # covers a 2x2 block.
        assert registry.value_of("grid_populated_cells") == 6.0

    def test_occupancy_histogram_counts_populated_cells(self):
        from repro.obs import MetricsRegistry

        index, registry = self.populated_index(), MetricsRegistry()
        index.sample_occupancy(registry, index.object_counts(), 5)
        hist = registry.histogram("grid_cell_occupancy")
        assert hist.count == 3           # one observation per populated cell
        assert hist.sum == 5.0           # total objects across cells

    def test_hot_cells_ranked_by_occupancy(self):
        from repro.obs import MetricsRegistry

        index, registry = self.populated_index(), MetricsRegistry()
        index.sample_occupancy(registry, index.object_counts(), 5, top_k=2)
        top = registry.value_of("grid_hot_cell_occupancy", {"rank": "0"})
        second = registry.value_of("grid_hot_cell_occupancy", {"rank": "1"})
        assert top == 3.0 and second == 1.0
        hot_id = registry.value_of("grid_hot_cell_id", {"rank": "0"})
        assert hot_id == float(index.grid.cell_of(Point(0.1, 0.1)))

    def test_stale_ranks_zeroed_when_world_shrinks(self):
        from repro.obs import MetricsRegistry

        index, registry = self.populated_index(), MetricsRegistry()
        index.sample_occupancy(registry, index.object_counts(), 5, top_k=5)
        for oid in range(1, 5):
            index.remove_object(oid)
        index.sample_occupancy(registry, index.object_counts(), 1, top_k=5)
        assert registry.value_of("grid_hot_cell_occupancy", {"rank": "0"}) == 1.0
        for rank in ("1", "2", "3", "4"):
            assert (
                registry.value_of("grid_hot_cell_occupancy", {"rank": rank}) == 0.0
            )
            assert registry.value_of("grid_hot_cell_id", {"rank": rank}) == -1.0

    def test_home_cell_counts_replace_the_buckets(self):
        """Fed per-cell counts (the production engine's store column),
        occupancy ignores the empty object side: populated cells are the
        occupied ones plus the query-only ones, ties rank by cell id."""
        import numpy as np

        from repro.obs import MetricsRegistry

        index, registry = GridIndex(Grid(UNIT, 4)), MetricsRegistry()
        index.place_query_region(100, Rect(0.0, 0.0, 0.3, 0.3))  # cells 0, 1, 4, 5
        counts = np.zeros(16, dtype=np.int64)
        counts[[0, 9, 3]] = [3, 1, 1]
        index.sample_occupancy(registry, counts, 5, top_k=3)
        assert registry.value_of("grid_indexed_objects") == 5.0
        assert registry.value_of("grid_populated_cells") == 6.0
        hist = registry.histogram("grid_cell_occupancy")
        assert (hist.count, hist.sum) == (3, 5.0)
        assert [
            registry.value_of("grid_hot_cell_id", {"rank": str(rank)})
            for rank in range(3)
        ] == [0.0, 3.0, 9.0]

    def test_null_registry_short_circuits(self):
        from repro.obs import NULL_REGISTRY

        index = self.populated_index()
        # Must not raise or record.
        index.sample_occupancy(NULL_REGISTRY, index.object_counts(), 5)
        assert NULL_REGISTRY.to_dict() == {}
