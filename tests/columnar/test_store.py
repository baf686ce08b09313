"""Unit tests for the columnar object/query stores."""

from __future__ import annotations

import gc
import math
import random

import numpy as np
import pytest

from repro.columnar import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarObjectStore,
    ColumnarQueryStore,
)
from repro.core import IncrementalEngine, ObjectState
from repro.geometry import Point, Rect


def report(store, oid, x, y, vx=0.0, vy=0.0, t=0.0, cell=0) -> int:
    """One report written through the store's batch door; its row."""
    (row,), _, _ = store.batch_apply(
        *(np.array([value]) for value in (oid, x, y, vx, vy, t, cell))
    )
    return int(row)


class TestObjectStore:
    def test_new_object_gets_nan_old_coords(self):
        store = ColumnarObjectStore()
        row = report(store, 7, 0.25, 0.75, t=1.0, cell=12)
        assert row == 0
        assert store.xs[0] == 0.25 and store.ys[0] == 0.75
        assert math.isnan(store.old_xs[0]) and math.isnan(store.old_ys[0])
        assert store.cells[0] == 12
        assert 7 in store and len(store) == 1

    def test_rereport_shifts_current_to_old(self):
        store = ColumnarObjectStore()
        report(store, 7, 0.25, 0.75, t=1.0, cell=12)
        row = report(store, 7, 0.5, 0.5, 0.1, -0.1, 2.0, 13)
        assert row == 0
        assert (store.xs[0], store.ys[0]) == (0.5, 0.5)
        assert (store.old_xs[0], store.old_ys[0]) == (0.25, 0.75)
        assert (store.vxs[0], store.vys[0]) == (0.1, -0.1)
        assert store.ts[0] == 2.0 and store.cells[0] == 13

    def test_batch_apply_returns_what_it_overwrote(self):
        store = ColumnarObjectStore()
        report(store, 7, 0.25, 0.75, 0.1, 0.0, 1.0, 12)
        rows, known, prior = store.batch_apply(
            *(np.array(column) for column in (
                [8, 7], [0.1, 0.5], [0.1, 0.5], [0.0, 0.0], [0.0, 0.0],
                [2.0, 2.0], [0, 13],
            ))
        )
        assert rows.tolist() == [1, 0] and known.tolist() == [1]
        assert [column.tolist() for column in prior] == [
            [0.25], [0.75], [0.1], [0.0], [1.0], [12]
        ]
        assert store.cell_counts(16).tolist() == [1] + [0] * 12 + [1, 0, 0]

    def test_swap_remove_moves_last_row(self):
        store = ColumnarObjectStore()
        for oid in range(4):
            report(store, oid, float(oid), float(oid), cell=oid)
        store.remove(1)
        assert len(store) == 3
        assert 1 not in store
        # Row 1 now holds what used to be the last row (oid 3).
        assert store.row_of(3) == 1
        assert store.oids[1] == 3 and store.xs[1] == 3.0
        with pytest.raises(KeyError):
            store.remove(1)

    def test_remove_last_row(self):
        store = ColumnarObjectStore()
        report(store, 5, 1.0, 2.0)
        store.remove(5)
        assert len(store) == 0 and 5 not in store


class TestQueryStore:
    def test_put_update_and_descriptor(self):
        store = ColumnarQueryStore()
        v0 = store.version
        store.put(100, KIND_RANGE, 0.1, 0.2, 0.3, 0.4)
        assert store.version > v0
        assert store.descriptor(100) == (KIND_RANGE, 0.1, 0.2, 0.3, 0.4)
        store.put(100, KIND_RANGE, 0.5, 0.5, 0.9, 0.9)
        assert store.descriptor(100) == (KIND_RANGE, 0.5, 0.5, 0.9, 0.9)
        assert len(store) == 1

    def test_kinds_default_zero_bounds(self):
        store = ColumnarQueryStore()
        store.put(1, KIND_KNN)
        store.put(2, KIND_PREDICTIVE)
        assert store.descriptor(1) == (KIND_KNN, 0.0, 0.0, 0.0, 0.0)
        assert store.descriptor(2) == (KIND_PREDICTIVE, 0.0, 0.0, 0.0, 0.0)

    def test_every_mutation_bumps_version(self):
        store = ColumnarQueryStore()
        seen = {store.version}
        store.put(1, KIND_RANGE, 0, 0, 1, 1)
        seen.add(store.version)
        store.put(1, KIND_RANGE, 0, 0, 0.5, 0.5)  # in-place update too
        seen.add(store.version)
        store.remove(1)
        seen.add(store.version)
        assert len(seen) == 4

    def test_swap_remove(self):
        store = ColumnarQueryStore()
        store.put(10, KIND_RANGE, 0.0, 0.0, 0.1, 0.1)
        store.put(20, KIND_KNN)
        store.put(30, KIND_PREDICTIVE)
        store.remove(10)
        assert store.row_of(30) == 0
        assert store.descriptor(30) == (KIND_PREDICTIVE, 0.0, 0.0, 0.0, 0.0)
        assert store.descriptor(20) == (KIND_KNN, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(KeyError):
            store.descriptor(10)


class TestNumpyViews:
    def test_object_views_are_zero_copy(self):
        store = ColumnarObjectStore()
        report(store, 1, 0.5, 0.25, cell=3)
        xs, ys, old_xs, old_ys = store.coord_views()
        assert xs.dtype == np.float64
        assert xs[0] == 0.5 and ys[0] == 0.25
        assert np.isnan(old_xs[0]) and np.isnan(old_ys[0])
        # Scalar writes are visible through a live view (zero copy).
        store.xs[0] = 0.75
        assert xs[0] == 0.75

    def test_empty_store_views(self):
        xs, ys = ColumnarObjectStore().xy_views()
        assert len(xs) == 0 and len(ys) == 0
        views = ColumnarQueryStore().bounds_views()
        assert all(len(v) == 0 for v in views)


def _object_states_alive() -> int:
    gc.collect()
    return sum(isinstance(o, ObjectState) for o in gc.get_objects())


@pytest.mark.parametrize("pipeline", ["columnar", "per-object"])
def test_only_the_reference_keeps_object_states(pipeline):
    """The production engine's store row is the only record of an
    object: bulk rounds with removals and every query kind leave no
    ``ObjectState`` alive.  The reference keeps one per object (which
    also shows the collector tracks them)."""
    rng = random.Random(3)
    before = _object_states_alive()
    engine = IncrementalEngine(grid_size=8, pipeline=pipeline)
    engine.register_range_query(1, Rect(0.1, 0.1, 0.6, 0.6))
    engine.register_knn_query(2, Point(0.5, 0.5), 4)
    engine.register_knn_query(3, Point(0.2, 0.8), 2)
    engine.register_predictive_query(4, Rect(0.3, 0.3, 0.7, 0.7), 10.0)
    for now in range(5):
        oids = list(range(200))
        engine.report_objects(
            oids,
            [rng.uniform(-0.1, 1.1) for _ in oids],
            [rng.random() for _ in oids],
            [rng.choice((0.0, 0.01)) for _ in oids],
            [0.0] * len(oids),
            [float(now)] * len(oids),
        )
        engine.report_object(500 + now, Point(0.5, 0.5), float(now))
        if now:
            for oid in range(now, 200, 17):
                engine.remove_object(oid)
        engine.evaluate(float(now))
    engine.check_invariants()
    alive = _object_states_alive() - before
    assert alive == (0 if pipeline == "columnar" else engine.object_count)
