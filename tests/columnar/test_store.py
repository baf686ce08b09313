"""Unit tests for the columnar object/query stores."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.columnar import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarObjectStore,
    ColumnarQueryStore,
)


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
