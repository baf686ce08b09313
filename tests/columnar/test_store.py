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
from repro.core.state import KnnQueryState, PredictiveQueryState, RangeQueryState
from repro.geometry import Point, Rect, Velocity


def report(store, oid, x, y, vx=0.0, vy=0.0, t=0.0, cell=0):
    """One report written through the store's batch door; what it
    overwrote: ``(old cell, old x, old y)``."""
    rows, *old = store.batch_apply(
        *(np.array([value]) for value in (oid, x, y, vx, vy, t, cell))
    )
    assert rows.tolist() == [store.row_of(oid)]
    return tuple(column[0] for column in old)


class TestObjectStore:
    def test_new_object_gets_nan_old_coords(self):
        store = ColumnarObjectStore()
        old_cell, old_x, old_y = report(store, 7, 0.25, 0.75, t=1.0, cell=12)
        assert store.row_of(7) == 0
        assert store.xs[0] == 0.25 and store.ys[0] == 0.75
        assert old_cell == -1 and math.isnan(old_x) and math.isnan(old_y)
        assert store.cells[0] == 12
        assert 7 in store and len(store) == 1

    def test_rereport_shifts_current_to_old(self):
        store = ColumnarObjectStore()
        report(store, 7, 0.25, 0.75, t=1.0, cell=12)
        assert report(store, 7, 0.5, 0.5, 0.1, -0.1, 2.0, 13) == (12, 0.25, 0.75)
        assert store.row_of(7) == 0
        assert (store.xs[0], store.ys[0]) == (0.5, 0.5)
        assert (store.vxs[0], store.vys[0]) == (0.1, -0.1)
        assert store.ts[0] == 2.0 and store.cells[0] == 13

    def test_batch_apply_returns_what_it_overwrote(self):
        store = ColumnarObjectStore()
        report(store, 7, 0.25, 0.75, 0.1, 0.0, 1.0, 12)
        rows, prev_cells, prev_xs, prev_ys = store.batch_apply(
            *(np.array(column) for column in (
                [8, 7], [0.1, 0.5], [0.1, 0.5], [0.0, 0.0], [0.0, 0.0],
                [2.0, 2.0], [0, 13],
            ))
        )
        assert (store.row_of(7), store.row_of(8)) == (0, 1)
        assert rows.tolist() == [1, 0]
        assert prev_cells.tolist() == [-1, 12]
        assert math.isnan(prev_xs[0]) and math.isnan(prev_ys[0])
        assert (prev_xs[1], prev_ys[1]) == (0.25, 0.75)
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


def query_row(store, qid):
    """Every column of ``qid``'s row, by column name."""
    row = store.row_of(qid)
    return {
        name: getattr(store, name)[row]
        for name in (
            "qids", "kinds", "min_xs", "min_ys", "max_xs", "max_ys", "cxs",
            "cys", "radii", "ks", "horizons", "ts",
        )
    } | {"answer": store.answer_rows(row).tolist()}  # fmt: skip


class TestQueryStore:
    def test_add_writes_one_row_of_every_column(self):
        store = ColumnarQueryStore()
        v0 = store.version
        assert store.add(100, KIND_RANGE, 0.1, 0.2, 0.3, 0.4, t=2.0) == 0
        assert store.version > v0
        assert query_row(store, 100) == {
            "qids": 100, "kinds": KIND_RANGE, "min_xs": 0.1, "min_ys": 0.2,
            "max_xs": 0.3, "max_ys": 0.4, "cxs": 0.0, "cys": 0.0, "radii": 0.0,
            "ks": 0, "horizons": 0.0, "ts": 2.0, "answer": [],
        }  # fmt: skip
        assert len(store) == 1 and 100 in store

    def test_kinds_default_zero_bounds(self):
        store = ColumnarQueryStore()
        store.add(1, KIND_KNN, cx=0.25, cy=0.75, k=3, t=1.0)
        store.add(2, KIND_PREDICTIVE, 0.1, 0.1, 0.2, 0.2, horizon=9.0)
        knn = query_row(store, 1)
        assert (knn["kinds"], knn["cxs"], knn["cys"], knn["ks"], knn["ts"]) == (
            KIND_KNN, 0.25, 0.75, 3, 1.0
        )
        assert (knn["min_xs"], knn["max_ys"], knn["horizons"]) == (0.0, 0.0, 0.0)
        predictive = query_row(store, 2)
        assert (predictive["kinds"], predictive["max_xs"], predictive["horizons"]) == (
            KIND_PREDICTIVE, 0.2, 9.0
        )
        assert predictive["ks"] == 0
        assert store.rows_of(KIND_KNN).tolist() == [0]
        assert store.rows_of(KIND_RANGE).tolist() == []

    def test_version_bumps_on_rows_and_range_bounds_only(self):
        store = ColumnarQueryStore()
        seen = [store.version]
        store.add(1, KIND_RANGE, 0, 0, 1, 1)
        seen.append(store.version)
        store.move_bounds(np.array([0]), 0.0, 0.0, 0.5, 0.5)
        seen.append(store.version)
        store.remove(1)
        seen.append(store.version)
        assert len(set(seen)) == 4
        assert 1 not in store
        row = store.add(2, KIND_KNN, cx=0.5, cy=0.5, k=1)
        predictive = store.add(3, KIND_PREDICTIVE, 0.0, 0.0, 1.0, 1.0, horizon=1.0)
        before = store.version
        store.radii[row] = 0.3
        store.cxs[row] = 0.1
        store.ts[row] = 4.0
        store.move_bounds(np.array([predictive]), 0.1, 0.1, 0.2, 0.2)
        assert store.version == before
        assert query_row(store, 3)["max_xs"] == 0.2

    def test_swap_remove(self):
        store = ColumnarQueryStore()
        store.add(10, KIND_RANGE, 0.0, 0.0, 0.1, 0.1)
        store.add(20, KIND_KNN, cx=0.5, cy=0.6, k=2)
        # The last row differs from the removed one in every column.
        store.add(
            30, KIND_PREDICTIVE, 0.2, 0.3, 0.4, 0.5, cx=0.6, cy=0.7, k=4, horizon=5.0, t=3.0
        )
        store.toggle(np.empty(0, np.int64), np.array([2 << 32 | 8, 2 << 32 | 7, 1 << 32 | 5]))
        store.radii[2] = 0.9
        want = query_row(store, 30)
        assert all(value != query_row(store, 10)[name] for name, value in want.items())
        store.remove(10)
        assert store.row_of(30) == 0 and len(store) == 2
        assert query_row(store, 30) == want
        # The moved row's keys follow it into the hole, still sorted.
        assert store.keys.tolist() == [7, 8, 1 << 32 | 5]
        assert store.answer_sizes().tolist() == [2, 1]
        with pytest.raises(KeyError):
            store.row_of(10)
        with pytest.raises(KeyError):
            store.remove(10)


class TestNumpyViews:
    def test_object_views_are_zero_copy(self):
        store = ColumnarObjectStore()
        report(store, 1, 0.5, 0.25, cell=3)
        xs, ys = store.xy_views()
        assert xs.dtype == np.float64
        assert xs[0] == 0.5 and ys[0] == 0.25
        # Scalar writes are visible through a live view (zero copy).
        store.xs[0] = 0.75
        assert xs[0] == 0.75

    def test_empty_store_views(self):
        xs, ys = ColumnarObjectStore().xy_views()
        assert len(xs) == 0 and len(ys) == 0
        views = ColumnarQueryStore().bounds_views()
        assert all(len(v) == 0 for v in views)


def _states_alive(kinds=ObjectState) -> int:
    gc.collect()
    return sum(isinstance(o, kinds) for o in gc.get_objects())


QUERY_STATES = (RangeQueryState, KnnQueryState, PredictiveQueryState)


def test_the_engine_keeps_no_object_states():
    """The engine's store rows are the only record of an object and of
    a query: bulk rounds with removals, query moves and every query kind
    leave no ``ObjectState`` and no query state alive (while
    ``engine.objects`` and ``engine.queries`` materialise them on
    access)."""
    rng = random.Random(3)
    before = _states_alive()
    queries_before = _states_alive(QUERY_STATES)
    engine = IncrementalEngine(grid_size=8)
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
            engine.move_range_query(1, Rect(0.1 * now, 0.1, 0.6, 0.6), float(now))
            engine.move_knn_query(2, Point(0.1 * now, 0.5), float(now))
            engine.move_predictive_query(4, Rect(0.3, 0.1 * now, 0.7, 0.7), float(now))
        engine.evaluate(float(now))
    engine.check_invariants()
    assert _states_alive() == before
    assert _states_alive(QUERY_STATES) == queries_before
    states = list(engine.objects.values())
    assert _states_alive() - before == len(states) == engine.object_count
    queries = list(engine.queries.values())
    assert _states_alive(QUERY_STATES) - queries_before == len(queries) == 4
    assert queries[1].center == Point(0.4, 0.5) and queries[1].t == 4.0


def test_engine_queries_is_a_read_only_view():
    """``engine.queries`` materialises states from the store; it takes
    no assignment, and a state's ``answer`` is a frozenset snapshot of
    the row's answer, taken per access."""
    engine = IncrementalEngine(grid_size=8)
    engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))
    engine.report_object(7, Point(0.25, 0.25), 0.0)
    engine.evaluate(0.0)
    with pytest.raises(TypeError):
        engine.queries[1] = engine.queries[1]
    with pytest.raises(TypeError):
        del engine.queries[1]
    assert engine.queries[1] is not engine.queries[1]
    snapshot = engine.queries[1].answer
    assert snapshot == engine.queries[1].answer == frozenset({7})
    engine.report_object(7, Point(0.75, 0.75), 1.0)
    engine.evaluate(1.0)
    assert snapshot == {7} and engine.queries[1].answer == frozenset()
    assert list(engine.queries) == [1] and 2 not in engine.queries
    with pytest.raises(KeyError):
        engine.queries[2]


def test_query_side_writes_without_range_changes_cut_no_range_csr():
    """An evaluation whose only query-side writes are k-NN re-solves,
    k-NN moves and predictive moves and refreshes leaves the range CSR
    cached: ``engine_range_csr_rebuilds_total`` does not move."""
    engine = IncrementalEngine(grid_size=8, prediction_horizon=20.0)
    engine.register_range_query(1, Rect(0.1, 0.1, 0.6, 0.6))
    engine.register_knn_query(2, Point(0.5, 0.5), 3)
    engine.register_predictive_query(3, Rect(0.3, 0.3, 0.7, 0.7), 10.0)
    rng = random.Random(5)
    for oid in range(60):
        engine.report_object(oid, Point(rng.random(), rng.random()), 0.0)
    engine.evaluate(0.0)
    rebuilds = engine.registry.counter("engine_range_csr_rebuilds_total")
    repairs = engine.registry.counter("engine_knn_repairs_total")
    refreshes = engine.registry.counter("engine_predictive_refreshes_total")
    before = (rebuilds.value, repairs.value, refreshes.value)
    for now in (1.0, 2.0, 3.0):
        engine.move_knn_query(2, Point(0.2 * now, 0.5), now)
        engine.move_predictive_query(3, Rect(0.1 * now, 0.3, 0.6, 0.7), now)
        for oid in range(0, 60, 7):  # moving reports re-solve k-NN / refresh
            engine.report_object(
                oid, Point(rng.random(), rng.random()), now, Velocity(0.01, 0.0)
            )
        engine.evaluate(now)
    assert rebuilds.value == before[0]
    assert repairs.value > before[1] and refreshes.value > before[2]
    engine.check_invariants()
