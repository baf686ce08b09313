"""ABL6: incremental k-NN maintenance vs recompute-from-scratch.

A continuous k-NN answer only changes when movement touches its circle
(or a member departs).  The incremental engine therefore repairs only
the queries a batch actually dirtied; the strawman recomputes every
k-NN query every cycle.  Low churn should separate the two sharply.

The per-object reference engine repairs with the same scalar ring search
the strawman runs over its grid index, so the two differ only in which
queries they search: that pair is the ablation, and the assertion.  The
production (columnar) engine keeps no object in its grid index; its
cycle on the same reports is printed beside them, and its answers are
checked against a fresh search.
"""

import random
import time

from conftest import scaled

from repro.core import IncrementalEngine
from repro.core.knn import knn_search
from repro.geometry import Point
from repro.stats import format_table

OBJECT_COUNT = scaled(2000)
QUERY_COUNT = scaled(200)
K = 5
MOVE_FRACTIONS = (0.01, 0.05, 0.2, 0.5)


def build(seed: int = 12):
    rng = random.Random(seed)
    engine = IncrementalEngine(grid_size=64)
    reference = IncrementalEngine(grid_size=64, pipeline="per-object")
    objects = {
        oid: Point(rng.random(), rng.random()) for oid in range(OBJECT_COUNT)
    }
    centers = {
        10**6 + i: Point(rng.random(), rng.random()) for i in range(QUERY_COUNT)
    }
    for e in (engine, reference):
        for oid, location in objects.items():
            e.report_object(oid, location, 0.0)
        for qid, center in centers.items():
            e.register_knn_query(qid, center, K)
        e.evaluate(0.0)
    return rng, engine, reference, objects, centers


def test_knn_maintenance(benchmark, record_series):
    rows = []
    for fraction in MOVE_FRACTIONS:
        rng, engine, reference, objects, centers = build()
        moved = rng.sample(sorted(objects), max(1, int(OBJECT_COUNT * fraction)))
        for oid in moved:
            objects[oid] = Point(rng.random(), rng.random())

        # Incremental: report + one evaluation (dirty queries only).
        cycle_ms = []
        for e in (reference, engine):
            started = time.perf_counter()
            for oid in moved:
                e.report_object(oid, objects[oid], 1.0)
            e.evaluate(1.0)
            cycle_ms.append((time.perf_counter() - started) * 1e3)

        # Strawman: recompute every k-NN query over the updated index.
        started = time.perf_counter()
        for center in centers.values():
            knn_search(reference.index, reference.objects, center, K)
        recompute_ms = (time.perf_counter() - started) * 1e3

        # Consistency: the maintained answers equal a fresh recompute.
        for qid, center in list(centers.items())[:10]:
            ranked = knn_search(reference.index, reference.objects, center, K)
            fresh = {oid for __, oid in ranked}
            assert set(engine.answer_of(qid)) == fresh
            assert set(reference.answer_of(qid)) == fresh

        rows.append([f"{100 * fraction:.0f}%", *cycle_ms, recompute_ms])

    record_series(
        "abl6_knn_maintenance",
        format_table(
            ["moved", "incremental ms", "columnar cycle ms", "recompute-all ms"], rows
        ),
    )

    # At the lowest churn the incremental path must win.
    assert rows[0][1] < rows[0][3]

    rng, engine, __, objects, __ = build()
    moved = rng.sample(sorted(objects), OBJECT_COUNT // 20)
    now = [1.0]

    def one_cycle():
        for oid in moved:
            engine.report_object(oid, Point(rng.random(), rng.random()), now[0])
        engine.evaluate(now[0])
        now[0] += 1.0

    benchmark(one_cycle)
