"""ABL6: incremental k-NN maintenance vs recompute-from-scratch.

A continuous k-NN answer only changes when movement touches its circle
(or a member departs).  The engine therefore repairs only the queries a
batch actually dirtied; the strawman recomputes every k-NN query every
cycle.  Both columns are the engine's ``knn_repair`` phase seconds over
the same reports: the incremental engine's (dirty queries only), and a
twin's whose every k-NN query is moved onto its own centre first, so
the same batch search, ``ColumnarEvaluator.knn_ranked``, runs over every
k-NN query.  The two differ only in which queries they search: that
pair is the ablation, and the assertion.

The strawman changed with the per-object engine's removal: it used to
be that engine's scalar ring search over its grid index.  A third
column times ``knn_ranked`` over every query's store row from scratch
(its answer set aside, so none bounds the search) after the cycle: a dirty query is bounded by its
members' new distances, so a member that jumped across the map widens
its search, and that column shows what an unbounded seed search costs
instead.  The engine's answers are checked against the brute-force
reference's k-NN answer.
"""

import random
import time

from conftest import scaled

from repro.check.reference import knn_answer
from repro.columnar import KIND_KNN
from repro.core import IncrementalEngine
from repro.geometry import Point
from repro.stats import format_table

OBJECT_COUNT = scaled(2000)
QUERY_COUNT = scaled(200)
K = 5
MOVE_FRACTIONS = (0.01, 0.05, 0.2, 0.5)
REPEATS = 5


def build(seed: int = 12):
    rng = random.Random(seed)
    engine = IncrementalEngine(grid_size=64)
    objects = {
        oid: Point(rng.random(), rng.random()) for oid in range(OBJECT_COUNT)
    }
    centers = {
        10**6 + i: Point(rng.random(), rng.random()) for i in range(QUERY_COUNT)
    }
    for oid, location in objects.items():
        engine.report_object(oid, location, 0.0)
    for qid, center in centers.items():
        engine.register_knn_query(qid, center, K)
    engine.evaluate(0.0)
    return rng, engine, objects, centers


def repair_ms(engine, moved, objects, centers=()) -> float:
    """Report ``moved``, move the ``centers`` queries onto themselves,
    evaluate once, and return the ``knn_repair`` phase's milliseconds."""
    for oid in moved:
        engine.report_object(oid, objects[oid], 1.0)
    for qid, center in centers:
        engine.move_knn_query(qid, center, 1.0)
    before = engine.stats.phase_seconds["knn_repair"]
    engine.evaluate(1.0)
    return (engine.stats.phase_seconds["knn_repair"] - before) * 1e3


def test_knn_maintenance(benchmark, record_series):
    rows = []
    for fraction in MOVE_FRACTIONS:
        # Each column is the best of REPEATS fresh twins on the same
        # reports: one cycle is a few milliseconds, so one run is noise.
        best = [float("inf")] * 3
        for __ in range(REPEATS):
            rng, engine, objects, centers = build()
            __, every, __, __ = build()
            moved = rng.sample(sorted(objects), max(1, int(OBJECT_COUNT * fraction)))
            for oid in moved:
                objects[oid] = Point(rng.random(), rng.random())

            incremental_ms = repair_ms(engine, moved, objects)
            recompute_ms = repair_ms(every, moved, objects, centers.items())

            # Consistency: the maintained answers equal the brute force's.
            for qid, center in list(centers.items())[:10]:
                fresh = {oid for __, oid in knn_answer(center, K, engine.objects)}
                assert set(engine.answer_of(qid)) == fresh
                assert set(every.answer_of(qid)) == fresh

            qstore = engine._qstore
            unbounded = qstore.rows_of(KIND_KNN)
            qstore.toggle(qstore.run_keys(unbounded)[1], qstore.keys[:0])
            started = time.perf_counter()
            engine._columnar_evaluator.knn_ranked(unbounded)
            scratch_ms = (time.perf_counter() - started) * 1e3
            best = [min(b, v) for b, v in zip(best, (incremental_ms, recompute_ms, scratch_ms))]

        rows.append([f"{100 * fraction:.0f}%", *best])

    record_series(
        "abl6_knn_maintenance",
        format_table(
            ["moved", "incremental ms", "recompute-all ms", "from-scratch search ms"],
            rows,
        ),
    )

    # At the lowest churn the incremental path must win.
    assert rows[0][1] < rows[0][2]

    rng, engine, objects, __ = build()
    moved = rng.sample(sorted(objects), OBJECT_COUNT // 20)
    now = [1.0]

    def one_cycle():
        for oid in moved:
            engine.report_object(oid, Point(rng.random(), rng.random()), now[0])
        engine.evaluate(now[0])
        now[0] += 1.0

    benchmark(one_cycle)
