"""The column hand-off: ``BatchIngest`` cohorts as columns, the column
planner's signed entries, and hostile or sparse oids, which the object
store's ``oid -> row`` dict takes like any other.

Every report is one home-cell transition ``(old home, new home)``; the
cohorts leave ingest as :class:`CohortColumns` and
``ColumnarEvaluator._plan_columns`` builds the :class:`PairPlan` with
array passes only: each entry carries the one sign it may emit.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.columnar import classify_transitions
from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity

GRID = 8


def columnar() -> IncrementalEngine:
    return IncrementalEngine(grid_size=GRID, prediction_horizon=30.0)


def random_velocity(rng: random.Random) -> Velocity:
    if rng.random() < 0.25:
        return Velocity(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
    return Velocity.ZERO


def test_column_planner_on_every_cohort_shape():
    """One batch holding each shape the roles must get right: a stay-put
    cohort (its cell's partial list, either sign), a neighbour
    transition (the old cell's full list minus-only, then the new
    cell's plus-only) whose queries are listed in both cells, a new
    object (its cell's full list, either sign), and a velocity-carrying
    row.  The plan's stream is the reference's, each pair at most once.
    """
    engines = [columnar(), reference()]
    for engine in engines:
        engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))  # covers cells 0, 1, 9
        engine.register_range_query(2, Rect(0.0, 0.0, 0.125, 0.125))  # covers cell 0 only
        engine.register_range_query(3, Rect(0.05, 0.05, 0.2, 0.1))  # partial in 0 and 1
        engine.report_object(10, Point(0.05, 0.05), 0.0)  # cell 0, stays
        engine.report_object(11, Point(0.06, 0.02), 0.0)  # cell 0 -> 1
        engine.report_object(12, Point(0.07, 0.07), 0.0, Velocity(0.01, 0.0))
        engine.evaluate(0.0)
        engine.report_object(10, Point(0.055, 0.05), 1.0)
        engine.report_object(11, Point(0.15, 0.06), 1.0)  # enters 3, leaves 2
        engine.report_object(12, Point(0.16, 0.07), 1.0, Velocity(0.01, 0.0))  # leaves 2
        engine.report_object(13, Point(0.3, 0.3), 1.0)
    engine, ref = engines
    columns = engine._batch_ingest.group(engine._pending_reports, set())
    plan = engine._columnar_evaluator._plan_columns(columns, set())
    members = [
        columns.oids[columns.order[start : start + count]].tolist()
        for start, count in zip(columns.start, columns.count)
    ]
    assert list(zip(columns.old.tolist(), columns.new.tolist(), members)) == [
        (0, 0, [10]),
        (0, 1, [11, 12]),
        (-1, 18, [13]),
    ]
    row_of = engine._qstore.row_of
    # stay-put: cell 0's partial query 3; pair: cell 0's partial 3 and
    # covering 1, 2 minus-only, then cell 1's partial 2, 3 and covering
    # 1 plus-only; new object: cell 18's covering 1.
    assert plan.ent_counts.tolist() == [1, 6, 1]
    assert plan.ent.tolist() == [row_of(q) for q in (3, 3, 1, 2, 2, 3, 1, 1)]
    assert plan.roles.tolist() == [0, -1, -1, -1, 1, 1, 1, 0]
    assert plan.obj_counts.tolist() == [1, 2, 1]
    qids, oids, signs = (
        column.tolist()
        for column in classify_transitions(plan, engine._ostore, engine._qstore)
    )
    stream = list(zip(qids, oids, signs))
    assert stream == [(1, 13, 1), (2, 11, -1), (2, 12, -1), (3, 11, 1)]
    assert sorted(stream) == streams_of([ref], 1.0)[0]
    assert max(Counter(zip(qids, oids)).values()) == 1


def reference() -> IncrementalEngine:
    return IncrementalEngine(
        grid_size=GRID, prediction_horizon=30.0, pipeline="per-object"
    )


def streams_of(engines, now: float):
    return [
        sorted((u.qid, u.oid, u.sign) for u in engine.evaluate(now))
        for engine in engines
    ]


def test_hostile_oids_stay_inside_the_batch_call():
    """A negative and an absurdly sparse oid, moving, ride along in the
    batch call with a thousand plain rows: streams and answers match the
    per-object reference, and nothing lands in the grid index's object
    side."""
    rng = random.Random(5)
    engines = [columnar(), reference()]
    for engine in engines:
        engine.register_range_query(1, Rect(0.1, 0.1, 0.6, 0.6))
        engine.register_range_query(2, Rect(0.5, 0.5, 0.9, 0.9))
        engine.register_knn_query(3, Point(0.5, 0.5), 3)
        engine.register_predictive_query(4, Rect(0.2, 0.2, 0.4, 0.4), 10.0)
    oids = list(range(1000)) + [-7, 10**12]
    for now in (0.0, 1.0, 2.0):
        for oid in oids:
            location = Point(rng.random(), rng.random())
            velocity = random_velocity(rng) if oid in (-7, 10**12) else Velocity.ZERO
            for engine in engines:
                engine.report_object(oid, location, now, velocity)
        streams = streams_of(engines, now)
        assert streams[0] == streams[1]
    batch, ref = engines
    assert batch.complete_answers() == ref.complete_answers()
    assert batch.index.object_count == 0
    for engine in engines:
        engine.remove_object(-7)
        engine.remove_object(10**12)
    streams = streams_of(engines, 3.0)
    assert streams[0] == streams[1]
    assert batch.complete_answers() == ref.complete_answers()
    for engine in engines:
        engine.check_invariants()


def test_a_sparse_oid_keeps_its_cell_as_the_population_grows():
    """An oid far beyond the population (70_000 with two objects
    tracked) reports, the population grows past two thousand, and the
    oid moves out of a range query: one negative, as on the reference."""
    engines = [columnar(), reference()]
    far = 70_000
    for engine in engines:
        engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))
        engine.report_object(0, Point(0.1, 0.1), 0.0)
        engine.report_object(far, Point(0.2, 0.2), 0.0)
    streams = streams_of(engines, 0.0)
    assert streams[0] == streams[1]
    for engine in engines:
        for oid in range(1, 2000):
            engine.report_object(oid, Point(0.9, 0.9), 1.0)
        engine.report_object(far, Point(0.8, 0.8), 1.0)
    streams = streams_of(engines, 1.0)
    assert streams[0] == streams[1] == [(1, far, -1)]
    for engine in engines:
        engine.check_invariants()


def test_sparse_oids_across_batches_match_the_reference():
    """Sparse oids first reported in different batches, then moved in
    and out of a range query, stream exactly as on the reference."""
    engines = [columnar(), reference()]
    for engine in engines:
        engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))
    batches = [
        {0: (0.1, 0.1), 60_000: (0.2, 0.2)},
        {65_000: (0.3, 0.3), 80_000: (0.15, 0.15)},
        {80_000: (0.8, 0.8)},
        {80_000: (0.3, 0.1)},
    ]
    for now, batch in enumerate(batches):
        for oid, (x, y) in batch.items():
            for engine in engines:
                engine.report_object(oid, Point(x, y), float(now))
        streams = streams_of(engines, float(now))
        assert streams[0] == streams[1]
        for engine in engines:
            engine.check_invariants()


def test_a_knn_query_holding_a_reported_member_is_marked_dirty():
    """The member rule, pinned where per-cell marking cannot stand in
    for it: a member on a cell edge a few ulps outside its circle's
    rounded bounding rectangle leaves the footprint, so neither of its
    cells lists the query.  Here the footprint is re-placed by hand to
    cover neither the member's old cell nor its new one; reporting the
    member must still mark its query, and only its query."""
    engine = columnar()
    engine.register_knn_query(7, Point(0.1, 0.1), 1)
    engine.register_knn_query(8, Point(0.9, 0.9), 1)
    engine.report_object(1, Point(0.12, 0.12), 0.0)  # cell 0, query 7's
    engine.report_object(2, Point(0.88, 0.88), 0.0)  # cell 63, query 8's
    engine.evaluate(0.0)
    assert engine.answer_of(7) == {1} and engine.answer_of(8) == {2}
    far = frozenset({GRID * GRID // 2})
    for qid in (7, 8):
        engine.index.place_query(qid, far)
    engine.report_object(1, Point(0.2, 0.12), 1.0)  # cell 0 -> cell 1
    columns = engine._batch_ingest.group(engine._pending_reports, set())
    assert (columns.old.tolist(), columns.new.tolist()) == ([0], [1])
    knn_dirty: set[int] = set()
    engine._columnar_evaluator._plan_columns(columns, knn_dirty)
    assert knn_dirty == {7}
