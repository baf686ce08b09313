"""The per-report join end to end, and hostile or sparse oids, which the
object store's ``oid -> row`` dict takes like any other.

Each reported object takes one or two segments of the range CSR — its
old cell's full list minus-only and its new cell's plus-only if it
changed home cell, its cell's partial list with either sign if it stayed
put — and every changed pair is emitted once, grouped by query.
"""

from __future__ import annotations

import random
from collections import Counter

from repro.check.reference import ReferenceEngine
from repro.columnar import ingest_reports
from repro.core import DEFAULT_WORLD, IncrementalEngine
from repro.geometry import Point, Rect, Velocity

GRID = 8


def columnar() -> IncrementalEngine:
    return IncrementalEngine(grid_size=GRID, prediction_horizon=30.0)


def random_velocity(rng: random.Random) -> Velocity:
    if rng.random() < 0.25:
        return Velocity(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
    return Velocity.ZERO


def test_report_join_on_every_report_shape():
    """One batch holding each shape the roles must get right: a report
    that stays put (its cell's partial list, either sign), two that
    change cell to a neighbour (the old cell's full list minus-only,
    then the new cell's plus-only) whose queries are listed in both
    cells — one carrying a velocity — and a new object (its cell's full
    list).  The stream is the reference's, each pair once, grouped by
    query with negatives first."""
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
        engine.report_object(13, Point(0.3, 0.3), 1.0)  # new, in cell 18
    engine, ref = engines
    pairs_before = engine.registry.value_of("engine_columnar_pairs_total")
    stream = list(engine.evaluate(1.0).tuples())
    assert stream == [(1, 13, 1), (2, 11, -1), (2, 12, -1), (3, 11, 1)]
    assert sorted(stream) == streams_of([ref], 1.0)[0]
    assert max(Counter((qid, oid) for qid, oid, _ in stream).values()) == 1
    # Pairs: 10 meets cell 0's partial query 3; 11 and 12 each meet
    # cell 0's 3, 1, 2 and cell 1's 2, 3, 1; 13 meets cell 18's 1.
    pairs = engine.registry.value_of("engine_columnar_pairs_total") - pairs_before
    assert pairs == 1 + 6 + 6 + 1


def reference() -> ReferenceEngine:
    return ReferenceEngine(DEFAULT_WORLD, 30.0)


def streams_of(engines, now: float):
    return [
        sorted((u.qid, u.oid, u.sign) for u in engine.evaluate(now))
        for engine in engines
    ]


def test_hostile_oids_stay_inside_the_batch_call():
    """A negative and an absurdly sparse oid, moving, ride along in the
    batch call with a thousand plain rows: streams and answers match the
    brute-force reference, and nothing lands in the grid index's object
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
    for engine in engines:
        engine.remove_object(-7)
        engine.remove_object(10**12)
    streams = streams_of(engines, 3.0)
    assert streams[0] == streams[1]
    assert batch.complete_answers() == ref.complete_answers()
    batch.check_invariants()


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
    engines[0].check_invariants()


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
        engines[0].check_invariants()


def test_a_knn_query_holding_a_reported_member_is_marked_dirty():
    """The member rule, pinned where per-cell marking cannot stand in
    for it: a member on a cell edge a few ulps outside its circle's
    rounded bounding rectangle leaves the footprint, so neither of its
    cells meets it.  Here each query's centre is moved by hand, radius
    0, to a far cell, so its computed footprint covers neither the
    member's old cell nor its new one; reporting the member must still
    mark its query, and only its query."""
    engine = columnar()
    engine.register_knn_query(7, Point(0.1, 0.1), 1)
    engine.register_knn_query(8, Point(0.9, 0.9), 1)
    engine.report_object(1, Point(0.12, 0.12), 0.0)  # cell 0, query 7's
    engine.report_object(2, Point(0.88, 0.88), 0.0)  # cell 63, query 8's
    engine.evaluate(0.0)
    assert engine.answer_of(7) == {1} and engine.answer_of(8) == {2}
    far = engine.grid.cell_rect(GRID * GRID // 2).center
    qstore = engine._qstore
    for qid in (7, 8):
        row = qstore.row_of(qid)
        qstore.cxs[row], qstore.cys[row] = far.x, far.y
        qstore.radii[row] = 0.0
    engine.report_object(1, Point(0.2, 0.12), 1.0)  # cell 0 -> cell 1
    reports = ingest_reports(engine._pending_reports, engine.grid, engine._ostore)
    assert (reports.prev_cells.tolist(), reports.cells.tolist()) == ([0], [1])
    knn_dirty: set[int] = set()
    engine._columnar_evaluator._mark_knn(reports, knn_dirty)
    assert knn_dirty == {7}
