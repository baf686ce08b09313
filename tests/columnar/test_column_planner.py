"""The column hand-off: ``BatchIngest`` cohorts as columns, the column
planner's dedup, and the inputs that must not knock a batch off the
array path.

Every report is one home-cell transition ``(old home, new home)``; the
cohorts leave ingest as :class:`CohortColumns` and
``ColumnarEvaluator._plan_columns`` builds the :class:`PairPlan` with
array passes only.
"""

from __future__ import annotations

import random

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
    """One batch holding each shape the dedup must get right: a
    stay-put cohort under a covering query (skipped), a neighbour
    transition under a query covering both cells (skipped) and under
    one covering only the old cell (joined once), a new object, and a
    velocity-carrying row."""
    engine = columnar()
    engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))  # covers cells 0, 1, 9
    engine.register_range_query(2, Rect(0.0, 0.0, 0.125, 0.125))  # covers cell 0 only
    engine.register_range_query(3, Rect(0.05, 0.05, 0.2, 0.1))  # partial in 0 and 1
    engine.report_object(10, Point(0.05, 0.05), 0.0)  # cell 0, stays
    engine.report_object(11, Point(0.06, 0.06), 0.0)  # cell 0 -> 1
    engine.report_object(12, Point(0.07, 0.07), 0.0, Velocity(0.01, 0.0))
    engine.evaluate(0.0)
    engine.report_object(10, Point(0.055, 0.05), 1.0)
    engine.report_object(11, Point(0.15, 0.06), 1.0)
    engine.report_object(12, Point(0.16, 0.07), 1.0, Velocity(0.01, 0.0))
    engine.report_object(13, Point(0.3, 0.3), 1.0)
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
    ent = plan.ent.tolist()
    ent_counts = plan.ent_counts.tolist()
    obj_counts = plan.obj_counts.tolist()
    # stay-put: only the partial query 3; pair: query 3 once (it is in
    # both cells' lists) and query 2 (covers the old cell only) — never
    # query 1, which covers both; new object: query 1.
    assert ent_counts == [1, 2, 1]
    assert ent == [row_of(3), row_of(3), row_of(2), row_of(1)]
    assert obj_counts == [1, 2, 1]


def test_hostile_oids_stay_inside_the_batch_call():
    """A negative and an absurdly sparse oid ride along as out-of-column
    rows: the kernel stays on, everyone else stays on arrays, and the
    answers match the per-object reference."""
    rng = random.Random(5)
    engines = [
        columnar(),
        IncrementalEngine(
            grid_size=GRID, prediction_horizon=30.0, pipeline="per-object"
        ),
    ]
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
        streams = [
            sorted((u.qid, u.oid, u.sign) for u in engine.evaluate(now))
            for engine in engines
        ]
        assert streams[0] == streams[1]
    batch, reference = engines
    ingest = batch._batch_ingest
    assert ingest.cell_hint(-7) is None and ingest.cell_hint(10**12) is None
    assert ingest.cell_hint(999) == next(iter(batch.index.object_cells(999)))
    batch.check_invariants()
    value_of = batch.registry.value_of
    # Two out-of-column rows per round; the thousand plain rows never
    # left the array path.
    assert value_of("engine_ingest_rows_total", {"path": "scalar"}) == 6
    assert value_of("engine_ingest_rows_total", {"path": "batch"}) == 3000
    batch.remove_object(-7)
    batch.remove_object(10**12)
    batch.evaluate(3.0)
    batch.check_invariants()


def test_an_oid_entering_the_column_late_keeps_its_cell():
    """The sparsity limit moves with the population, so an oid can be
    out-of-column in one batch and inside the next; the column must
    pick its placement up from the index when it grows over it."""
    engine = columnar()
    engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))
    far = 70_000  # beyond 8 * 2 + 65_536
    engine.report_object(0, Point(0.1, 0.1), 0.0)
    engine.report_object(far, Point(0.2, 0.2), 0.0)
    engine.evaluate(0.0)
    ingest = engine._batch_ingest
    assert ingest.cell_hint(far) is None
    for oid in range(1, 2000):
        engine.report_object(oid, Point(0.9, 0.9), 1.0)
    engine.report_object(far, Point(0.8, 0.8), 1.0)
    updates = engine.evaluate(1.0)
    assert [(u.qid, u.oid, u.sign) for u in updates] == [(1, far, -1)]
    assert ingest.cell_hint(far) == engine.grid.cell_of(Point(0.8, 0.8))
    engine.check_invariants()


def test_an_oid_between_the_limit_and_the_column_end_is_in_column():
    """The column grows with headroom, so it can end beyond the sparsity
    limit of the batch that grew it.  An oid in that window must be
    written like any other in-column row, or the next batch (whose
    limit is the column's length) trusts a stale entry and strands a
    ghost member in the old bucket."""
    engines = [
        columnar(),
        IncrementalEngine(
            grid_size=GRID, prediction_horizon=30.0, pipeline="per-object"
        ),
    ]
    for engine in engines:
        engine.register_range_query(1, Rect(0.0, 0.0, 0.5, 0.5))
    batches = [
        {0: (0.1, 0.1), 60_000: (0.2, 0.2)},
        # Grows the column to 90_001 rows under a limit of ~65.5k.
        {65_000: (0.3, 0.3), 80_000: (0.15, 0.15)},
        {80_000: (0.8, 0.8)},
        {80_000: (0.3, 0.1)},
    ]
    for now, batch in enumerate(batches):
        for oid, (x, y) in batch.items():
            for engine in engines:
                engine.report_object(oid, Point(x, y), float(now))
        streams = [
            sorted((u.qid, u.oid, u.sign) for u in engine.evaluate(float(now)))
            for engine in engines
        ]
        assert streams[0] == streams[1]
        engines[0].check_invariants()
        ingest = engines[0]._batch_ingest
        for oid in engines[0].objects:
            hint = ingest.cell_hint(oid)
            assert hint is None or {hint} == set(engines[0].index.object_cells(oid))
