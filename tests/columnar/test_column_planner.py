"""The column hand-off: ``BatchIngest`` cohorts as columns, the column
planner against its per-cohort oracle, and the inputs that must not
knock a batch off the array path.

Every report is one home-cell transition ``(old home, new home)``; under
numpy the cohorts leave ingest as :class:`CohortColumns` and
``ColumnarEvaluator._plan_columns`` builds the :class:`PairPlan` with
array passes only.  ``_build_plan`` — the python backend's per-cohort
planner — is the oracle: same cohorts in, same plan out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.columnar import numpy_available
from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity

needs_numpy = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

GRID = 8
CELL = 1.0 / GRID


def columnar(backend: str = "numpy", **kwargs) -> IncrementalEngine:
    return IncrementalEngine(
        grid_size=GRID,
        prediction_horizon=30.0,
        pipeline="columnar",
        columnar_backend=backend,
        **kwargs,
    )


def random_velocity(rng: random.Random) -> Velocity:
    if rng.random() < 0.25:
        return Velocity(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
    return Velocity.ZERO


def settled_engine(rng: random.Random) -> tuple[IncrementalEngine, dict]:
    """An engine with every query kind registered — small partial
    queries, big ones covering whole (and neighbouring) cells — and a
    population placed, all evaluated once."""
    engine = columnar()
    qid = 100
    for _ in range(rng.randint(4, 14)):
        x, y = rng.random(), rng.random()
        side = rng.choice((0.05, 0.2, 0.45, 0.8))
        engine.register_range_query(qid, Rect(x - side, y - side, x + side, y + side))
        qid += 1
    for _ in range(rng.randint(0, 3)):
        engine.register_knn_query(qid, Point(rng.random(), rng.random()), 2)
        qid += 1
    for _ in range(rng.randint(0, 3)):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        engine.register_predictive_query(qid, Rect(x, y, x + 0.2, y + 0.2), 10.0)
        qid += 1
    positions = {}
    for oid in range(rng.randint(5, 60)):
        positions[oid] = (rng.random(), rng.random())
        engine.report_object(oid, Point(*positions[oid]), 0.0, random_velocity(rng))
    engine.evaluate(0.0)
    return engine, positions


def buffer_random_batch(engine, positions, rng: random.Random) -> None:
    """Stay-put jitters, hops into a neighbouring cell, long jumps,
    brand-new objects — with and without a velocity."""
    next_oid = len(positions)
    for oid, (x, y) in positions.items():
        move = rng.random()
        if move < 0.25:
            continue
        if move < 0.55:  # stays inside its cell, most of the time
            x += rng.uniform(-0.2, 0.2) * CELL
            y += rng.uniform(-0.2, 0.2) * CELL
        elif move < 0.85:  # one cell over
            x += rng.choice((-CELL, 0.0, CELL))
            y += rng.choice((-CELL, 0.0, CELL))
        else:
            x, y = rng.random(), rng.random()
        engine.report_object(oid, Point(x, y), 1.0, random_velocity(rng))
    for extra in range(rng.randint(0, 8)):
        engine.report_object(
            next_oid + extra,
            Point(rng.random(), rng.random()),
            1.0,
            random_velocity(rng),
        )


def both_plans(engine):
    """Ingest the buffered batch once, then plan it both ways."""
    evaluator = engine._columnar_evaluator
    columns = engine._batch_ingest.group(engine._pending_reports, set())
    knn_columns: set[int] = set()
    plan = evaluator._plan_columns(columns, knn_columns)
    cohorts = list(engine._iter_cohorts(columns.groups()))
    knn_oracle: set[int] = set()
    oracle, _ = evaluator._build_plan(cohorts, knn_oracle)
    assert knn_columns == knn_oracle
    return plan, oracle, cohorts


def plan_columns(plan) -> tuple[list, list, list, list]:
    ent = [int(row) for part in plan.ent_parts for row in part]
    return (
        ent,
        [int(c) for c in plan.ent_counts],
        [int(r) for r in plan.obj_rows],
        [int(c) for c in plan.obj_counts],
    )


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_column_planner_equals_the_per_cohort_oracle(seed):
    rng = random.Random(seed)
    engine, positions = settled_engine(rng)
    buffer_random_batch(engine, positions, rng)
    if not engine._pending_reports:
        return
    plan, oracle, _ = both_plans(engine)
    assert plan_columns(plan) == plan_columns(oracle)
    assert plan.total_pairs == oracle.total_pairs


@needs_numpy
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
    plan, oracle, cohorts = both_plans(engine)
    assert plan_columns(plan) == plan_columns(oracle)
    assert [(cells, [s.oid for s in states]) for cells, states, _, _ in cohorts] == [
        ((0,), [10]),
        ((0, 1), [11, 12]),
        ((18,), [13]),
    ]
    row_of = engine._qstore.row_of
    ent, ent_counts, _, obj_counts = plan_columns(plan)
    # stay-put: only the partial query 3; pair: query 3 once (it is in
    # both cells' lists) and query 2 (covers the old cell only) — never
    # query 1, which covers both; new object: query 1.
    assert ent_counts == [1, 2, 1]
    assert ent == [row_of(3), row_of(3), row_of(2), row_of(1)]
    assert obj_counts == [1, 2, 1]


@needs_numpy
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
    assert ingest.enabled
    assert ingest.cell_hint(-7) is None and ingest.cell_hint(10**12) is None
    assert ingest.cell_hint(999) == next(iter(batch.index.object_cells(999)))
    batch.check_invariants()
    value_of = batch.registry.value_of
    assert value_of("engine_batch_ingest_fallback_total", {"reason": "no_numpy"}) == 0
    # Two out-of-column rows per round; the thousand plain rows never
    # left the array path.
    assert value_of("engine_ingest_rows_total", {"path": "scalar"}) == 6
    assert value_of("engine_ingest_rows_total", {"path": "batch"}) == 3000
    batch.remove_object(-7)
    batch.remove_object(10**12)
    batch.evaluate(3.0)
    batch.check_invariants()


@needs_numpy
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


@needs_numpy
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


@pytest.mark.parametrize(
    "backend", ["python", pytest.param("numpy", marks=needs_numpy)]
)
def test_bulk_rounds_never_key_the_cohort_cache_on_footprints(backend):
    """2k objects, a tenth of them predictive, five all-report rounds:
    the per-cohort planner's cache holds home-cell pairs only, and the
    column planner leaves it empty."""
    rng = random.Random(17)
    engine = IncrementalEngine(
        grid_size=16,
        prediction_horizon=30.0,
        pipeline="columnar",
        columnar_backend=backend,
    )
    for qid in range(60):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        engine.register_range_query(qid, Rect(x, y, x + 0.1, y + 0.1))
    positions = {oid: (rng.random(), rng.random()) for oid in range(2000)}
    for now in range(5):
        for oid, (x, y) in positions.items():
            x = min(max(x + rng.uniform(-0.05, 0.05), 0.0), 1.0)
            y = min(max(y + rng.uniform(-0.05, 0.05), 0.0), 1.0)
            positions[oid] = (x, y)
            velocity = (
                Velocity(rng.uniform(-0.01, 0.01), rng.uniform(-0.01, 0.01))
                if oid % 10 == 0
                else Velocity.ZERO
            )
            engine.report_object(oid, Point(x, y), float(now), velocity)
        engine.evaluate(float(now))
        cache = engine._columnar_evaluator._cohort_cache
        for key in cache:
            assert len(key) == 2 and all(type(cell) is int for cell in key), key
        assert not cache or backend == "python"
    assert cache or backend == "numpy"
    engine.check_invariants()
    assert any(len(engine.index.object_cells(oid)) > 1 for oid in range(0, 2000, 10))
