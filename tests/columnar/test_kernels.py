"""Kernel contract tests: the per-report join against a brute-force pair
classification.

Batches here run through the production ingest, range CSR and kernels
but not through an evaluation, so the tests pin the kernel contract
itself: every (range query, reported object) pair whose membership
changed, once, as public qid/oid arrays (queries and objects use
non-identity ids so the row→id mapping is genuinely exercised), grouped
by query with negatives first and each half in report order; a query
``skip`` names emits nothing; a new object was a member of nothing.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.columnar import classify_pairs, ingest_reports, join_reports
from repro.columnar.kernels import PAIR_CHUNK
from repro.core import IncrementalEngine
from repro.geometry import Point, Rect

GRID = 8


def join(engine, skip, chunk_pairs=PAIR_CHUNK):
    """Ingest the engine's buffered reports and run the report join over
    them: the batch's ``Reports`` and the changed pairs as lists, once
    their answer keys are checked to name the pairs' store rows."""
    reports = ingest_reports(engine._pending_reports, engine.grid, engine._ostore)
    pairs = join_reports(
        reports.prev_cells, reports.cells, *engine._columnar_evaluator._range_csr(), skip
    )
    joined = classify_pairs(pairs, reports, engine._qstore, chunk_pairs)
    if joined is None:
        return reports, ([], [], [])
    qids, oids, signs, keys = (column.tolist() for column in joined)
    assert keys == [
        engine._qstore.row_of(qid) << 32 | engine._ostore.row_of(oid)
        for qid, oid in zip(qids, oids)
    ]
    return reports, (qids, oids, signs)


def brute_force(engine, before, skip):
    """Straight-line classification of every (range query, buffered
    report) pair, independent of the kernels: ``before`` holds each
    known object's location ahead of the batch; then one sort into query
    row order, negatives first, reports in buffer order."""
    qstore = engine._qstore
    changed = []
    for row in range(len(qstore)):
        if skip[row]:
            continue
        region = qstore.region_at(row)
        for i, (oid, (x, y, *_)) in enumerate(engine._pending_reports.items()):
            was = oid in before and region.contains_point(before[oid])
            now = region.contains_point(Point(x, y))
            if was != now:
                changed.append((row, now, i, qstore.qids[row], oid))
    changed.sort()
    return (
        [qid for *_, qid, _ in changed],
        [oid for *_, oid in changed],
        [1 if now else -1 for _, now, *_ in changed],
    )


def check(engine, skip, chunk_pairs=PAIR_CHUNK):
    """The join of the buffered batch equals the brute force."""
    before = {oid: engine.objects[oid].location for oid in engine.objects}
    want = brute_force(engine, before, skip)
    _, got = join(engine, skip, chunk_pairs)
    assert got == want
    return got


def no_skip(engine):
    return np.zeros(len(engine._qstore), dtype=bool)


def build_random_batch(seed: int):
    """A populated, evaluated engine with a buffered report batch —
    objects staying in their cell, changing cell, and new — plus a
    random ``skip`` mask over its queries."""
    rng = random.Random(seed)
    engine = IncrementalEngine(grid_size=GRID)
    n_objects = rng.randint(5, 60)
    for i in range(rng.randint(3, 30)):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        engine.register_range_query(
            500 + 7 * i, Rect(x, y, x + rng.random() * 0.4, y + rng.random() * 0.4)
        )
    for i in range(n_objects):
        engine.report_object(1000 + 3 * i, Point(rng.random(), rng.random()), 0.0)
    engine.evaluate(0.0)
    for i in range(n_objects + rng.randint(0, 5)):
        oid = 1000 + 3 * i
        if oid in engine.objects and rng.random() < 0.5:
            here = engine.objects[oid].location
            step = rng.choice((0.01, 0.2))
            to = Point(here.x + rng.uniform(-step, step), here.y + rng.uniform(-step, step))
        else:
            to = Point(rng.random(), rng.random())
        if rng.random() < 0.8:
            engine.report_object(oid, to, 1.0)
    skip = np.array([rng.random() < 0.2 for _ in range(len(engine._qstore))], dtype=bool)
    return engine, skip


@pytest.mark.parametrize("seed", range(20))
def test_numpy_backend_matches_reference(seed):
    engine, skip = build_random_batch(seed)
    check(engine, skip)


@pytest.mark.parametrize("seed", range(8))
def test_numpy_chunking_is_invisible(seed):
    """Chunks of 7 pairs cut through reports' minus-only and plus-only
    segments alike."""
    engine, skip = build_random_batch(seed)
    whole = check(engine, skip)
    engine, skip = build_random_batch(seed)
    assert check(engine, skip, chunk_pairs=7) == whole


#: Coordinates on a sixteenths lattice (cell edges and closed bounds hit
#: exactly) or anywhere, some off the world (the report door clamps).
coords = st.one_of(
    st.sampled_from([i / 16 for i in range(17)]), st.floats(-0.25, 1.25)
)


@st.composite
def batches(draw):
    """An evaluated engine over drawn objects and range queries, a drawn
    report batch over known and new oids, and a drawn ``skip`` mask."""
    engine = IncrementalEngine(grid_size=GRID)
    n_queries = draw(st.integers(1, 8))
    for i in range(n_queries):
        x0, x1 = sorted((draw(coords), draw(coords)))
        y0, y1 = sorted((draw(coords), draw(coords)))
        engine.register_range_query(500 + 7 * i, Rect(x0, y0, x1, y1))
    n_objects = draw(st.integers(0, 12))
    for i in range(n_objects):
        engine.report_object(1000 + 3 * i, Point(draw(coords), draw(coords)), 0.0)
    engine.evaluate(0.0)
    oids = draw(
        st.lists(st.integers(0, n_objects + 3), min_size=1, max_size=12, unique=True)
    )
    for i in oids:
        engine.report_object(1000 + 3 * i, Point(draw(coords), draw(coords)), 1.0)
    skip = np.array(draw(st.lists(st.booleans(), min_size=n_queries, max_size=n_queries)))
    return engine, skip


@given(batch=batches(), chunk_pairs=st.integers(1, 64))
def test_join_matches_brute_force_on_any_batch(batch, chunk_pairs):
    engine, skip = batch
    check(engine, skip, chunk_pairs)


def test_a_pair_listed_under_both_roles_emits_once():
    """A report that changed cell joins a query listed in both cells
    twice: the old cell's copy may only emit the leaver, the new cell's
    only the entrant."""
    engine = IncrementalEngine(grid_size=GRID)
    engine.register_range_query(9, Rect(0.1, 0.0, 0.2, 0.1))  # partial in cells 0, 1
    engine.report_object(1, Point(0.05, 0.05), 0.0)  # cell 0, outside
    engine.report_object(2, Point(0.15, 0.05), 0.0)  # cell 1, inside
    engine.evaluate(0.0)
    engine.report_object(1, Point(0.15, 0.06), 1.0)  # cell 0 -> 1: enters
    engine.report_object(2, Point(0.05, 0.06), 1.0)  # cell 1 -> 0: leaves
    reports, got = join(engine, no_skip(engine))
    assert (reports.prev_cells.tolist(), reports.cells.tolist()) == ([0, 1], [1, 0])
    assert got == ([9, 9], [2, 1], [-1, 1])


def test_nan_old_coords_mean_member_of_nothing():
    engine = IncrementalEngine(grid_size=GRID)
    engine.register_range_query(9, Rect(0.0, 0.0, 1.0, 1.0))
    engine.evaluate(0.0)
    # A new object inside the query: NaN old coordinates -> a pure enter.
    engine.report_object(1, Point(0.5, 0.5), 1.0)
    reports, got = join(engine, no_skip(engine))
    assert math.isnan(reports.prev_xs[0]) and math.isnan(reports.prev_ys[0])
    assert reports.prev_cells.tolist() == [-1]
    assert got == ([9], [1], [1])


def test_empty_plan():
    """A batch whose cells list no range query joins no pair and emits
    nothing; nor does a query ``skip`` names."""
    engine = IncrementalEngine(grid_size=GRID)
    engine.register_range_query(9, Rect(0.0, 0.0, 0.1, 0.1))
    engine.report_object(1, Point(0.9, 0.9), 0.0)
    engine.evaluate(0.0)
    engine.report_object(1, Point(0.95, 0.9), 1.0)
    reports = ingest_reports(engine._pending_reports, engine.grid, engine._ostore)
    pairs = join_reports(
        reports.prev_cells, reports.cells, *engine._columnar_evaluator._range_csr(),
        no_skip(engine),
    )
    assert all(len(column) == 0 for column in pairs)
    assert classify_pairs(pairs, reports, engine._qstore) is None
    engine.report_object(1, Point(0.05, 0.05), 2.0)
    assert join(engine, np.ones(1, dtype=bool))[1] == ([], [], [])


def test_boundary_containment_is_closed():
    # Objects sitting exactly on a bound stay inside: closed
    # comparisons, matching Rect.contains_point.
    engine = IncrementalEngine(grid_size=GRID)
    engine.register_range_query(5, Rect(0.2, 0.2, 0.4, 0.6))
    engine.report_object(1, Point(0.2, 0.2), 0.0)
    engine.evaluate(0.0)
    assert engine.answer_of(5) == {1}
    # Old (0.2, 0.2) on the min corner and new (0.4, 0.6) on the max
    # corner are both inside: no transition.
    engine.report_object(1, Point(0.4, 0.6), 1.0)
    assert join(engine, no_skip(engine))[1] == ([], [], [])
