"""The production stream arrives in query runs.

Every phase of a columnar evaluation emits grouped by query, so the
server resolves owners, folds delivered answers and attributes
freshness once per run.  A bulk report round — the report join — touches
each query in exactly one run, negatives before positives; so does a
round that also moves range queries, each re-answered once at the
batch's end state; a removal round does too, qids ascending.
"""

from __future__ import annotations

import random

from repro.core.engine import IncrementalEngine
from repro.geometry import Point, Rect
from repro.obs import FlightRecorder

N_OBJECTS = 1_500
N_QUERIES = 120


def runs(stream) -> list[tuple[int, list[int]]]:
    """``(qid, signs)`` of every maximal run of one qid, in order."""
    out: list[tuple[int, list[int]]] = []
    for qid, _, sign in stream.tuples():
        if out and out[-1][0] == qid:
            out[-1][1].append(sign)
        else:
            out.append((qid, [sign]))
    return out


def build(rng: random.Random) -> IncrementalEngine:
    engine = IncrementalEngine(grid_size=16, recorder=FlightRecorder(capacity=64))
    for oid in range(N_OBJECTS):
        engine.report_object(oid, Point(rng.random(), rng.random()), 0.0)
    for qid in range(N_QUERIES):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        side = 0.05 + rng.random() * 0.15
        engine.register_range_query(qid, Rect(x, y, x + side, y + side))
    engine.evaluate(0.0)
    return engine


def test_bulk_round_emits_one_run_per_touched_qid():
    rng = random.Random(29)
    engine = build(rng)
    for oid in range(N_OBJECTS):
        engine.report_object(oid, Point(rng.random(), rng.random()), 1.0)
    stream = engine.evaluate(1.0)
    batches = [e for e in engine.recorder.events() if e["kind"] == "columnar_batch"]
    assert batches[-1]["reports"] == N_OBJECTS
    got = runs(stream)
    assert len(got) == len(set(stream.qids)) > N_QUERIES // 2
    for _, signs in got:
        assert signs == sorted(signs)  # negatives, then positives


def test_moved_range_queries_and_reports_emit_one_run_per_qid():
    """Range queries move — half of them carried onto their own object,
    which reports too, the rest anywhere — while every object reports a
    short step: a moved query's pairs and the join's never split a
    query into two runs."""
    rng = random.Random(31)
    engine = build(rng)
    for oid in range(N_OBJECTS):
        here = engine.objects[oid].location
        to = Point(here.x + rng.uniform(-0.02, 0.02), here.y + rng.uniform(-0.02, 0.02))
        engine.report_object(oid, to, 1.0)
        if oid < N_QUERIES // 2:
            carried = Rect(to.x - 0.05, to.y - 0.05, to.x + 0.05, to.y + 0.05)
            engine.move_range_query(oid, carried, 1.0)
    for qid in range(N_QUERIES // 2, N_QUERIES, 3):
        x, y = rng.random() * 0.8, rng.random() * 0.8
        engine.move_range_query(qid, Rect(x, y, x + 0.1, y + 0.1), 1.0)
    stream = engine.evaluate(1.0)
    got = runs(stream)
    moved = set(range(N_QUERIES // 2)) | set(range(N_QUERIES // 2, N_QUERIES, 3))
    assert len(moved & set(stream.qids)) > len(moved) // 2
    assert len(got) == len(set(stream.qids)) > N_QUERIES // 2
    for _, signs in got:
        assert signs == sorted(signs)  # negatives, then positives
    engine.check_invariants()


def test_removal_round_emits_one_run_per_query_in_qid_order():
    rng = random.Random(30)
    engine = build(rng)
    for oid in range(0, N_OBJECTS, 3):
        engine.remove_object(oid)
    stream = engine.evaluate(1.0)
    got = runs(stream)
    qids = [qid for qid, _ in got]
    assert qids == sorted(set(qids)) and len(qids) > N_QUERIES // 2
    assert set(stream.signs) == {-1}
    for qid, _ in got:
        oids = [oid for q, oid, _ in stream.tuples() if q == qid]
        assert oids == sorted(oids)
