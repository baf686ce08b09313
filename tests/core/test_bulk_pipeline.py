"""The columnar pipeline vs the per-object path on random workloads.

The columnar pipeline is a pure performance restructuring of
``evaluate()``'s hot path: for any buffered input it must emit, per
query, exactly the same set of incremental updates as the per-object
reference path, and leave both engines with identical answers.  These
tests drive both pipelines through randomized mixed workloads and
scripted corner cases and compare them round for round.

Also covered here: the up-front validation of buffered query moves (an
unknown qid must fail the whole batch *before* any state mutates, a
move of the wrong kind is refused before it is buffered).
"""

from __future__ import annotations

import random

import pytest

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity


def update_keys(updates) -> frozenset[tuple[int, int, int]]:
    return frozenset((u.qid, u.oid, u.sign) for u in updates)


def make_engines(grid_size: int = 16, horizon: float = 30.0):
    return (
        IncrementalEngine(
            grid_size=grid_size,
            prediction_horizon=horizon,
            pipeline="columnar",
        ),
        IncrementalEngine(
            grid_size=grid_size,
            prediction_horizon=horizon,
            pipeline="per-object",
        ),
    )


def assert_equivalent(batched, reference, round_no):
    assert batched.complete_answers() == reference.complete_answers(), (
        f"answers diverged after round {round_no}"
    )
    batched.check_invariants()
    reference.check_invariants()


class RandomDriver:
    """Feed both engines the same random mixed workload, round by round."""

    def __init__(self, seed: int, grid_size: int = 16):
        self.rng = random.Random(seed)
        self.batched, self.reference = make_engines(grid_size=grid_size)
        self.live_objects: set[int] = set()
        self.live_queries: dict[int, str] = {}
        self.next_oid = 0
        self.next_qid = 1000

    def both(self, method: str, *args) -> None:
        getattr(self.batched, method)(*args)
        getattr(self.reference, method)(*args)

    def random_rect(self, max_side: float = 0.3) -> Rect:
        rng = self.rng
        x, y = rng.random(), rng.random()
        return Rect(
            x, y, x + rng.uniform(0.01, max_side), y + rng.uniform(0.01, max_side)
        )

    def register_random_query(self) -> None:
        rng = self.rng
        qid = self.next_qid
        self.next_qid += 1
        kind = rng.random()
        if kind < 0.55:
            self.both("register_range_query", qid, self.random_rect())
            self.live_queries[qid] = "range"
        elif kind < 0.8:
            self.both(
                "register_knn_query",
                qid,
                Point(rng.random(), rng.random()),
                rng.randint(1, 4),
            )
            self.live_queries[qid] = "knn"
        else:
            self.both(
                "register_predictive_query", qid, self.random_rect(), 10.0
            )
            self.live_queries[qid] = "predictive"

    def move_random_query(self, now: float) -> None:
        rng = self.rng
        qid = rng.choice(sorted(self.live_queries))
        kind = self.live_queries[qid]
        if kind == "range":
            self.both("move_range_query", qid, self.random_rect(), now)
        elif kind == "knn":
            self.both(
                "move_knn_query", qid, Point(rng.random(), rng.random()), now
            )
        else:
            self.both("move_predictive_query", qid, self.random_rect(), now)

    def report_random_object(self, now: float) -> None:
        rng = self.rng
        if self.live_objects and rng.random() < 0.7:
            oid = rng.choice(sorted(self.live_objects))
        else:
            oid = self.next_oid
            self.next_oid += 1
            self.live_objects.add(oid)
        velocity = Velocity.ZERO
        if rng.random() < 0.3:
            velocity = Velocity(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05))
        self.both(
            "report_object",
            oid,
            Point(rng.uniform(-0.05, 1.05), rng.uniform(-0.05, 1.05)),
            now,
            velocity,
        )

    def run_round(self, now: float) -> None:
        rng = self.rng
        for _ in range(rng.randint(5, 40)):
            self.report_random_object(now)
        if rng.random() < 0.6:
            self.register_random_query()
        if self.live_queries and rng.random() < 0.4:
            self.move_random_query(now)
        if self.live_queries and rng.random() < 0.2:
            qid = rng.choice(sorted(self.live_queries))
            del self.live_queries[qid]
            self.both("unregister_query", qid)
        if self.live_objects and rng.random() < 0.2:
            oid = rng.choice(sorted(self.live_objects))
            self.live_objects.discard(oid)
            self.both("remove_object", oid)

    def evaluate_and_compare(self, now: float, round_no: int) -> None:
        got = update_keys(self.batched.evaluate(now))
        want = update_keys(self.reference.evaluate(now))
        assert got == want, f"update streams diverged in round {round_no}"
        assert_equivalent(self.batched, self.reference, round_no)


@pytest.mark.parametrize("seed", range(8))
def test_random_workloads_are_pipeline_equivalent(seed):
    driver = RandomDriver(seed)
    now = 0.0
    for round_no in range(12):
        now += 1.0
        driver.run_round(now)
        driver.evaluate_and_compare(now, round_no)
    # Pure time advances: only the predictive windows slide.
    for round_no in (100, 101):
        now += 5.0
        driver.evaluate_and_compare(now, round_no)


def test_covering_regions_are_pipeline_equivalent():
    """Large regions covering whole cells exercise the covering-skip."""
    batched, reference = make_engines(grid_size=4)
    rng = random.Random(7)
    for engine in (batched, reference):
        engine.register_range_query(1, Rect(0.0, 0.0, 1.0, 1.0))
        engine.register_range_query(2, Rect(0.25, 0.25, 1.0, 0.75))
        engine.register_range_query(3, Rect(0.4, 0.4, 0.6, 0.6))
    now = 0.0
    positions = {oid: (rng.random(), rng.random()) for oid in range(60)}
    for round_no in range(6):
        now += 1.0
        for oid, (x, y) in positions.items():
            x = min(max(x + rng.uniform(-0.2, 0.2), 0.0), 1.0)
            y = min(max(y + rng.uniform(-0.2, 0.2), 0.0), 1.0)
            positions[oid] = (x, y)
            batched.report_object(oid, Point(x, y), now)
            reference.report_object(oid, Point(x, y), now)
        got = update_keys(batched.evaluate(now))
        want = update_keys(reference.evaluate(now))
        assert got == want, f"update streams diverged in round {round_no}"
        assert_equivalent(batched, reference, round_no)


def test_stationary_batch_emits_no_updates():
    """Re-reporting unchanged locations is a no-op in both pipelines."""
    batched, reference = make_engines()
    for engine in (batched, reference):
        engine.register_range_query(1, Rect(0.2, 0.2, 0.8, 0.8))
        for oid in range(20):
            engine.report_object(oid, Point(0.05 * oid, 0.5), 0.0)
        engine.evaluate(0.0)
        for oid in range(20):
            engine.report_object(oid, Point(0.05 * oid, 0.5), 1.0)
        assert engine.evaluate(1.0) == []
    assert_equivalent(batched, reference, round_no=1)


# ----------------------------------------------------------------------
# Buffered-move validation: fail fast, mutate nothing
# ----------------------------------------------------------------------


def test_move_of_unknown_query_fails_before_any_mutation():
    engine = IncrementalEngine(grid_size=8)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.evaluate(0.0)

    engine.report_object(1, Point(0.1, 0.1), 1.0)
    engine.register_range_query(101, Rect(0.0, 0.0, 0.2, 0.2))
    engine.move_range_query(100, Rect(0.5, 0.5, 0.9, 0.9), 1.0)
    engine.move_range_query(999, Rect(0.0, 0.0, 0.1, 0.1), 1.0)

    with pytest.raises(KeyError, match="999"):
        engine.evaluate(1.0)

    # Nothing was applied: same answers, same clock, buffers intact.
    assert engine.now == 0.0
    assert engine.answer_of(100) == frozenset({1})
    assert 101 not in engine.queries
    assert engine.objects[1].location == Point(0.5, 0.5)
    assert engine.stats.evaluations == 1
    engine.check_invariants()

    # Dropping the bad move lets the buffered batch go through whole.
    engine.unregister_query(999)
    engine.evaluate(1.0)
    assert engine.answer_of(100) == frozenset()
    assert engine.answer_of(101) == frozenset({1})
    assert engine.objects[1].location == Point(0.1, 0.1)


def test_move_targeting_same_batch_unregistration_fails():
    engine = IncrementalEngine(grid_size=8)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.evaluate(0.0)
    engine.unregister_query(100)
    engine.move_range_query(100, Rect(0.1, 0.1, 0.2, 0.2), 1.0)
    with pytest.raises(KeyError, match="100"):
        engine.evaluate(1.0)
    assert 100 in engine.queries  # unregistration stayed buffered


def test_move_targeting_same_batch_registration_is_valid():
    engine = IncrementalEngine(grid_size=8)
    engine.report_object(1, Point(0.15, 0.15), 0.0)
    engine.evaluate(0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.move_range_query(100, Rect(0.1, 0.1, 0.2, 0.2), 1.0)
    engine.evaluate(1.0)
    assert engine.answer_of(100) == frozenset({1})


def test_pipeline_argument_is_validated():
    with pytest.raises(ValueError, match="pipeline"):
        IncrementalEngine(pipeline="vectorized")


MOVES = {
    "range": ("move_range_query", Rect(0.1, 0.1, 0.3, 0.3)),
    "knn": ("move_knn_query", Point(0.2, 0.2)),
    "predictive": ("move_predictive_query", Rect(0.1, 0.1, 0.3, 0.3)),
}


@pytest.mark.parametrize("pipeline", ["columnar", "per-object"])
@pytest.mark.parametrize(
    "kind, wrong",
    [(kind, wrong) for kind in MOVES for wrong in MOVES if wrong != kind],
)
def test_a_move_of_the_wrong_kind_is_refused_at_the_door(pipeline, kind, wrong):
    engine = IncrementalEngine(grid_size=8, pipeline=pipeline)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    if kind == "range":
        engine.register_range_query(7, Rect(0.4, 0.4, 0.6, 0.6))
    elif kind == "knn":
        engine.register_knn_query(7, Point(0.5, 0.5), 1)
    else:
        engine.register_predictive_query(7, Rect(0.4, 0.4, 0.6, 0.6), 10.0)
    engine.evaluate(0.0)
    engine.report_object(1, Point(0.45, 0.45), 1.0)
    buffers = (dict(engine._pending_reports), dict(engine._pending_moves))
    method, target = MOVES[wrong]
    with pytest.raises(ValueError, match=f"query 7 is a {kind} query, not a {wrong} query"):
        getattr(engine, method)(7, target, 1.0)
    assert (dict(engine._pending_reports), dict(engine._pending_moves)) == buffers
    engine.evaluate(1.0)
    assert engine.answer_of(7) == {1}
    engine.check_invariants()
