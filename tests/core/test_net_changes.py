"""An evaluation emits each query's net change, nothing more.

The paper's ``(Q, +A)`` means "A entered the answer of Q" over the
evaluation.  The batches drawn here are the ones that could make a
query emit a pair twice: range queries registered, moved — also in the
batch that registers them — and carried (the query and the objects
inside it shifted by the same step, so answered over the pre-report
positions the objects would leave and, after the reports, come back),
with reports landing around them.  After every evaluation each query's
stream must equal, as a multiset, ``diff_answers`` of its answer before
(∅ for a new query) and after.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.core import IncrementalEngine
from repro.core.updates import diff_answers
from repro.geometry import Point, Rect
from tests.lockstep import per_query

#: Coordinates on a sixteenth lattice (cell edges for grids of 2, 4, 8
#: and 16, and region edges), so objects sit on region boundaries often.
steps = st.integers(0, 16)
shifts = st.integers(-3, 3)


def at(i: int) -> float:
    return i / 16


def square(x: int, y: int, half: int) -> Rect:
    return Rect(at(x - half), at(y - half), at(x + half), at(y + half))


@settings(deadline=None)
@given(data=st.data())
def test_each_query_streams_its_net_change(data):
    draw = data.draw
    engine = IncrementalEngine(grid_size=draw(st.sampled_from([2, 3, 4, 8, 16])))
    positions: dict[int, Point] = {}
    regions: dict[int, Rect] = {}
    next_qid = 100
    now = 0.0
    for _ in range(draw(st.integers(2, 5))):
        now += 1.0
        moves: dict[int, Rect] = {}
        reports: dict[int, Point] = {}
        # New objects and plain re-reports.
        for _ in range(draw(st.integers(0, 6))):
            oid = draw(st.integers(0, 15))
            reports[oid] = Point(at(draw(steps)), at(draw(steps)))
        # Carry some standing queries: the query and every object
        # inside it take the same step.
        for qid in draw(st.lists(st.sampled_from(sorted(regions)), max_size=3)
                        if regions else st.just([])):
            dx, dy = at(draw(shifts)), at(draw(shifts))
            region = moves.get(qid, regions[qid])
            moves[qid] = Rect(region.min_x + dx, region.min_y + dy,
                              region.max_x + dx, region.max_y + dy)
            for oid, point in positions.items():
                if region.contains_point(point):
                    reports[oid] = Point(point.x + dx, point.y + dy)
        # Plain moves of standing queries, around the objects.
        for qid in draw(st.lists(st.sampled_from(sorted(regions)), max_size=2)
                        if regions else st.just([])):
            moves[qid] = square(draw(steps), draw(steps), draw(st.integers(0, 4)))
        # New queries around objects, some moved in the same batch.
        for _ in range(draw(st.integers(0, 3))):
            qid = next_qid
            next_qid += 1
            regions[qid] = square(draw(steps), draw(steps), draw(st.integers(0, 4)))
            engine.register_range_query(qid, regions[qid], now)
            if draw(st.booleans()):
                moves[qid] = square(draw(steps), draw(steps), draw(st.integers(0, 4)))
        for qid, region in moves.items():
            engine.move_range_query(qid, region, now)
            regions[qid] = engine.grid.world.clip_or_pin(region)
        for oid, point in reports.items():
            engine.report_object(oid, point, now)
            positions[oid] = engine.grid.world.clamp_point(point)

        before = engine.complete_answers()
        stream = engine.evaluate(now)
        after = engine.complete_answers()
        streams = per_query(stream)
        assert set(streams) <= set(after)
        for qid, answer in after.items():
            net = diff_answers(qid, before.get(qid, frozenset()), answer)
            assert streams.get(qid, Counter()) == Counter(
                (u.oid, u.sign) for u in net
            ), f"query {qid} at {now}"
