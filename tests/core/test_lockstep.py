"""The production engine and the per-object reference, in lock-step.

A hypothesis state machine drives a ``columnar`` and a ``per-object``
engine through the same random program — every query kind registered,
moved and unregistered, k-NN queries asking for more objects than
exist; reports stationary and moving, off the map, stale and ahead of
the clock, from hostile ids, re-reported within a batch, one by one and
as runs; removals, of moving objects too; evaluations with a
non-decreasing clock — and after every evaluation holds the two to the
contract in :mod:`tests.lockstep`: per query, the same multiset of
updates; the same answers; clean invariants; no object in the
production engine's grid index and no k-NN query off its array pass.
A move of the wrong kind for its query, and a report with a non-finite
time or velocity, are refused by both at the door, with nothing
buffered.
"""

from __future__ import annotations

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.geometry import Point, Rect, Velocity
from tests.lockstep import EnginePair

HORIZON = 30.0
KINDS = ("range", "knn", "predictive")
MOVE = {
    "range": "move_range_query",
    "knn": "move_knn_query",
    "predictive": "move_predictive_query",
}

#: Cell edges and centres of a 16 x 16 grid (points on region, piece and
#: cell boundaries; equal k-NN distances), and anywhere a little off the map.
coords = st.one_of(
    st.sampled_from([i / 32 for i in range(33)]),
    st.floats(-0.25, 1.25, allow_nan=False, width=32),
)
speeds = st.one_of(
    st.just(0.0),
    st.sampled_from([-1 / 16, 1 / 32, 1e308]),
    st.floats(-0.25, 0.25, allow_nan=False, width=32),
)
#: A small pool, so re-reports are common, plus a negative and a sparse id.
oids = st.one_of(st.integers(0, 11), st.sampled_from([-7, 70_000]))
points = st.builds(Point, coords, coords)
#: Report times relative to the clock: current, stale and ahead.
lags = st.sampled_from([0.0, 0.0, -5.0, 5.0])
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


@st.composite
def rects(draw):
    """Any rectangle: zero-area, off-world and lattice-aligned included."""
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


def velocity(vx: float, vy: float) -> Velocity:
    return Velocity(vx, vy) if vx or vy else Velocity.ZERO


class Lockstep(RuleBasedStateMachine):
    @initialize(grid=st.sampled_from([4, 8, 16]))
    def build(self, grid):
        self.pair = EnginePair(grid_size=grid, prediction_horizon=HORIZON)
        self.now = 0.0
        #: Registered, or about to be in this batch.
        self.kinds: dict[int, str] = {}
        #: Tracked, or holding a buffered report.
        self.live: set[int] = set()
        self.next_qid = 100

    def _fresh_qid(self, kind: str) -> int:
        qid = self.next_qid
        self.next_qid += 1
        self.kinds[qid] = kind
        return qid

    @rule(region=rects())
    def register_range(self, region):
        qid = self._fresh_qid("range")
        self.pair.all("register_range_query", qid, region, self.now)

    @rule(center=points, k=st.one_of(st.integers(1, 4), st.integers(5, 16)))
    def register_knn(self, center, k):
        qid = self._fresh_qid("knn")
        self.pair.all("register_knn_query", qid, center, k, self.now)

    @rule(region=rects(), horizon=st.sampled_from([1.0, 10.0, HORIZON]))
    def register_predictive(self, region, horizon):
        qid = self._fresh_qid("predictive")
        self.pair.all("register_predictive_query", qid, region, horizon, self.now)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), region=rects(), center=points)
    def move(self, data, region, center):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        kind = self.kinds[qid]
        target = center if kind == "knn" else region
        self.pair.all(MOVE[kind], qid, target, self.now)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), region=rects(), center=points)
    def move_of_the_wrong_kind(self, data, region, center):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        wrong = data.draw(st.sampled_from([k for k in KINDS if k != self.kinds[qid]]))
        target = center if wrong == "knn" else region
        for engine in self.pair.engines:
            buffered = dict(engine._pending_moves)
            with pytest.raises(ValueError, match=f"query {qid} is a"):
                getattr(engine, MOVE[wrong])(qid, target, self.now)
            assert engine._pending_moves == buffered

    @rule(oid=oids, location=points, vx=speeds, vy=speeds, lag=lags)
    def report(self, oid, location, vx, vy, lag):
        t = self.now + lag
        self.pair.all("report_object", oid, location, t, velocity(vx, vy))
        self.live.add(oid)

    @rule(
        rows=st.lists(
            st.tuples(oids, coords, coords, speeds, speeds, lags), min_size=1, max_size=12
        )
    )
    def report_run(self, rows):
        *columns, lag = [list(column) for column in zip(*rows)]
        self.pair.all("report_objects", *columns, [self.now + d for d in lag])
        self.live.update(columns[0])

    @rule(
        oid=oids,
        location=points,
        motion=st.tuples(st.floats(-1e3, 1e3), speeds, speeds),
        spoil=st.integers(0, 2),
        bad=non_finite,
        as_run=st.booleans(),
    )
    def report_non_finite(self, oid, location, motion, spoil, bad, as_run):
        t, vx, vy = (bad if i == spoil else value for i, value in enumerate(motion))
        for engine in self.pair.engines:
            buffered = dict(engine._pending_reports)
            removals = set(engine._pending_removals)
            with pytest.raises(ValueError, match=f"object {oid} reported a non-finite"):
                if as_run:
                    engine.report_objects(
                        [0, oid], [0.5, location.x], [0.5, location.y],
                        [0.0, vx], [0.0, vy], [self.now, t],
                    )  # fmt: skip
                else:
                    engine.report_object(oid, location, t, Velocity(vx, vy))
            assert engine._pending_reports == buffered
            assert engine._pending_removals == removals

    @rule(oid=oids, location=points, vx=speeds.filter(bool), vy=speeds)
    def remove_a_mover(self, oid, location, vx, vy):
        """Report with a velocity, evaluate, then buffer the removal."""
        self.pair.all("report_object", oid, location, self.now, Velocity(vx, vy))
        self.pair.evaluate(self.now)
        self.pair.all("remove_object", oid)
        self.live.discard(oid)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        self.pair.all("remove_object", oid)
        self.live.discard(oid)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data())
    def unregister(self, data):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        self.pair.all("unregister_query", qid)
        del self.kinds[qid]

    @rule(dt=st.sampled_from([0.0, 0.5, 1.0, 7.0, 40.0]))
    def evaluate(self, dt):
        self.now += dt
        self.pair.evaluate(self.now)


TestLockstep = Lockstep.TestCase
TestLockstep.settings = settings(deadline=None)
