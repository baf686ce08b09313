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

The geometry is drawn too: grids of 3 to 16 cells a side over the unit
world or an off-origin, non-square one, where ``(x - min) / w`` rounds;
coordinates and region edges fall on cell edges and centres and one ulp
either side of them.  That is where rounding could break the premise
the columnar plan's roles rest on — an object inside a region is homed
in a cell the region's footprint lists.
"""

from __future__ import annotations

import math

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

#: The unit world, and an off-origin, non-square one.
WORLDS = (Rect(0.0, 0.0, 1.0, 1.0), Rect(-3.7, 12.1, 5.3, 19.6))

#: A coordinate token, mapped onto the machine's world by
#: :meth:`Lockstep.coord`: ``(mark, ulps)`` is a half-cell line — a cell
#: edge or centre (points on region, piece and cell boundaries; equal
#: k-NN distances) — nudged ``ulps`` steps by ``math.nextafter``; a
#: float is a fraction of the world's extent, a little off the map too.
coords = st.one_of(
    st.tuples(st.integers(0, 32), st.sampled_from([-1, 0, 0, 1])),
    st.floats(-0.25, 1.25, allow_nan=False, width=32),
)
speeds = st.one_of(
    st.just(0.0),
    st.sampled_from([-1 / 16, 1 / 32, 1e308]),
    st.floats(-0.25, 0.25, allow_nan=False, width=32),
)
#: A small pool, so re-reports are common, plus a negative and a sparse id.
oids = st.one_of(st.integers(0, 11), st.sampled_from([-7, 70_000]))
points = st.tuples(coords, coords)
#: Report times relative to the clock: current, stale and ahead.
lags = st.sampled_from([0.0, 0.0, -5.0, 5.0])
non_finite = st.sampled_from([float("nan"), float("inf"), float("-inf")])


#: Any rectangle: zero-area, off-world and lattice-aligned included.
rects = st.tuples(coords, coords, coords, coords)


def velocity(vx: float, vy: float) -> Velocity:
    return Velocity(vx, vy) if vx or vy else Velocity.ZERO


class Lockstep(RuleBasedStateMachine):
    @initialize(grid=st.sampled_from([3, 4, 8, 10, 16]), world=st.sampled_from(WORLDS))
    def build(self, grid, world):
        self.pair = EnginePair(world=world, grid_size=grid, prediction_horizon=HORIZON)
        self.grid = self.pair.columnar.grid
        self.now = 0.0
        #: Registered, or about to be in this batch.
        self.kinds: dict[int, str] = {}
        #: Tracked, or holding a buffered report.
        self.live: set[int] = set()
        self.next_qid = 100

    def coord(self, token, axis: int) -> float:
        """A coordinate token on axis 0 (x) or 1 (y) of the world."""
        grid = self.grid
        origin = (grid.world.min_x, grid.world.min_y)[axis]
        if isinstance(token, float):
            return origin + token * (grid.world.width, grid.world.height)[axis]
        mark, ulps = token
        step = (grid.cell_width, grid.cell_height)[axis]
        value = origin + (mark % (2 * grid.n + 1) / 2) * step
        return math.nextafter(value, ulps * math.inf) if ulps else value

    def point(self, tokens) -> Point:
        return Point(self.coord(tokens[0], 0), self.coord(tokens[1], 1))

    def rect(self, tokens) -> Rect:
        x0, x1 = sorted(self.coord(token, 0) for token in tokens[:2])
        y0, y1 = sorted(self.coord(token, 1) for token in tokens[2:])
        return Rect(x0, y0, x1, y1)

    def _fresh_qid(self, kind: str) -> int:
        qid = self.next_qid
        self.next_qid += 1
        self.kinds[qid] = kind
        return qid

    @rule(region=rects)
    def register_range(self, region):
        qid = self._fresh_qid("range")
        self.pair.all("register_range_query", qid, self.rect(region), self.now)

    @rule(center=points, k=st.one_of(st.integers(1, 4), st.integers(5, 16)))
    def register_knn(self, center, k):
        qid = self._fresh_qid("knn")
        self.pair.all("register_knn_query", qid, self.point(center), k, self.now)

    @rule(region=rects, horizon=st.sampled_from([1.0, 10.0, HORIZON]))
    def register_predictive(self, region, horizon):
        qid = self._fresh_qid("predictive")
        region = self.rect(region)
        self.pair.all("register_predictive_query", qid, region, horizon, self.now)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), region=rects, center=points)
    def move(self, data, region, center):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        kind = self.kinds[qid]
        target = self.point(center) if kind == "knn" else self.rect(region)
        self.pair.all(MOVE[kind], qid, target, self.now)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), region=rects, center=points)
    def move_of_the_wrong_kind(self, data, region, center):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        wrong = data.draw(st.sampled_from([k for k in KINDS if k != self.kinds[qid]]))
        target = self.point(center) if wrong == "knn" else self.rect(region)
        for engine in self.pair.engines:
            buffered = dict(engine._pending_moves)
            with pytest.raises(ValueError, match=f"query {qid} is a"):
                getattr(engine, MOVE[wrong])(qid, target, self.now)
            assert engine._pending_moves == buffered

    @rule(oid=oids, location=points, vx=speeds, vy=speeds, lag=lags)
    def report(self, oid, location, vx, vy, lag):
        t = self.now + lag
        location = self.point(location)
        self.pair.all("report_object", oid, location, t, velocity(vx, vy))
        self.live.add(oid)

    @rule(
        rows=st.lists(
            st.tuples(oids, coords, coords, speeds, speeds, lags), min_size=1, max_size=12
        )
    )
    def report_run(self, rows):
        oid, xs, ys, vxs, vys, lag = [list(column) for column in zip(*rows)]
        xs = [self.coord(x, 0) for x in xs]
        ys = [self.coord(y, 1) for y in ys]
        ts = [self.now + d for d in lag]
        self.pair.all("report_objects", oid, xs, ys, vxs, vys, ts)
        self.live.update(oid)

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
        location = self.point(location)
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
        location = self.point(location)
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
