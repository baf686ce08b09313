"""The query side of a cycle as array passes: batched range moves,
batched k-NN repair, batched predictive refresh.

These three phases read one home-cell CSR of the object store, all
queries of a phase at once.  The contract is the usual one
(:mod:`tests.lockstep`): per query the same update multiset as the
brute-force reference (which answers in scalar Python, query by
query: the "scalar" moves and refreshes below), the same answers, and a
clean ``check_invariants()`` (which also checks the range CSR against
the scalar ``Grid.cells_overlapping_set`` and the home-cell CSR against
the cells column) — on generated workloads aimed at each pass's edges.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.check.reference import knn_answer
from repro.columnar import KIND_KNN
from repro.geometry import Point, Rect, Velocity
from tests.lockstep import EnginePair

GRID = 8
HORIZON = 30.0
#: Cell edges and cell centres of the 8 x 8 grid: coordinates drawn from
#: here put points exactly on region, piece and cell boundaries and make
#: equal k-NN distances common.
LATTICE = [i / 16 for i in range(17)]

inside = st.one_of(
    st.sampled_from(LATTICE), st.floats(0.0, 1.0, allow_nan=False, width=32)
)
anywhere = st.one_of(
    st.sampled_from(LATTICE), st.floats(-0.5, 1.5, allow_nan=False, width=32)
)
speeds = st.one_of(
    st.just(0.0),
    st.sampled_from([-1 / 16, 1 / 32, 1 / 160]),
    st.floats(-0.25, 0.25, allow_nan=False, width=32),
)


@st.composite
def rects(draw, coords=anywhere):
    """Any rectangle: zero-area, off-world and lattice-aligned included."""
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


points = st.builds(Point, anywhere, anywhere)


class Trio(EnginePair):
    """The production engine and the brute-force reference, fed the
    same calls on a shared clock."""

    def __init__(self):
        super().__init__(grid_size=GRID, prediction_horizon=HORIZON)
        self.now = 0.0

    def evaluate(self, dt: float = 1.0) -> list[tuple[int, int, int]]:
        self.now += dt
        return list(super().evaluate(self.now).tuples())


def populate(trio: Trio, objects) -> None:
    for oid, (x, y, vx, vy) in enumerate(objects):
        velocity = Velocity(vx, vy) if vx or vy else Velocity.ZERO
        trio.all("report_object", oid, Point(x, y), trio.now, velocity)


objects_st = st.lists(st.tuples(inside, inside, speeds, speeds), min_size=1, max_size=40)


# ----------------------------------------------------------------------
# Range moves
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    objects=objects_st,
    regions=st.lists(rects(), min_size=1, max_size=6),
    rounds=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["range", "range", "range", "knn", "predictive", "report"]),
                st.integers(0, 5),
                rects(),
                points,
            ),
            min_size=1,
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_range_moves_in_one_pass_match_the_scalar_moves(objects, regions, rounds):
    trio = Trio()
    populate(trio, objects)
    for i, region in enumerate(regions):
        trio.all("register_range_query", 100 + i, region)
    trio.all("register_knn_query", 200, Point(0.5, 0.5), 3)
    trio.all("register_predictive_query", 300, Rect(0.25, 0.25, 0.75, 0.75), 10.0)
    trio.evaluate()
    for ops in rounds:
        for kind, pick, region, point in ops:
            if kind == "range":
                # The same qid may move twice in one batch: last wins.
                trio.all("move_range_query", 100 + pick % len(regions), region, trio.now)
            elif kind == "knn":
                trio.all("move_knn_query", 200, point, trio.now)
            elif kind == "predictive":
                trio.all("move_predictive_query", 300, region, trio.now)
            else:
                oid = pick % len(objects)
                trio.all(
                    "report_object", oid, Point(point.x, point.y), trio.now
                )
        trio.evaluate()


def test_a_point_on_every_boundary_of_a_move():
    """Objects exactly on the old edge, the new edge, the shared edge of
    two difference pieces and a corner: each is emitted once, by the
    first piece that holds it."""
    trio = Trio()
    old = Rect(0.25, 0.25, 0.5, 0.5)
    new = Rect(0.375, 0.375, 0.75, 0.75)
    spots = [
        (0.25, 0.25), (0.5, 0.5), (0.375, 0.375), (0.5, 0.375), (0.375, 0.5),
        (0.75, 0.75), (0.5, 0.75), (0.75, 0.5), (0.625, 0.5), (0.5, 0.625),
        (0.375, 0.75), (0.75, 0.375), (0.4, 0.5), (0.5, 0.4), (0.3, 0.3),
    ]  # fmt: skip
    populate(trio, [(x, y, 0.0, 0.0) for x, y in spots])
    trio.all("register_range_query", 1, old)
    trio.evaluate()
    trio.all("move_range_query", 1, new, trio.now)
    moved = trio.evaluate()
    assert sorted(oid for _, oid, sign in moved if sign < 0) == [0, 14]
    assert len({oid for _, oid, _ in moved}) == len(moved)
    # ...and back again, through a zero-area stop on the shared corner.
    trio.all("move_range_query", 1, Rect(0.5, 0.5, 0.5, 0.5), trio.now)
    assert [oid for _, oid, sign in trio.evaluate() if sign > 0] == []
    trio.all("move_range_query", 1, old, trio.now)
    trio.evaluate()


def test_teleports_off_world_moves_and_a_move_of_a_fresh_registration():
    trio = Trio()
    populate(trio, [(i / 16, j / 16, 0.0, 0.0) for i in range(17) for j in (0, 5, 16)])
    trio.all("register_range_query", 1, Rect(0.0, 0.0, 0.3, 0.3))
    trio.all("register_range_query", 2, Rect(0.6, 0.6, 1.0, 1.0))
    trio.evaluate()
    # Disjoint teleport (one difference piece), a region wholly outside
    # the world (pinned to the corner it left by), and a query registered and moved in the
    # same batch (its first-time answer, then the move's difference).
    trio.all("move_range_query", 1, Rect(0.7, 0.0, 1.0, 0.4), trio.now)
    trio.all("move_range_query", 2, Rect(1.5, 1.5, 2.0, 2.0), trio.now)
    trio.all("register_range_query", 3, Rect(0.0, 0.9, 0.2, 1.0))
    trio.all("move_range_query", 3, Rect(0.1, 0.8, 0.4, 1.0), trio.now)
    trio.evaluate()
    assert trio.production.answer_of(2) == frozenset({50})  # the object on (1, 1)
    trio.all("move_range_query", 2, Rect(-1.0, -1.0, 2.0, 2.0), trio.now)
    trio.evaluate()
    assert len(trio.production.answer_of(2)) == 51


# ----------------------------------------------------------------------
# k-NN repair
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    objects=st.lists(
        st.tuples(st.sampled_from(LATTICE), st.sampled_from(LATTICE)),
        min_size=1,
        max_size=30,
    ),
    queries=st.lists(st.tuples(points, st.integers(1, 6)), min_size=1, max_size=5),
    rounds=st.lists(
        st.lists(
            st.tuples(
                st.sampled_from(["move", "report", "report", "remove"]),
                st.integers(0, 29),
                points,
            ),
            max_size=8,
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_knn_repair_in_one_pass_matches_the_reference(objects, queries, rounds):
    """Lattice populations make equal distances the rule (ties go to
    the lower oid); centres may sit outside the world; ``k`` may exceed
    the population; members leave in the batch that dirties the query."""
    trio = Trio()
    populate(trio, [(x, y, 0.0, 0.0) for x, y in objects])
    live = set(range(len(objects)))
    for i, (center, k) in enumerate(queries):
        trio.all("register_knn_query", 200 + i, center, k)
    trio.evaluate()
    for ops in rounds:
        for kind, pick, point in ops:
            if kind == "move":
                trio.all("move_knn_query", 200 + pick % len(queries), point, trio.now)
            elif kind == "remove":
                if pick in live:
                    live.discard(pick)
                    trio.all("remove_object", pick)
            else:
                live.add(pick)
                trio.all(
                    "report_object",
                    pick,
                    Point(min(max(point.x, 0.0), 1.0), min(max(point.y, 0.0), 1.0)),
                    trio.now,
                )
        trio.evaluate()
    engine = trio.production
    for qid in range(200, 200 + len(queries)):
        query = engine.queries[qid]
        ranked = knn_answer(query.center, query.k, engine.objects)
        assert query.radius == (ranked[-1][0] if ranked else 0.0)


@settings(max_examples=80, deadline=None)
@given(
    objects=st.lists(st.tuples(inside, inside), min_size=1, max_size=60),
    probes=st.lists(st.tuples(points, st.integers(1, 8)), min_size=1, max_size=6),
    shift=st.tuples(anywhere, anywhere),
)
def test_batch_knn_search_equals_the_brute_force_ranking(objects, probes, shift):
    """The batch search directly, against the reference's ranked
    ``(distance, oid)`` list: for the rows of queries holding a full
    answer — at their own centre and after the centre jumps — and for
    probe rows of the same queries with no answer to bound them (a
    first solve), the ranked ``(distance, oid)`` lists are equal,
    distances bit for bit (so the maintained radius is, too)."""
    trio = Trio()
    populate(trio, [(x, y, 0.0, 0.0) for x, y in objects])
    for i, (center, k) in enumerate(probes):
        trio.all("register_knn_query", i, center, k)
    trio.evaluate(0.0)
    engine = trio.production
    evaluator = engine._columnar_evaluator
    qstore = engine._qstore
    full = [q.qid for q in engine.queries.values() if len(q.answer) == q.k]
    unbounded = []
    for i, (center, k) in enumerate(probes):
        qstore.add(-1 - i, KIND_KNN, cx=center.x, cy=center.y, k=k)
        unbounded.append(-1 - i)
    for moved in (False, True):
        if moved:
            for qid in full + unbounded:
                row = qstore.row_of(qid)
                qstore.cxs[row], qstore.cys[row] = shift
        for qids in (full, unbounded):
            if not qids:
                continue
            got = evaluator.knn_ranked(np.array([qstore.row_of(qid) for qid in qids]))
            queries = [engine.queries[qid] for qid in qids]
            want = [knn_answer(q.center, q.k, trio.reference.objects) for q in queries]
            assert got == want
            for ranked, query in zip(got, queries):
                assert len(ranked) == min(query.k, len(objects))
                assert all(
                    d == math.hypot(
                        engine.objects[oid].location.x - query.center.x,
                        engine.objects[oid].location.y - query.center.y,
                    )
                    for d, oid in ranked
                )


def test_first_time_and_underfull_queries_take_the_array_pass():
    trio = Trio()
    populate(trio, [(0.1, 0.1, 0.0, 0.0), (0.9, 0.9, 0.0, 0.0)])
    trio.all("register_knn_query", 1, Point(0.5, 0.5), 2)
    trio.all("register_knn_query", 2, Point(0.5, 0.5), 5)  # k above the population
    trio.all("register_knn_query", 3, Point(3.0, -2.0), 1)  # centre off the map
    trio.evaluate()
    assert trio.production.stats.knn_repairs == 3
    trio.all("report_object", 0, Point(0.2, 0.2), trio.now)
    trio.all("report_object", 2, Point(0.6, 0.6), trio.now)
    trio.evaluate()
    # Query 2 is underfull, so it is dirty on every growth.
    assert trio.production.stats.knn_repairs == 6
    assert trio.production.answer_of(2) == {0, 1, 2}


# ----------------------------------------------------------------------
# Predictive refresh
# ----------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    objects=objects_st,
    queries=st.lists(
        st.tuples(rects(), st.sampled_from([1.0, 10.0, HORIZON])),
        min_size=1,
        max_size=4,
    ),
    rounds=st.lists(
        st.tuples(
            # Long gaps leave reports older than the prediction horizon.
            st.sampled_from([0.5, 1.0, 7.0, 40.0]),
            st.lists(
                st.tuples(
                    st.sampled_from(["report", "report", "move", "remove", "idle"]),
                    st.integers(0, 39),
                    st.tuples(inside, inside, speeds, speeds),
                    rects(),
                ),
                max_size=6,
            ),
        ),
        min_size=1,
        max_size=5,
    ),
)
def test_predictive_refresh_in_one_pass_matches_the_scalar_refresh(
    objects, queries, rounds
):
    """Trajectories that leave the world, stale reports, moved queries,
    removals, quiet rounds where only the window slides."""
    trio = Trio()
    populate(trio, objects)
    live = set(range(len(objects)))
    for i, (region, horizon) in enumerate(queries):
        trio.all("register_predictive_query", 300 + i, region, horizon)
    trio.all("register_range_query", 100, Rect(0.25, 0.25, 0.75, 0.75))
    trio.evaluate()
    for dt, ops in rounds:
        for kind, pick, (x, y, vx, vy), region in ops:
            if kind == "report":
                live.add(pick)
                velocity = Velocity(vx, vy) if vx or vy else Velocity.ZERO
                trio.all("report_object", pick, Point(x, y), trio.now, velocity)
            elif kind == "move":
                trio.all(
                    "move_predictive_query", 300 + pick % len(queries), region, trio.now
                )
            elif kind == "remove" and pick in live:
                live.discard(pick)
                trio.all("remove_object", pick)
        trio.evaluate(dt)
    trio.evaluate(HORIZON + 1.0)  # every standing report is now stale


def test_every_evaluation_refreshes_every_predictive_query():
    """One refresh path: each evaluation re-answers every registered
    predictive query — one with no reports, moves or registrations too,
    where only the window slides — and the unlabelled
    ``engine_predictive_refreshes_total`` advances by their number."""
    trio = Trio()
    # Object 0 enters the region at t = 5, so a 1 s window sees it from
    # t = 4; object 1 sits inside.
    populate(trio, [(0.0, 0.5, 0.05, 0.0), (0.5, 0.5, 0.0, 0.0)])
    for qid in (1, 2):
        trio.all("register_predictive_query", qid, Rect(0.25, 0.25, 0.75, 0.75), 1.0)
    refreshes = trio.production.registry.counter("engine_predictive_refreshes_total")
    got, seen = [], []
    for dt in (0.0, 1.0, 1.0, 2.5):
        got.append(sorted(trio.evaluate(dt)))
        seen.append(refreshes.value)
    assert got == [[(1, 1, 1), (2, 1, 1)], [], [], [(1, 0, 1), (2, 0, 1)]]
    assert seen == [2, 4, 6, 8]
    trio.all("unregister_query", 1)
    trio.evaluate()
    assert refreshes.value == 9
