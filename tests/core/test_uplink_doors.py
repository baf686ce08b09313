"""Every uplink door judges its whole input before it acts.

The server buffers a period's uplinks and evaluates them at once, so a
value that gets into a buffer but cannot be evaluated fails the cycle
for every client.  Each door therefore refuses such a call when it is
made — whoever makes it, with or without an uplink gate installed — and
a refused call counts, records, defers and buffers nothing.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LocationAwareServer
from repro.core.state import QueryKind
from repro.geometry import Point, Rect, Velocity

REGION = Rect(0.4, 0.4, 0.6, 0.6)
NAN, INF = float("nan"), float("inf")


def make_server(gated: bool = False) -> LocationAwareServer:
    """Client 1 owning range query 10, k-NN query 11 and predictive
    query 12 over six evaluated objects; ``gated`` installs an uplink
    gate that defers every uplink to the next cycle."""
    server = LocationAwareServer(grid_size=8)
    server.register_client(1)
    server.register_range_query(1, 10, REGION)
    server.register_knn_query(1, 11, Point(0.5, 0.5), 2)
    server.register_predictive_query(1, 12, REGION, 5.0)
    for oid in range(6):
        server.receive_object_report(oid, Point(0.1 + 0.15 * oid, 0.5), 1.0)
    server.evaluate_cycle(1.0)
    if gated:
        server.uplink_gate = lambda kind: False
    return server


def footprint(server: LocationAwareServer) -> tuple:
    """Everything a refused call must leave as it found it."""
    engine = server.engine
    return (
        list(server._delayed_uplinks),
        server.stats.uplink_messages,
        server.registry.value_of("server_wakeups_total"),
        dict(server._owner),
        sorted(engine.queries),
        dict(engine._pending_reports),
        set(engine._pending_removals),
        list(engine._pending_registrations),
        dict(engine._pending_moves),
        set(engine._pending_unregistrations),
    )


# ----------------------------------------------------------------------
# Each door, one refusal it used to act on first
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "door, where",
    [
        ("register_range_query", (REGION,)),
        ("register_knn_query", (Point(0.5, 0.5), 2)),
        ("register_predictive_query", (REGION, 5.0)),
    ],
)
def test_a_register_for_an_unknown_client_buffers_no_query(door, where):
    """Five refused registrations leave no orphan query to evaluate
    every cycle, and their qids stay free for their rightful owner."""
    server = make_server()
    before = footprint(server)
    for qid in range(100, 105):
        with pytest.raises(KeyError, match="unknown client 99"):
            getattr(server, door)(99, qid, *where)
    assert footprint(server) == before
    server.evaluate_cycle(2.0)
    assert not set(range(100, 105)) & set(server.engine.queries)
    getattr(server, door)(1, 100, *where)
    server.evaluate_cycle(3.0)
    assert 100 in server.engine.queries and server.client_of(100) == 1


def test_a_k_outside_int64_is_refused_at_registration():
    server = make_server()
    before = footprint(server)
    with pytest.raises(ValueError, match="int64"):
        server.register_knn_query(1, 20, Point(0.5, 0.5), 1 << 63)
    assert footprint(server) == before
    server.evaluate_cycle(2.0)
    server.register_knn_query(1, 20, Point(0.5, 0.5), (1 << 63) - 1)
    server.evaluate_cycle(3.0)
    assert server.engine.answer_of(20) == frozenset(range(6))


def test_a_move_run_with_a_bad_value_in_a_later_row_is_refused_whole():
    server = make_server()
    committed = {qid: server.commits.committed_oids(qid).tolist() for qid in (10, 12)}
    before = footprint(server)
    with pytest.raises(ValueError, match="non-finite"):
        server.receive_query_moves(
            (10, 12),
            (QueryKind.RANGE, QueryKind.PREDICTIVE_RANGE),
            (Rect(0.1, 0.1, 0.3, 0.3), Rect(NAN, 0.1, 0.3, 0.3)),
            (2.0, 2.0),
        )
    assert footprint(server) == before
    assert {q: server.commits.committed_oids(q).tolist() for q in (10, 12)} == committed
    server.evaluate_cycle(2.0)
    assert server.engine.queries[10].region == REGION


def test_a_gated_report_with_a_bad_value_is_refused_at_once():
    """As its run door refuses it: not deferred to a later cycle and
    dropped there unanswered."""
    server = make_server(gated=True)
    before = footprint(server)
    with pytest.raises(ValueError, match="non-finite"):
        server.receive_object_report(1, Point(NAN, 0.5), 1.0)
    with pytest.raises(ValueError, match="non-finite"):
        server.receive_object_reports([1], [NAN], [0.5], [0.0], [0.0], [1.0])
    assert footprint(server) == before


@pytest.mark.parametrize("door", ["receive_wakeup", "recover_naive"])
def test_a_wakeup_of_an_unknown_client_counts_nothing(door):
    server = make_server()
    before = footprint(server)
    with pytest.raises(KeyError):
        getattr(server, door)(99)
    assert footprint(server) == before


# ----------------------------------------------------------------------
# A gate that defers everything changes no door's verdict
# ----------------------------------------------------------------------

#: Mostly clean values, so that most calls are accepted.
LOW = st.one_of(*[st.floats(0, 0.5)] * 6, st.sampled_from([NAN, -INF]))
HIGH = st.one_of(*[st.floats(0.5, 1)] * 6, st.sampled_from([NAN, INF]))
TIMES = st.sampled_from([2.0] * 6 + [NAN, INF])
IDS = st.sampled_from([10, 11, 12, 20, 20, 21, 99, 1 << 63])


@st.composite
def targets(draw, kind):
    if kind is QueryKind.KNN:
        return Point(draw(LOW), draw(HIGH))
    return Rect(draw(LOW), draw(LOW), draw(HIGH), draw(HIGH))


@st.composite
def uplink_calls(draw):
    """One call of a door: a report (bad values, an oid outside
    int64), a run of reports (as many), a removal (of an evaluated
    object, of one only a report in this period names, of an unknown
    one), a run of moves (bad values, wrong kinds, unbound qids), a run
    of commits (unbound and repeated qids) or a registration (unknown
    clients, bad ``k`` and horizons, taken qids)."""
    what = draw(st.sampled_from(["report", "reports", "remove", "move", "commits", "register"]))
    if what == "reports":
        rows = []
        for _ in range(draw(st.integers(2, 4))):
            oid = draw(st.sampled_from([1, 2, 7, 7, 1 << 63, -(1 << 63) - 1]))
            vx = draw(st.sampled_from([0.0] * 4 + [0.01, NAN, 1e308]))
            rows.append((oid, draw(LOW), draw(HIGH), vx, 0.0, draw(TIMES)))
        return "receive_object_reports", tuple(list(column) for column in zip(*rows))
    if what == "commits":
        return "receive_commits", (draw(st.lists(IDS, min_size=1, max_size=3)),)
    if what == "remove":
        return "remove_object", (draw(st.sampled_from([1, 2, 7, 404])),)
    if what == "report":
        oid = draw(st.sampled_from([1, 2, 7, 7, 1 << 63, -(1 << 63) - 1]))
        vx = draw(st.sampled_from([0.0] * 4 + [0.01, NAN, 1e308]))
        where = Point(draw(LOW), draw(HIGH))
        velocity = Velocity(vx, 0.0) if vx else Velocity.ZERO
        return "receive_object_report", (oid, where, draw(TIMES), velocity)
    if what == "move":
        rows = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(QueryKind))
            rows.append((draw(IDS), kind, draw(targets(kind)), draw(TIMES)))
        return "receive_query_moves", tuple(zip(*rows))
    client = draw(st.sampled_from([1, 1, 99]))
    qid = draw(st.sampled_from([20, 21, 22, 10, 1 << 63]))
    kind = draw(st.sampled_from(QueryKind))
    if kind is QueryKind.KNN:
        k = draw(st.sampled_from([1, 2, 0, 1 << 63]))
        return "register_knn_query", (client, qid, draw(targets(kind)), k)
    region = draw(targets(kind))
    if kind is QueryKind.RANGE:
        return "register_range_query", (client, qid, region)
    horizon = draw(st.sampled_from([5.0, 5.0, 0.0, NAN, 100.0]))
    return "register_predictive_query", (client, qid, region, horizon)


def judge(server: LocationAwareServer, door: str, args: tuple):
    """The door's verdict: ``None`` when it took the call, the class of
    what it raised when it refused it — having left nothing behind."""
    before = footprint(server)
    try:
        getattr(server, door)(*args)
    except (KeyError, ValueError) as refused:
        assert footprint(server) == before, (door, args)
        return type(refused)
    return None


@given(calls=st.lists(uplink_calls(), min_size=1, max_size=20))
@settings(deadline=None)
def test_a_gate_that_defers_everything_changes_no_verdict(calls):
    """Fed the same calls, a gated server and an ungated one refuse the
    same ones, each refusal leaving the delayed uplinks, the uplink
    count, the engine's buffers and its queries untouched; once the
    gated server's cycle has replayed what it deferred, the two hold
    the same answers and have counted the same uplinks."""
    ungated, gated = make_server(), make_server(gated=True)
    for door, args in calls:
        assert judge(gated, door, args) == judge(ungated, door, args), (door, args)
    for server in (ungated, gated):
        server.evaluate_cycle(2.0)
        server.engine.check_invariants()
    assert gated.stats.uplink_messages == ungated.stats.uplink_messages
    assert {q: gated.engine.answer_of(q) for q in gated.engine.queries} == {
        q: ungated.engine.answer_of(q) for q in ungated.engine.queries
    }
