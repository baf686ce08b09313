"""The batch report doors against a loop over the scalar ones.

``IncrementalEngine.report_objects`` and
``LocationAwareServer.receive_object_reports`` write the same dict
buffer ``report_object`` writes; a run of rows must leave behind
exactly what the rows one by one would have.
"""

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalEngine, LocationAwareServer
from repro.core.state import QueryKind
from repro.geometry import Point, Rect, Velocity
from repro.net import ObjectReportMessage
from repro.obs import FlightRecorder, prometheus_text
from repro.storage import BufferPool, HistoryRepository, InMemoryDiskManager

COORDS = st.floats(-0.5, 1.5).map(lambda v: round(v, 2))
SPEEDS = st.sampled_from([0.0, 0.0, 0.0, 0.1, -0.05])
ROWS = st.tuples(st.integers(0, 8), COORDS, COORDS, SPEEDS, SPEEDS, st.sampled_from([0.0, 1.0]))
ACTIONS = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.lists(ROWS, max_size=8)),
        st.tuples(st.just("remove"), st.integers(0, 8)),
        st.tuples(st.just("evaluate"), st.none()),
    ),
    max_size=10,
)


def columns(rows):
    return [list(column) for column in zip(*rows)] or [[] for _ in range(6)]


def velocity_of(vx: float, vy: float) -> Velocity:
    return Velocity(vx, vy) if vx or vy else Velocity.ZERO


def make_engine() -> IncrementalEngine:
    engine = IncrementalEngine(grid_size=8)
    engine.register_range_query(100, Rect(0.2, 0.2, 0.8, 0.8))
    engine.register_knn_query(101, Point(0.5, 0.5), 2)
    engine.register_predictive_query(102, Rect(0.4, 0.4, 0.9, 0.9), 3.0)
    engine.evaluate(0.0)
    return engine


def buffers(engine: IncrementalEngine):
    return (
        list(engine._pending_reports.items()),  # order is part of the contract
        set(engine._pending_removals),
        engine.freshness.report_stamps(),
    )


@given(actions=ACTIONS)
@settings(max_examples=60, deadline=None)
def test_a_run_equals_a_loop_of_report_object(actions):
    """Duplicates inside a run, report → remove → report across runs,
    out-of-world rows: same buffer (order included), same removals,
    same stamps, same update stream at the next evaluation."""
    batch, scalar = make_engine(), make_engine()
    now = 0.0
    for kind, arg in actions:
        if kind == "run":
            batch.report_objects(*columns(arg))
            for oid, x, y, vx, vy, t in arg:
                scalar.report_object(oid, Point(x, y), t, velocity_of(vx, vy))
        elif kind == "remove":
            outcomes = []
            for engine in (batch, scalar):
                try:
                    outcomes.append(engine.remove_object(arg))
                except KeyError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        else:
            now += 1.0
            got = [(u.qid, u.oid, u.sign) for u in batch.evaluate(now)]
            want = [(u.qid, u.oid, u.sign) for u in scalar.evaluate(now)]
            assert got == want
        assert buffers(batch) == buffers(scalar)
    batch.evaluate(now + 1.0)
    scalar.evaluate(now + 1.0)
    assert {o: (s.location, s.velocity, s.t) for o, s in batch.objects.items()} == {
        o: (s.location, s.velocity, s.t) for o, s in scalar.objects.items()
    }
    batch.check_invariants()


def test_out_of_world_rows_are_clamped_and_in_world_rows_kept():
    engine = make_engine()
    engine.report_objects([1, 2, 3], [0.5, 7.0, -0.0], [0.5, -3.0, 1.0], [0, 0, 0.5], [0, 0, 0], [1.0] * 3)
    # The buffer holds each report's floats (x, y, vx, vy, t).
    assert engine._pending_reports == {
        1: (0.5, 0.5, 0.0, 0.0, 1.0),
        2: (1.0, 0.0, 0.0, 0.0, 1.0),
        3: (-0.0, 1.0, 0.5, 0.0, 1.0),
    }


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_row_refuses_the_whole_call(bad):
    engine = make_engine()
    engine.report_object(1, Point(0.1, 0.1), 1.0)
    engine.report_object(2, Point(0.2, 0.2), 1.0)
    engine.evaluate(1.0)
    engine.remove_object(2)
    engine.report_object(3, Point(0.3, 0.3), 2.0)
    before = buffers(engine)
    for xs, ys in (([0.5, bad, 0.6], [0.5] * 3), ([0.5] * 3, [0.5, 0.6, bad])):
        with pytest.raises(ValueError, match="non-finite location"):
            engine.report_objects([2, 4, 5], xs, ys, [0.0] * 3, [0.0] * 3, [2.0] * 3)
        assert buffers(engine) == before  # the removal of 2 still stands
    # Finite values whose sum overflows are not mistaken for one.
    engine.report_objects([6, 7], [1e308, 1e308], [0.5, 0.5], [0, 0], [0, 0], [2.0, 2.0])
    assert engine._pending_reports[7][:2] == (1.0, 0.5)
    engine.report_objects([], [], [], [], [], [])


@pytest.mark.parametrize("bad", [1 << 63, -(1 << 63) - 1])
def test_an_oid_outside_int64_is_refused_by_both_doors(bad):
    """Buffered, such an oid would fail the next evaluation for every
    client; refused, nothing is buffered and the engine evaluates on."""
    engine = make_engine()
    engine.report_object(1, Point(0.5, 0.5), 1.0)
    before = buffers(engine)
    with pytest.raises(ValueError, match="outside int64"):
        engine.report_object(bad, Point(0.5, 0.5), 1.0)
    with pytest.raises(ValueError, match="outside int64"):
        engine.report_objects([2, bad], [0.5, 0.5], [0.5, 0.5], [0, 0], [0, 0], [1.0, 1.0])
    assert buffers(engine) == before
    engine.report_objects([-(1 << 63), (1 << 63) - 1], [0.3, 0.4], [0.3, 0.4], [0, 0], [0, 0], [1.0, 1.0])
    engine.evaluate(1.0)
    assert engine.answer_of(100) == {1, -(1 << 63), (1 << 63) - 1}


# ----------------------------------------------------------------------
# The server door: accounted once, or row by row when a hook is installed
# ----------------------------------------------------------------------


def make_server(**kwargs) -> LocationAwareServer:
    server = LocationAwareServer(grid_size=8, **kwargs)
    server.register_client(1)
    server.register_range_query(1, 100, Rect(0.2, 0.2, 0.8, 0.8))
    server.register_knn_query(1, 101, Point(0.5, 0.5), 2)
    server.register_predictive_query(1, 102, Rect(0.1, 0.1, 0.6, 0.6), 3.0)
    for oid in range(4):
        server.receive_object_report(oid, Point(0.1 * oid, 0.5), 0.0)
    server.evaluate_cycle(0.0)
    return server


def history() -> HistoryRepository:
    return HistoryRepository(BufferPool(InMemoryDiskManager(), 8))


def every_other_report_is_late():
    calls = iter(range(10**6))
    return lambda kind: next(calls) % 2 == 0


HOOKS = {
    "none": lambda: {},
    "gate": lambda: {"gate": every_other_report_is_late()},
    "recorder": lambda: {"recorder": FlightRecorder()},
    "history": lambda: {"history": history()},
    "all": lambda: {"gate": every_other_report_is_late(), "recorder": FlightRecorder(), "history": history()},
}
RUN = [(1, 0.5, 0.5, 0.0, 0.0, 1.0), (7, 0.3, 0.3, 0.1, 0.0, 1.0), (1, 0.6, 0.6, 0.0, 0.0, 1.0), (2, 9.0, 0.5, 0.0, 0.0, 1.0)]  # fmt: skip
MOVES = [
    (100, QueryKind.RANGE, Rect(0.1, 0.1, 0.5, 0.5), 1.0),
    (101, QueryKind.KNN, Point(0.05, 0.4), 1.0),
    (102, QueryKind.PREDICTIVE_RANGE, Rect(0.0, 0.3, 0.2, 0.7), 1.0),
    (100, QueryKind.RANGE, Rect(0.05, 0.4, 0.9, 0.6), 1.0),
]
COMMITS = [100, 101, 100, 102]
#: Each run door: its call, and the loop of per-op door calls it equals.
DOORS = {
    "reports": (
        lambda server: server.receive_object_reports(*columns(RUN)),
        lambda server: [server.receive_object_report(oid, Point(x, y), t, velocity_of(vx, vy)) for oid, x, y, vx, vy, t in RUN],
    ),
    "moves": (
        lambda server: server.receive_query_moves(*zip(*MOVES)),
        lambda server: [getattr(server, f"receive_{kind.value}_query_move")(qid, target, t) for qid, kind, target, t in MOVES],
    ),
    "commits": (
        lambda server: server.receive_commits(COMMITS),
        lambda server: [server.receive_commit(qid) for qid in COMMITS],
    ),
}


def documented_order(events: list) -> list:
    """One door's events as its run door records them: every move of a
    move run, then every commit."""
    return sorted(events, key=lambda event: event["kind"] == "commit")


@pytest.mark.parametrize(
    "door, hook",
    [pytest.param(door, hook, id=hook if door == "reports" else f"{door}-{hook}") for door in DOORS for hook in HOOKS],
)
def test_the_server_door_equals_a_loop_of_receive_object_report(door, hook):
    """A run door leaves what the loop of its per-op door leaves, with
    any hooks installed: the gate asked once per row in order, the
    recorder's events in the documented order, the same history."""
    servers = []
    for _ in range(2):
        installed = HOOKS[hook]()
        server = make_server(
            **{k: v for k, v in installed.items() if k != "gate"}
        )
        server.uplink_gate = installed.get("gate")
        servers.append(server)
    batch, scalar = servers
    start = len(scalar.recorder.events())
    run, loop = DOORS[door]
    assert run(batch) is None
    loop(scalar)
    door_events = len(scalar.recorder.events())

    def observed(server):
        recorded = [
            {k: v for k, v in event.items() if k not in ("t", "seq")}
            for event in server.recorder.events()
        ]
        if server is scalar:
            recorded[start:door_events] = documented_order(recorded[start:door_events])
        return {
            "recorded": recorded,
            "moves": list(server.engine._pending_moves.items()),
            "commits": {qid: server.commits.committed_oids(qid).tolist() for qid in server.engine.queries},
            "by_type": dict(server.stats.by_type),
            "buffer": list(server.engine._pending_reports.items()),
            "delayed": [args for _, args in server._delayed_uplinks],
            "uplinks": server.registry.value_of("net_uplink_messages_total"),
            "uplink_bytes": server.registry.value_of("net_uplink_bytes_total"),
            "by_kind": server.registry.value_of(
                "net_messages_total", {"type": "uplink:ObjectReportMessage"}
            ),
            "history": (
                [server.history.history_of(oid) for oid in range(8)]
                if server.history is not None
                else None
            ),
        }

    assert observed(batch) == observed(scalar)
    got = [(u.qid, u.oid, u.sign) for u in batch.evaluate_cycle(1.0).updates]
    want = [(u.qid, u.oid, u.sign) for u in scalar.evaluate_cycle(1.0).updates]
    assert got == want and (got or door == "commits")
    assert observed(batch) == observed(scalar)


def test_a_refused_run_is_not_accounted():
    server = make_server()
    before = server.registry.value_of("net_uplink_messages_total")
    with pytest.raises(ValueError):
        server.receive_object_reports([1, 2], [0.5, float("nan")], [0.5, 0.5], [0, 0], [0, 0], [1.0, 1.0])
    assert server.registry.value_of("net_uplink_messages_total") == before
    assert not server.engine._pending_reports


@pytest.mark.parametrize("hook", [hook for hook in HOOKS if hook != "none"])
def test_a_refused_run_applies_nothing_under_a_per_message_hook(hook):
    """Row by row too, a run with a row the engine refuses is refused
    whole before any row of it is gated, recorded, persisted or
    buffered: a caller's per-row replay then applies each row once."""
    installed = HOOKS[hook]()
    server = make_server(**{k: v for k, v in installed.items() if k != "gate"})
    server.uplink_gate = installed.get("gate")
    before = server.registry.value_of("net_uplink_messages_total")
    events = len(server.recorder.events()) if server.recorder.enabled else 0
    with pytest.raises(ValueError):
        server.receive_object_reports(
            [1, 2], [0.5, float("nan")], [0.5, 0.5], [0, 0], [0, 0], [1.0, 1.0]
        )
    assert server.registry.value_of("net_uplink_messages_total") == before
    assert not server.engine._pending_reports and not server._delayed_uplinks
    assert (len(server.recorder.events()) if server.recorder.enabled else 0) == events


@pytest.mark.parametrize("hook", HOOKS)
def test_a_read_between_reports_sees_every_report(hook):
    """The per-report door may only tally a report in an int, so every
    read of the uplink series — the registry's, the exposition's and
    the stats' — settles it first: a read after each report counts
    every report taken so far (a gated one once it is replayed)."""
    installed = HOOKS[hook]()
    server = make_server(**{k: v for k, v in installed.items() if k != "gate"})
    server.uplink_gate = installed.get("gate")
    before = server.stats.uplink_messages

    def reads() -> list[float]:
        (exposed,) = [
            float(line.split()[-1])
            for line in prometheus_text(server.registry).splitlines()
            if line.startswith("net_uplink_messages_total ")
        ]
        kind = {"type": "uplink:ObjectReportMessage"}
        return [
            server.registry.value_of("net_uplink_messages_total") - before,
            server.registry.value_of("net_uplink_bytes_total") / ObjectReportMessage.size_bytes
            - before,
            server.registry.value_of("net_messages_total", kind) - before,
            exposed - before,
            server.stats.uplink_messages - before,
            server.stats.by_type["uplink:ObjectReportMessage"] - before,
        ]

    for taken, (oid, x, y, vx, vy, t) in enumerate(RUN, 1):
        server.receive_object_report(oid, Point(x, y), t, velocity_of(vx, vy))
        assert reads() == [taken - len(server._delayed_uplinks)] * 6
    server.evaluate_cycle(1.0)
    assert reads() == [len(RUN)] * 6


def test_reads_from_another_thread_lose_no_report():
    """A reader thread settling the tally while the reporting thread
    adds to it: every report is counted once (the tally is written only
    by the reporting thread; a settle keeps its own watermark)."""
    server = make_server()
    before = server.stats.uplink_messages
    reports, done = 20_000, threading.Event()

    def read() -> None:
        while not done.is_set():
            server.registry.value_of("net_uplink_messages_total")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    reader = threading.Thread(target=read)
    try:
        reader.start()
        where = Point(0.5, 0.5)
        for oid in range(reports):
            server.receive_object_report(oid % 50, where, 1.0)
    finally:
        done.set()
        reader.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not reader.is_alive()
    assert server.stats.uplink_messages == before + reports
