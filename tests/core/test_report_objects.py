"""The batch report doors against a loop over the scalar ones.

``IncrementalEngine.report_objects`` and
``LocationAwareServer.receive_object_reports`` write the same dict
buffer ``report_object`` writes; on both pipelines a run of rows must
leave behind exactly what the rows one by one would have.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalEngine, LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.obs import FlightRecorder
from repro.storage import BufferPool, HistoryRepository, InMemoryDiskManager

PIPELINES = ("per-object", "columnar")

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


def make_engine(pipeline: str) -> IncrementalEngine:
    engine = IncrementalEngine(grid_size=8, pipeline=pipeline)
    engine.register_range_query(100, Rect(0.2, 0.2, 0.8, 0.8))
    engine.register_knn_query(101, Point(0.5, 0.5), 2)
    engine.register_predictive_query(102, Rect(0.4, 0.4, 0.9, 0.9), 3.0)
    engine.evaluate(0.0)
    return engine


def buffers(engine: IncrementalEngine):
    return (
        list(engine._pending_reports.items()),  # order is part of the contract
        set(engine._pending_removals),
        {oid: stamp[0] for oid, stamp in engine.freshness._stamps.items()},
    )


@pytest.mark.parametrize("pipeline", PIPELINES)
@given(actions=ACTIONS)
@settings(max_examples=60, deadline=None)
def test_a_run_equals_a_loop_of_report_object(pipeline, actions):
    """Duplicates inside a run, report → remove → report across runs,
    out-of-world rows: same buffer (order included), same removals,
    same stamps, same update stream at the next evaluation."""
    batch, scalar = make_engine(pipeline), make_engine(pipeline)
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


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_out_of_world_rows_are_clamped_and_in_world_rows_kept(pipeline):
    engine = make_engine(pipeline)
    engine.report_objects([1, 2, 3], [0.5, 7.0, -0.0], [0.5, -3.0, 1.0], [0, 0, 0.5], [0, 0, 0], [1.0] * 3)
    # The buffer holds each report's floats (x, y, vx, vy, t).
    assert engine._pending_reports == {
        1: (0.5, 0.5, 0.0, 0.0, 1.0),
        2: (1.0, 0.0, 0.0, 0.0, 1.0),
        3: (-0.0, 1.0, 0.5, 0.0, 1.0),
    }


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_a_non_finite_row_refuses_the_whole_call(pipeline, bad):
    engine = make_engine(pipeline)
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


# ----------------------------------------------------------------------
# The server door: accounted once, or row by row when a hook is installed
# ----------------------------------------------------------------------


def make_server(**kwargs) -> LocationAwareServer:
    server = LocationAwareServer(grid_size=8, pipeline="columnar", **kwargs)
    server.register_client(1)
    server.register_range_query(1, 100, Rect(0.2, 0.2, 0.8, 0.8))
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
}
RUN = [(1, 0.5, 0.5, 0.0, 0.0, 1.0), (7, 0.3, 0.3, 0.1, 0.0, 1.0), (1, 0.6, 0.6, 0.0, 0.0, 1.0), (2, 9.0, 0.5, 0.0, 0.0, 1.0)]  # fmt: skip


@pytest.mark.parametrize("hook", HOOKS)
def test_the_server_door_equals_a_loop_of_receive_object_report(hook):
    servers = []
    for _ in range(2):
        installed = HOOKS[hook]()
        server = make_server(
            **{k: v for k, v in installed.items() if k != "gate"}
        )
        server.uplink_gate = installed.get("gate")
        servers.append(server)
    batch, scalar = servers
    assert batch.receive_object_reports(*columns(RUN)) is (hook == "none")
    for oid, x, y, vx, vy, t in RUN:
        scalar.receive_object_report(oid, Point(x, y), t, velocity_of(vx, vy))

    def observed(server):
        return {
            "buffer": list(server.engine._pending_reports.items()),
            "delayed": [args for _, args in server._delayed_uplinks],
            "uplinks": server.registry.value_of("net_uplink_messages_total"),
            "uplink_bytes": server.registry.value_of("net_uplink_bytes_total"),
            "by_kind": server.registry.value_of(
                "net_messages_total", {"type": "uplink:ObjectReportMessage"}
            ),
            "recorded": [
                {k: v for k, v in event.items() if k not in ("t", "seq")}
                for event in server.recorder.events()
            ],
            "history": (
                [server.history.history_of(oid) for oid in range(8)]
                if server.history is not None
                else None
            ),
        }

    assert observed(batch) == observed(scalar)
    got = [(u.qid, u.oid, u.sign) for u in batch.evaluate_cycle(1.0).updates]
    want = [(u.qid, u.oid, u.sign) for u in scalar.evaluate_cycle(1.0).updates]
    assert got == want and got
    assert observed(batch) == observed(scalar)


def test_a_refused_run_is_not_accounted():
    server = make_server()
    before = server.registry.value_of("net_uplink_messages_total")
    with pytest.raises(ValueError):
        server.receive_object_reports([1, 2], [0.5, float("nan")], [0.5, 0.5], [0, 0], [0, 0], [1.0, 1.0])
    assert server.registry.value_of("net_uplink_messages_total") == before
    assert not server.engine._pending_reports
