"""The live runtime over real sockets: protocol flow, backpressure,
outage recovery, markers, and the HTTP plane."""

import json
import time

import pytest

from repro.geometry import Point
from repro.service.loadgen import http_get
from tests.service.test_session import FakeWriter


def wait_for(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError("condition not reached in time")


REGION = dict(minx=0.2, miny=0.2, maxx=0.8, maxy=0.8)


class TestWireFlow:
    def test_full_cycle_flow(self, make_runtime, make_wire):
        runtime = make_runtime(grid_size=8)
        wire = make_wire(runtime)
        welcome = wire.request("hello", client=1, sync=True)
        assert welcome["op"] == "welcome"
        assert welcome["resumed"] is False
        assert welcome["protocol"] == 1
        wire.send("register", client=1, qid=5, kind="range", **REGION)
        wire.send("report", client=1, oid=42, x=0.5, y=0.5, t=0.0)
        assert wire.settle() == []  # consumed, no errors

        wire.send("tick", now=1.0)
        flushed, summary = wire.recv_until("cycle")
        assert summary["uplinks_applied"] == 2
        assert summary["uplink_errors"] == 0
        assert {"op": "update", "qid": 5, "oid": 42, "sign": 1} in flushed
        assert flushed[-1]["op"] == "cycle_end"

        answer = wire.request("query_answer", qid=5)
        assert answer == {"op": "answer_state", "qid": 5, "oids": [42]}

    def test_commit_marker_follows_flush(self, make_runtime, make_wire):
        runtime = make_runtime(grid_size=8)
        wire = make_wire(runtime)
        wire.request("hello", client=1, sync=True)
        wire.send("register", client=1, qid=5, kind="range", **REGION)
        wire.send("report", client=1, oid=7, x=0.5, y=0.5, t=0.0)
        wire.send("tick", now=1.0)
        wire.recv_until("cycle")

        wire.send("commit", qid=5)
        wire.send("tick", now=2.0)
        flushed, _ = wire.recv_until("cycle")
        assert {"op": "committed", "qid": 5} in flushed
        assert runtime.server.commits.committed_answer(5) == {7}

    def test_knn_and_predictive_registration(self, make_runtime, make_wire):
        runtime = make_runtime(grid_size=8)
        wire = make_wire(runtime)
        wire.request("hello", client=1)
        wire.send("report", client=1, oid=1, x=0.4, y=0.4, t=0.0)
        wire.send("register", client=1, qid=10, kind="knn", cx=0.5, cy=0.5, k=2)
        wire.send(
            "register", client=1, qid=11, kind="predictive", horizon=5.0, **REGION
        )
        wire.send("move", qid=10, kind="knn", cx=0.6, cy=0.6, t=1.0)
        wire.send("tick", now=1.0)
        flushed, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == 0
        # A moving query's report commits its previous answer (the
        # paper's implicit-commit rule), so the marker hits the wire.
        assert {"op": "committed", "qid": 10} in flushed
        assert wire.request("query_answer", qid=10)["oids"] == [1]

    def test_resume_after_session_loss_with_wakeup(
        self, make_runtime, make_wire
    ):
        runtime = make_runtime(grid_size=8)
        first = make_wire(runtime)
        first.request("hello", client=7, sync=True)
        first.send("register", client=7, qid=5, kind="range", **REGION)
        first.send("report", client=7, oid=1, x=0.5, y=0.5, t=0.0)
        first.send("tick", now=1.0)
        first.recv_until("cycle")
        first.kill()  # the outage: session dies with updates owed
        wait_for(lambda: runtime.admission.sessions_active == 0)

        # Traffic the dark client misses (object 2 enters the region).
        feeder = make_wire(runtime)
        feeder.request("hello", client=99)
        feeder.send("report", client=99, oid=2, x=0.5, y=0.5, t=2.0)
        assert feeder.request("tick", now=2.0)["op"] == "cycle"

        second = make_wire(runtime)
        welcome = second.request("hello", client=7, sync=True)
        assert welcome["resumed"] is True
        second.send("wakeup", client=7)
        second.send("tick", now=3.0)
        flushed, _ = second.recv_until("cycle")
        kinds = [op["op"] for op in flushed]
        begin = kinds.index("wakeup_begin")
        end = kinds.index("wakeup_end")
        assert begin < end
        # Fold the recovery stream like a wire client: rollback to the
        # committed base (nothing) at wakeup_begin, then apply updates.
        mirror: set = set()
        for op in flushed[begin:]:
            if op["op"] == "update" and op["qid"] == 5:
                (mirror.add if op["sign"] > 0 else mirror.discard)(op["oid"])
            elif op["op"] == "answer" and op["qid"] == 5:
                mirror = set(op["oids"])
        assert mirror == {1, 2}
        assert runtime.server.engine.answer_of(5) == {1, 2}

    def test_client_busy_on_second_live_session(
        self, make_runtime, make_wire
    ):
        runtime = make_runtime()
        first = make_wire(runtime)
        first.request("hello", client=3)
        second = make_wire(runtime)
        reply = second.request("hello", client=3)
        assert reply["op"] == "error"
        assert reply["code"] == "client_busy"


class TestProtectionPaths:
    def test_backpressure_busy(self, make_runtime, make_wire):
        from repro.service.admission import AdmissionConfig

        runtime = make_runtime(
            admission=AdmissionConfig(max_backlog=2, retry_after=0.5)
        )
        wire = make_wire(runtime)
        wire.request("hello", client=1)
        for oid in range(4):
            wire.send("report", client=1, oid=oid, x=0.1, y=0.1, t=0.0)
        ops = wire.settle()
        busy = [op for op in ops if op["op"] == "busy"]
        assert len(busy) == 2
        assert busy[0]["retry_after"] == 0.5
        # The two admitted ops still apply on the next cycle.
        assert wire.request("tick", now=1.0)["uplinks_applied"] == 2

    def test_session_limit_rejects_connection(self, make_runtime, make_wire):
        from repro.service.admission import AdmissionConfig

        runtime = make_runtime(admission=AdmissionConfig(max_sessions=1))
        keeper = make_wire(runtime)
        keeper.request("hello", client=1)
        surplus = make_wire(runtime)
        reply = surplus.recv()
        assert reply["op"] == "reject"
        assert reply["reason"] == "sessions"

    def test_client_limit(self, make_runtime, make_wire):
        from repro.service.admission import AdmissionConfig

        runtime = make_runtime(admission=AdmissionConfig(max_clients=1))
        wire = make_wire(runtime)
        assert wire.request("hello", client=1)["op"] == "welcome"
        assert wire.request("hello", client=2)["op"] == "reject"

    def test_malformed_lines_answer_errors(self, make_runtime, make_wire):
        runtime = make_runtime()
        wire = make_wire(runtime)
        wire.send_raw(b"this is not json\n")
        assert wire.recv()["code"] == "bad_json"
        wire.send_raw(b'{"op": "fly"}\n')
        assert wire.recv()["code"] == "bad_op"
        wire.send("wakeup")  # missing client field
        assert wire.recv()["code"] == "missing_field"

    def test_unknown_move_does_not_poison_cycle(
        self, make_runtime, make_wire
    ):
        runtime = make_runtime(grid_size=8)
        wire = make_wire(runtime)
        wire.request("hello", client=1, sync=True)
        wire.send("register", client=1, qid=5, kind="range", **REGION)
        wire.send("move", qid=404, kind="range", t=1.0, **REGION)
        wire.send("report", client=1, oid=9, x=0.5, y=0.5, t=1.0)
        wire.send("tick", now=1.0)
        flushed, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == 1
        assert summary["uplinks_applied"] == 2
        errors = [op for op in flushed if op["op"] == "error"]
        assert errors and errors[0]["code"] == "bad_op"
        # The good ops landed despite the bad one.
        assert {"op": "update", "qid": 5, "oid": 9, "sign": 1} in flushed


    def test_hostile_values_do_not_fail_the_shared_cycle(
        self, make_runtime, make_wire
    ):
        """A NaN coordinate, an oid outside int64 (or not a number at
        all) and non-finite ``t``/``vx`` among 1k normal reports: each
        is refused with an ``error`` line, the cycle runs, everyone
        else's stream is the per-object reference's."""
        import random

        from repro.core import LocationAwareServer
        from repro.geometry import Point, Rect

        rng = random.Random(20)
        reports = [(oid, rng.random(), rng.random()) for oid in range(1000)]
        reference = LocationAwareServer(grid_size=8, pipeline="per-object")
        reference.register_client(1)
        reference.register_range_query(1, 5, Rect(*REGION.values()))
        for oid, x, y in reports:
            reference.receive_object_report(oid, Point(x, y), 1.0)
        want = {
            (u.qid, u.oid, u.sign) for u in reference.evaluate_cycle(1.0).updates
        }

        runtime = make_runtime(grid_size=8, pipeline="columnar")
        wire = make_wire(runtime)
        wire.request("hello", client=1, sync=True)
        wire.send("register", client=1, qid=5, kind="range", **REGION)
        hostile = {
            300: dict(oid=5000, x=float("nan"), y=0.5, t=1.0),
            500: dict(oid=2**63, x=0.5, y=0.5, t=1.0),
            700: dict(oid=5001, x=0.5, y=0.5, t=float("inf")),
            900: dict(oid=5002, x=0.5, y=0.5, t=1.0, vx=float("nan")),
            950: dict(oid=float("inf"), x=0.5, y=0.5, t=1.0),
            990: dict(oid=None, x=0.5, y=0.5, t=1.0),
        }
        for at, (oid, x, y) in enumerate(reports):
            if at in hostile:
                wire.send("report", client=1, **hostile[at])
            wire.send("report", client=1, oid=oid, x=x, y=y, t=1.0)
        wire.send("tick", now=1.0)
        flushed, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == len(hostile)
        assert summary["uplinks_applied"] == 1 + len(reports)
        assert sum(op["op"] == "error" for op in flushed) == len(hostile)
        got = {
            (op["qid"], op["oid"], op["sign"])
            for op in flushed
            if op["op"] == "update"
        }
        assert got == want and want
        runtime.server.engine.check_invariants()
        # The next cycle is a normal one.
        wire.send("tick", now=2.0)
        _, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == 0


    def test_hostile_query_values_do_not_fail_the_shared_cycle(
        self, make_runtime, make_wire
    ):
        """NaN / infinite / inverted rectangles, NaN centres, non-finite
        ``t`` and ``horizon``, ``k < 1`` and ids outside int64 in
        ``register`` and ``move`` ops among 1k normal ops: each is
        refused with an ``error`` line, the cycle runs, and the stream
        is the per-object reference's (which never saw them)."""
        import random

        from repro.core import LocationAwareServer
        from repro.geometry import Point, Rect

        rng = random.Random(21)
        reports = [(oid, rng.random(), rng.random()) for oid in range(1000)]
        moved = dict(minx=0.1, miny=0.2, maxx=0.6, maxy=0.7)
        reference = LocationAwareServer(grid_size=8, pipeline="per-object")
        reference.register_client(1)
        reference.register_range_query(1, 5, Rect(*REGION.values()))
        reference.register_knn_query(1, 6, Point(0.5, 0.5), 3)
        reference.register_predictive_query(1, 7, Rect(*REGION.values()), 5.0)
        for oid, x, y in reports:
            reference.receive_object_report(oid, Point(x, y), 1.0)
        reference.evaluate_cycle(1.0)
        reference.receive_range_query_move(5, Rect(*moved.values()), 2.0)
        reference.receive_knn_query_move(6, Point(0.25, 0.75), 2.0)
        for oid, x, y in reports[:500]:
            reference.receive_object_report(oid, Point(y, x), 2.0)
        want = [
            (u.qid, u.oid, u.sign) for u in reference.evaluate_cycle(2.0).updates
        ]

        runtime = make_runtime(grid_size=8, pipeline="columnar")
        wire = make_wire(runtime)
        wire.request("hello", client=1, sync=True)
        wire.send("register", client=1, qid=5, kind="range", **REGION)
        wire.send("register", client=1, qid=6, kind="knn", cx=0.5, cy=0.5, k=3)
        wire.send(
            "register", client=1, qid=7, kind="predictive", horizon=5.0, **REGION
        )
        for oid, x, y in reports:
            wire.send("report", client=1, oid=oid, x=x, y=y, t=1.0)
        wire.send("tick", now=1.0)
        wire.recv_until("cycle")

        nan, inf = float("nan"), float("inf")
        hostile = {
            50: ("move", dict(qid=5, kind="range", t=2.0, **{**moved, "minx": nan})),
            100: ("move", dict(qid=5, kind="range", t=2.0, **{**moved, "maxy": inf})),
            150: ("move", dict(qid=5, kind="range", t=2.0, **{**moved, "minx": 0.9})),
            200: ("move", dict(qid=6, kind="knn", cx=nan, cy=0.5, t=2.0)),
            250: ("move", dict(qid=6, kind="knn", cx=0.5, cy=0.5, t=-inf)),
            300: ("move", dict(qid=7, kind="predictive", t=2.0, **{**moved, "miny": nan})),
            320: ("move", dict(qid=2**63, kind="range", t=2.0, **moved)),
            340: ("register", dict(client=1, qid=2**63, kind="range", **moved)),
            360: ("register", dict(client=-(2**63) - 1, qid=8, kind="range", **moved)),
            380: ("register", dict(client=1, qid=8, kind="range", **{**moved, "maxx": nan})),
            400: ("register", dict(client=1, qid=8, kind="knn", cx=inf, cy=0.5, k=2)),
            420: ("register", dict(client=1, qid=8, kind="knn", cx=0.5, cy=0.5, k=0)),
            440: ("register", dict(client=1, qid=8, kind="predictive", horizon=nan, **moved)),
            460: ("register", dict(client=1, qid=8, kind="predictive", horizon=-1.0, **moved)),
            480: ("register", dict(client=1, qid=8, kind="range", t=inf, **moved)),
        }  # fmt: skip
        wire.send("move", qid=5, kind="range", t=2.0, **moved)
        wire.send("move", qid=6, kind="knn", cx=0.25, cy=0.75, t=2.0)
        for at, (oid, x, y) in enumerate(reports[:500]):
            if at in hostile:
                wire.send(hostile[at][0], **hostile[at][1])
            wire.send("report", client=1, oid=oid, x=y, y=x, t=2.0)
        wire.send("tick", now=2.0)
        flushed, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == len(hostile)
        assert summary["uplinks_applied"] == 2 + 500
        assert sum(op["op"] == "error" for op in flushed) == len(hostile)
        got = [
            (op["qid"], op["oid"], op["sign"])
            for op in flushed
            if op["op"] == "update"
        ]
        assert sorted(got) == sorted(want) and want
        runtime.server.engine.check_invariants()
        assert 8 not in runtime.server.engine.queries
        wire.send("tick", now=3.0)
        _, summary = wire.recv_until("cycle")
        assert summary["uplink_errors"] == 0


class TestMailedSetFlush:
    """``_flush_sessions`` visits the links that accepted mail, not the
    fleet (driven in-process: no socket, a recording writer)."""

    @staticmethod
    def stack():
        from repro.core import LocationAwareServer
        from repro.geometry import Point, Rect
        from repro.service.runtime import ServiceRuntime

        server = LocationAwareServer(grid_size=8)
        for client_id in (1, 2):
            server.register_client(client_id)
            server.register_range_query(
                client_id, 10 * client_id, Rect(*REGION.values())
            )
        server.receive_object_report(7, Point(0.5, 0.5), 0.0)
        return ServiceRuntime(server=server)

    @staticmethod
    def bind(runtime, client_id: int):
        from repro.service.session import ClientSession

        session = ClientSession(client_id, FakeWriter())
        runtime._sessions[session.session_id] = session
        runtime._handle_hello(
            session, {"op": "hello", "client": client_id}, client_id
        )
        session.flush()
        session.writer.writes.clear()  # the welcome
        return session

    def test_mail_waits_in_the_link_until_a_session_binds(self):
        runtime = self.stack()
        bound = self.bind(runtime, 1)
        assert runtime.run_cycle(1.0)["flushed_messages"] == 1
        # The cycle's flush ends with the session's one transport write.
        assert bound.writer.writes == [
            b'{"op":"update","qid":10,"oid":7,"sign":1}\n'
        ]
        # Client 2 is connected but nobody is listening: its mail stays
        # in the link, across quiet cycles, until a session binds it.
        link = runtime.server.link_of(2)
        assert runtime.run_cycle(2.0)["flushed_messages"] == 0
        assert link.queued_messages == 1
        late = self.bind(runtime, 2)
        assert runtime.run_cycle(3.0)["flushed_messages"] == 1
        assert late.writer.writes == [
            b'{"op":"update","qid":20,"oid":7,"sign":1}\n'
        ]
        assert link.queued_messages == 0 and not runtime._unflushed
        assert runtime.registry.value_of("links_queued_messages") == 0
        assert runtime.run_cycle(4.0)["flushed_messages"] == 0
        assert len(late.writer.writes) == 1

    def test_a_quiet_cycle_mails_nobody(self):
        runtime = self.stack()
        server = runtime.server
        server.evaluate_cycle(1.0)
        assert server.take_mailed() == {1, 2}
        assert server.take_mailed() == set()
        server.evaluate_cycle(2.0)
        assert server.take_mailed() == set()
        server.link_of(1).disconnect()
        server.receive_object_report(7, Point(0.9, 0.9), 3.0)
        server.evaluate_cycle(3.0)
        assert server.take_mailed() == {2}  # a dark link accepts nothing

    def test_a_link_flushed_early_by_a_marker_is_not_written_twice(self):
        runtime = self.stack()
        session = self.bind(runtime, 1)
        session.sync = True
        runtime.server.evaluate_cycle(1.0)
        runtime.server.receive_commit(10)  # flush, then the marker
        # A marker raised outside a cycle does not wait for one.
        assert session.writer.writes == [
            b'{"op":"update","qid":10,"oid":7,"sign":1}\n'
            b'{"op":"committed","qid":10}\n'
        ]
        assert runtime._flush_sessions(0, 1.0) == 0
        assert b"".join(session.writer.writes) == (
            b'{"op":"update","qid":10,"oid":7,"sign":1}\n'
            b'{"op":"committed","qid":10}\n'
            b'{"op":"cycle_end","cycle":0,"now":1.0}\n'
        )
        assert runtime.registry.value_of("service_downlink_flushed_total") == 1

    def test_a_cycle_is_one_write_per_session_ending_in_cycle_end(self):
        """Error replies from the drain, a commit marker behind the
        mail it acknowledges, two links' mail, ``cycle_end``: one
        transport write, in that order."""
        runtime = self.stack()
        session = self.bind(runtime, 1)
        runtime._handle_hello(session, {"op": "hello", "client": 2}, 2)
        session.flush()
        session.writer.writes.clear()
        session.sync = True
        runtime._enqueue(session, {"op": "commit", "qid": 404}, 1)
        summary = runtime.run_cycle(1.0)
        assert summary["uplink_errors"] == 1 and summary["flushed_messages"] == 2
        (written,) = session.writer.writes
        lines = written.splitlines()
        assert json.loads(lines[0])["op"] == "error"
        assert sorted(lines[1:3]) == [
            b'{"op":"update","qid":10,"oid":7,"sign":1}',
            b'{"op":"update","qid":20,"oid":7,"sign":1}',
        ]
        assert lines[3:] == [b'{"op":"cycle_end","cycle":0,"now":1.0}']
        assert session.lines_out == 2 + 4  # the welcomes, then the cycle
        assert runtime.registry.value_of("service_transport_writes_total") == 1


class TestCycleLoop:
    def test_interval_paced_cycles(self, make_runtime, make_wire):
        runtime = make_runtime(cycle_interval=0.05)
        wire = make_wire(runtime)
        wire.request("hello", client=1, sync=True)
        # cycle_end markers arrive without any tick from us.
        _, marker = wire.recv_until("cycle_end")
        assert marker["cycle"] >= 0
        wait_for(lambda: runtime.cycle_count >= 2)


class TestHttpPlane:
    def test_endpoints(self, make_runtime, make_wire):
        runtime = make_runtime(grid_size=8)
        wire = make_wire(runtime)
        wire.request("hello", client=1)
        wire.send("report", client=1, oid=1, x=0.5, y=0.5, t=0.0)
        wire.request("tick", now=1.0)

        status, body = http_get(runtime.http_address, "/healthz")
        assert (status, body) == (200, "ok")

        status, body = http_get(runtime.http_address, "/state")
        assert status == 200
        state = json.loads(body)
        assert state["clients"] == 1
        assert state["sessions"] == 1
        assert state["objects"] == 1
        assert state["cycle"] == 1
        assert state["oracle"] == {"attached": False}

        status, body = http_get(runtime.http_address, "/metrics")
        assert status == 200
        assert "service_sessions_active 1.0" in body
        assert "service_cycles_total 1.0" in body
        assert 'service_admission_rejections_total{reason="sessions"} 0.0' in body
        assert "server_cycle_seconds" in body  # existing repro.obs series

        # One client's detail comes off its link, on demand.
        status, body = http_get(runtime.http_address, "/state?client=1")
        assert status == 200
        assert json.loads(body) == {
            "client": 1,
            "connected": True,
            "session": 1,
            "queued_messages": 0,
            "delivered_messages": 0,
            "delivered_bytes": 0,
            "dropped_messages": 0,
            "dropped_bytes": 0,
            "throttled_messages": 0,
            "throttled_bytes": 0,
            "budget_bytes_per_cycle": None,
            "queries": [],
        }
        for missing in ("/state?client=2", "/state?client=x"):
            assert http_get(runtime.http_address, missing)[0] == 404
        assert 'client="' not in http_get(runtime.http_address, "/metrics")[1]

        status, _ = http_get(runtime.http_address, "/nope")
        assert status == 404


@pytest.mark.parametrize("module", ["repro.service", "repro.service.loadgen"])
def test_cli_help(module):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", module, "--help"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "usage" in proc.stdout.lower()
