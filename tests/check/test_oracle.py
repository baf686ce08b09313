"""The consistency oracle: clean runs stay clean, injected bugs are caught.

The regression test at the bottom is the reason this package exists: it
re-implements the *pre-fix* ``receive_wakeup`` (which committed the
live engine answer even when ``link.deliver`` returned False) and shows
the oracle flagging the commit-invariant violation, while the fixed
server path stays clean and actually converges.
"""

import random

import numpy as np

from repro.check import ConsistencyOracle
from repro.core.client import Client
from repro.core.server import LocationAwareServer
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect, Velocity
from repro.net.messages import UpdateMessage, WakeupMessage

REGION = Rect(0.2, 0.2, 0.8, 0.8)


def make_stack(downlink_budget=None):
    server = LocationAwareServer(grid_size=8)
    server.register_client(1, downlink_budget)
    server.register_range_query(1, qid=10, region=REGION)
    oracle = ConsistencyOracle(server)
    return server, oracle


def run_cycle(server, oracle, cycle, now):
    oracle.begin_cycle()
    result = server.evaluate_cycle(now)
    return oracle.end_cycle(cycle, result.updates)


class TestCleanRuns:
    def test_no_divergences_on_healthy_network(self):
        server, oracle = make_stack()
        rng = random.Random(11)
        for cycle in range(10):
            now = float(cycle + 1)
            for oid in range(15):
                server.receive_object_report(
                    oid, Point(rng.random(), rng.random()), now
                )
            assert run_cycle(server, oracle, cycle, now) == []
        assert oracle.divergences == []
        assert server.registry.value_of("oracle_checks_total") == 10.0

    def test_clean_across_query_kinds(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_range_query(1, qid=1, region=REGION)
        server.register_knn_query(1, qid=2, center=Point(0.5, 0.5), k=3)
        server.register_predictive_query(
            1, qid=3, region=REGION, horizon=5.0
        )
        oracle = ConsistencyOracle(server)
        rng = random.Random(12)
        for cycle in range(8):
            now = float(cycle + 1)
            for oid in range(12):
                server.receive_object_report(
                    oid,
                    Point(rng.random(), rng.random()),
                    now,
                    Velocity(rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)),
                )
            assert run_cycle(server, oracle, cycle, now) == []

    def test_clean_through_disconnect_and_recovery(self):
        server, oracle = make_stack()
        for oid in range(10):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)
        server.link_of(1).disconnect()
        for oid in range(10):
            server.receive_object_report(oid, Point(0.05, 0.05), 2.0)
        run_cycle(server, oracle, 1, 2.0)  # all updates lost
        server.receive_wakeup(1)
        assert run_cycle(server, oracle, 2, 3.0) == []
        assert oracle.in_sync(1)


class TestDetection:
    def test_tampered_engine_answer_is_flagged(self):
        """Corrupting the engine's incremental answer trips both the
        replay and snapshot derivations."""
        server, oracle = make_stack()
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        server.receive_object_report(999, Point(0.9, 0.9), 1.0)  # outside REGION
        run_cycle(server, oracle, 0, 1.0)
        oracle.begin_cycle()  # baseline captured *before* the tamper
        qstore = server.engine._qstore  # phantom member: 999's answer key
        phantom = qstore.row_of(10) << 32 | server.engine._ostore.row_of(999)
        qstore.toggle(qstore.keys[:0], np.array([phantom]))
        result = server.evaluate_cycle(2.0)
        found = oracle.end_cycle(1, result.updates)
        kinds = {d.kind for d in found}
        assert "replay" in kinds
        assert "snapshot" in kinds
        flagged = next(d for d in found if d.kind == "replay")
        assert flagged.qid == 10
        assert flagged.oids == (999,)
        assert (
            server.registry.value_of(
                "oracle_divergence_total", {"kind": "replay"}
            )
            >= 1.0
        )

    def test_cancelling_pair_is_flagged(self):
        """A ``-o`` and ``+o`` of one query in one cycle fold to the
        right answer but are not its net change: the replay check
        names the object."""
        server, oracle = make_stack()
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)
        oracle.begin_cycle()
        updates = UpdateBatch.from_updates(server.evaluate_cycle(2.0).updates)
        updates.push(10, 1, -1)
        updates.push(10, 1, 1)
        found = oracle.end_cycle(1, updates)
        assert [(d.kind, d.qid, d.oids) for d in found] == [("replay", 10, (1,))]

    def test_query_registered_mid_cycle_is_replayed_from_empty(self):
        """A query registered in the cycle has no answer before it: its
        stream must be its whole first answer, each member once."""
        server, oracle = make_stack()
        for oid in range(3):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)
        server.register_range_query(1, qid=11, region=REGION)
        oracle.begin_cycle()
        stream = server.evaluate_cycle(2.0).updates
        assert sorted(stream.oids) == [0, 1, 2]
        short = UpdateBatch.from_updates(u for u in stream if u.oid != 2)
        found = oracle.end_cycle(1, short)
        assert [(d.kind, d.qid, d.oids) for d in found] == [("replay", 11, (2,))]

    def test_carried_query_ships_nothing(self):
        """A query moving with the object it holds keeps its answer: the
        cycle ships nothing for it, and the oracle stays clean."""
        server, oracle = make_stack()
        server.receive_object_report(1, Point(0.25, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)
        server.receive_range_query_move(10, Rect(0.3, 0.2, 0.9, 0.8), 2.0)
        server.receive_object_report(1, Point(0.35, 0.5), 2.0)
        oracle.begin_cycle()
        result = server.evaluate_cycle(2.0)
        assert result.updates == []
        assert oracle.end_cycle(1, result.updates) == []
        assert server.engine.answer_of(10) == frozenset({1})

    def test_overcommit_is_flagged(self):
        """Committing state the client never received violates
        committed ⊆ delivered."""
        server, oracle = make_stack()
        server.link_of(1).disconnect()
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)  # update lost on the wire
        # A (buggy) commit of the live answer, bypassing delivery proof:
        server.commits.commit(10, server.engine.answer_of(10))
        server._notify("on_commit", 10)
        found = run_cycle(server, oracle, 1, 2.0)
        assert {d.kind for d in found} == {"commit"}
        assert found[0].oids == (1,)


def buggy_receive_wakeup(server, client_id):
    """The pre-fix recovery path: ``link.deliver``'s verdict is ignored
    and the full live answer is committed regardless of what fit down
    the throttled link."""
    server.stats.record_uplinks(WakeupMessage, 1)
    link = server.link_of(client_id)
    link.reconnect()
    from repro.net import ThrottledLink

    if isinstance(link, ThrottledLink):
        link.new_cycle()
    server._notify("on_wakeup_begin", client_id)
    sent = []
    for qid in sorted(server.queries_of(client_id)):
        current = server.engine.answer_of(qid)
        for update in server.commits.recovery_updates(qid, current):
            link.deliver(UpdateMessage(update.qid, update.oid, update.sign))
            sent.append(update)
        server._lag.pop(qid, None)  # delivered := live, regardless
        server.commits.commit(qid, current)
    server._notify("on_wakeup_end", client_id)
    return sent


class TestWakeupCommitRegression:
    """The bug this PR fixes, demonstrated differentially."""

    BUDGET = 40  # two 17-byte updates per cycle/wakeup

    def populate(self, server):
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)

    def test_prefix_behaviour_caught_by_oracle(self):
        server, oracle = make_stack(downlink_budget=self.BUDGET)
        server.link_of(1).disconnect()
        self.populate(server)
        run_cycle(server, oracle, 0, 1.0)
        # Recovery must ship 8 updates but only 2 fit the budget; the
        # buggy path commits all 8 as received anyway.
        buggy_receive_wakeup(server, 1)
        found = run_cycle(server, oracle, 1, 2.0)
        assert any(d.kind == "commit" for d in found)
        # The permanent desync the paper's protocol must avoid: a second
        # wakeup diffs against the over-committed base, finds nothing to
        # send, and the client never hears about the missing objects.
        assert buggy_receive_wakeup(server, 1) == []
        assert not oracle.in_sync(1)

    def test_fixed_server_converges_and_stays_clean(self):
        server, oracle = make_stack(downlink_budget=self.BUDGET)
        server.link_of(1).disconnect()
        self.populate(server)
        run_cycle(server, oracle, 0, 1.0)
        delivered = server.receive_wakeup(1)
        assert len(delivered) == 2  # only what fit was recorded
        assert run_cycle(server, oracle, 1, 2.0) == []
        # Each further wakeup re-sends exactly the missing delta.
        rounds = 0
        while not oracle.in_sync(1):
            rounds += 1
            assert rounds < 10, "throttled recovery failed to converge"
            server.receive_wakeup(1)
        assert server.commits.committed_answer(10) == server.engine.answer_of(10)
        assert oracle.divergences == []


class TestMirrorMatchesRealClient:
    def test_mirror_agrees_with_client_through_outage(self):
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        server.register_range_query(1, qid=10, region=REGION)
        client.track_query(10)
        oracle = ConsistencyOracle(server)
        for oid in range(6):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        run_cycle(server, oracle, 0, 1.0)
        client.pump()
        client.send_commit(10)
        client.disconnect()
        for oid in range(6):
            server.receive_object_report(oid, Point(0.05, 0.05), 2.0)
        run_cycle(server, oracle, 1, 2.0)
        client.reconnect()
        assert client.answer_of(10) == oracle.mirror_answer(1, 10)
        assert client.answer_of(10) == server.engine.answer_of(10)
