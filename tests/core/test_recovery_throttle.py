"""Recovery under a throttled downlink (the commit/delivery fixes).

The scenario that motivated this PR's bugfixes: a client behind a
byte-budgeted link disconnects, misses a burst of updates, and wakes
up — but the recovery response itself doesn't fit the budget.  The
server must commit only what was delivered, so that repeated wakeups
re-send exactly the missing remainder and the client converges to
``engine.answer_of(qid)``.
"""

from repro.core.client import Client
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect

REGION = Rect(0.2, 0.2, 0.8, 0.8)
BUDGET = 40  # two 17-byte updates per cycle / per wakeup


def make_stack():
    server = LocationAwareServer(grid_size=8)
    client = Client(1, server, downlink_budget=BUDGET)
    server.register_range_query(1, qid=10, region=REGION)
    client.track_query(10)
    return server, client


class TestRecoveryUnderThrottle:
    def test_client_converges_over_repeated_wakeups(self):
        server, client = make_stack()
        client.disconnect()
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)  # 8 updates, all lost in the outage

        client.reconnect()  # first wakeup: only 2 updates fit
        assert len(client.answer_of(10)) == 2
        assert server.commits.committed_answer(10) == client.answer_of(10)

        wakeups = 1
        while client.answer_of(10) != server.engine.answer_of(10):
            wakeups += 1
            assert wakeups <= 10, "recovery failed to converge"
            client.reconnect()
        assert wakeups == 4  # ceil(8 / 2) wakeups to ship 8 updates
        assert server.commits.committed_answer(10) == server.engine.answer_of(10)

    def test_commit_after_partial_delivery_is_not_ahead_of_client(self):
        """The headline regression: the committed answer must equal what
        the client holds after a partially-delivered recovery, never the
        full live answer."""
        server, client = make_stack()
        client.disconnect()
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        client.reconnect()
        committed = server.commits.committed_answer(10)
        assert committed == client.answer_of(10)
        assert len(committed) == 2
        assert committed != server.engine.answer_of(10)
        # Second wakeup ships the next slice of the missing delta.
        client.reconnect()
        assert len(client.answer_of(10)) == 4
        assert server.commits.committed_answer(10) == client.answer_of(10)

    def test_throttled_cycle_commit_reflects_delivery(self):
        """An explicit commit after a throttled cycle records the
        delivered subset, not the full engine answer."""
        server, client = make_stack()
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        result = server.evaluate_cycle(1.0)
        assert result.delivered_updates == 2
        assert result.dropped_updates == 6
        client.send_commit(10)
        assert server.commits.committed_answer(10) == client.answer_of(10)
        assert len(server.commits.committed_answer(10)) == 2
        # The next wakeup completes the answer from the honest base.
        rounds = 0
        while client.answer_of(10) != server.engine.answer_of(10):
            rounds += 1
            assert rounds <= 10
            client.reconnect()
        assert client.answer_of(10) == server.engine.answer_of(10)

    def test_unthrottled_recovery_still_single_shot(self):
        """No budget, no faults: one wakeup fully resynchronises (the
        original Section 3.3 behaviour is unchanged)."""
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        server.register_range_query(1, qid=10, region=REGION)
        client.track_query(10)
        client.disconnect()
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        client.reconnect()
        assert client.answer_of(10) == server.engine.answer_of(10)
        assert server.commits.committed_answer(10) == client.answer_of(10)


    def test_no_query_starves_behind_lower_qids(self):
        """A budget smaller than one wakeup's delta is spent where the
        previous wakeup stopped, not on the lowest qids every time:
        within as many wakeups as the client has queries, every query
        with a non-empty delta receives an update — and repeated
        wakeups still converge."""
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server, downlink_budget=BUDGET)
        qids = [10, 11, 12, 13, 14]
        for qid in qids:
            server.register_range_query(1, qid=qid, region=REGION)
            client.track_query(qid)
        client.disconnect()
        for oid in range(8):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)  # 40 updates, all lost in the outage
        lagging = {
            qid for qid in qids
            if server.delivered_answer(qid) != server.engine.answer_of(qid)
        }  # fmt: skip
        assert lagging == set(qids)
        served: set[int] = set()
        for _ in qids:
            served.update(server.receive_wakeup(1).qids)
        assert served == lagging
        for _ in range(100):
            if all(client.answer_of(q) == server.engine.answer_of(q) for q in qids):
                break
            client.reconnect()
        for qid in qids:
            assert client.answer_of(qid) == server.engine.answer_of(qid)
            assert server.commits.committed_answer(qid) == client.answer_of(qid)


class TestNaiveRecoveryAccounting:
    def test_wakeup_uplink_is_recorded(self):
        """`recover_naive` now records the wakeup uplink it responds to,
        like `receive_wakeup` always did."""
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_range_query(1, qid=10, region=REGION)
        server.evaluate_cycle(0.0)
        before = server.stats.uplink_messages
        server.recover_naive(1)
        assert server.stats.uplink_messages == before + 1
        assert server.stats.by_type["uplink:WakeupMessage"] == 1

    def test_undelivered_full_answer_is_not_committed(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1, downlink_budget=20)  # < 16 + 8*2 bytes
        server.register_range_query(1, qid=10, region=REGION)
        for oid in range(4):
            server.receive_object_report(oid, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        server.link_of(1).disconnect()
        bytes_sent = server.recover_naive(1)
        assert bytes_sent == 0  # 48-byte answer over a 20-byte budget
        assert server.commits.committed_answer(10) == frozenset()
