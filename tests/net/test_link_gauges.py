"""Property tests: the link's own counters and the fleet gauges track
true link state under any interleaving of deliveries, outages, faults
and drains — and the registry never grows a series per client."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    DELIVER,
    DROP,
    DUPLICATE,
    FAULT_ACTIONS,
    REORDER,
    ClientLink,
    NetworkStats,
    ThrottledLink,
    UpdateMessage,
)
from repro.net.link import WORST_LINKS

#: One step of link usage: an operation name, plus a payload qid for
#: deliveries (distinct qids make REORDER actually reorder).
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(min_value=1, max_value=3)),
        st.tuples(st.just("disconnect"), st.just(0)),
        st.tuples(st.just("reconnect"), st.just(0)),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    max_size=60,
)

ACTIONS = st.lists(st.sampled_from(FAULT_ACTIONS), min_size=1, max_size=16)


def run_ops(link: ClientLink, ops) -> list:
    inbox_copy = []
    for op, qid in ops:
        if op == "deliver":
            link.deliver(UpdateMessage(qid, 1, 1))
        elif op == "disconnect":
            link.disconnect()
        elif op == "reconnect":
            link.reconnect()
        else:
            inbox_copy.extend(link.drain())
    return inbox_copy


def queued(stats: NetworkStats) -> float:
    return stats.registry.value_of("links_queued_messages")


class TestQueuedGaugeProperty:
    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_queued_gauge_equals_inbox_depth(self, ops):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        run_ops(link, ops)
        assert queued(stats) == link.queued_messages == len(link._inbox)

    @given(ops=OPS, actions=ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_queued_gauge_holds_under_faults(self, ops, actions):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        cursor = iter(actions * 100)
        link.fault_hook = lambda _link, _msg: next(cursor)
        run_ops(link, ops)
        assert queued(stats) == link.queued_messages == len(link._inbox)

    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_drain_always_zeroes_the_gauge(self, ops):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        run_ops(link, ops)
        link.drain()
        assert queued(stats) == link.queued_messages == 0


class TestConnectedGaugeProperty:
    @given(ops=OPS)
    @settings(max_examples=60, deadline=None)
    def test_connected_gauge_mirrors_link_state(self, ops):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        run_ops(link, ops)
        assert stats.registry.value_of("links_connected") == (
            1.0 if link.connected else 0.0
        )


class TestFaultActionProperties:
    @given(ops=OPS, actions=ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_accounting_matches_inbox_and_drops(self, ops, actions):
        """delivered counter == everything that entered the inbox
        (duplicates included); dropped counter == everything lost."""
        stats = NetworkStats()
        link = ClientLink(1, stats)
        cursor = iter(actions * 100)
        link.fault_hook = lambda _link, _msg: next(cursor)
        drained = run_ops(link, ops)
        total_in = len(drained) + len(link._inbox)
        assert link.delivered_messages == total_in
        attempts = sum(1 for op, _ in ops if op == "deliver")
        duplicates = total_in - (attempts - link.dropped_messages)
        assert duplicates >= 0

    @given(actions=ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_per_query_fifo_is_preserved(self, actions):
        """Whatever the fault schedule does, one query's updates are
        never reordered against each other."""
        link = ClientLink(1)
        cursor = iter(actions * 100)
        link.fault_hook = lambda _link, _msg: next(cursor)
        for i in range(20):
            link.deliver(UpdateMessage(qid=1 + (i % 2), oid=i, sign=1))
        for qid in (1, 2):
            oids = [m.oid for m in link._inbox if m.qid == qid]
            assert oids == sorted(oids)

    def test_duplicate_is_adjacent(self):
        link = ClientLink(1)
        link.fault_hook = lambda _link, _msg: DUPLICATE
        link.deliver(UpdateMessage(1, 7, 1))
        assert [m.oid for m in link._inbox] == [7, 7]

    def test_reorder_never_crosses_same_query(self):
        link = ClientLink(1)
        actions = iter([DELIVER, REORDER])
        link.fault_hook = lambda _link, _msg: next(actions)
        link.deliver(UpdateMessage(1, 1, 1))
        link.deliver(UpdateMessage(1, 2, 1))  # same qid: stays in order
        assert [m.oid for m in link._inbox] == [1, 2]

    def test_drop_returns_false_and_counts(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.fault_hook = lambda _link, _msg: DROP
        assert not link.deliver(UpdateMessage(1, 1, 1))
        assert link.dropped_messages == 1


#: Model-based steps for a mixed fleet: a plain link and a throttled
#: one sharing a NetworkStats, each step naming (op, target, qid).
FLEET_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("deliver"),
            st.integers(min_value=1, max_value=2),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(
            st.just("disconnect"), st.integers(min_value=1, max_value=2), st.just(0)
        ),
        st.tuples(
            st.just("reconnect"), st.integers(min_value=1, max_value=2), st.just(0)
        ),
        st.tuples(
            st.just("drain"), st.integers(min_value=1, max_value=2), st.just(0)
        ),
        st.tuples(st.just("new_cycle"), st.just(2), st.just(0)),
    ),
    max_size=80,
)


class TestFleetAccountingInvariants:
    """The per-link / aggregate reconciliation the dashboards rely on,
    pinned under every interleaving of faults (duplicates and reorders
    included), outages, throttling, budget resets and drains."""

    @given(ops=FLEET_OPS, actions=ACTIONS, budget=st.integers(20, 100))
    @settings(max_examples=80, deadline=None)
    def test_aggregate_equals_sum_of_per_link_series(
        self, ops, actions, budget
    ):
        stats = NetworkStats()
        links = {
            1: ClientLink(1, stats),
            2: ThrottledLink(2, budget, stats),
        }
        cursor = iter(actions * 200)
        for link in links.values():
            link.fault_hook = lambda _link, _msg: next(cursor)
        for op, target, qid in ops:
            link = links[target]
            if op == "deliver":
                link.deliver(UpdateMessage(qid, 1, 1))
            elif op == "disconnect":
                link.disconnect()
            elif op == "reconnect":
                link.reconnect()
            elif op == "drain":
                link.drain()
            else:
                link.new_cycle()

        fleet = links.values()
        assert stats.delivered_messages == sum(
            link.delivered_messages for link in fleet
        )
        assert stats.delivered_bytes == sum(
            link.delivered_bytes for link in fleet
        )
        # Aggregate drops decompose into per-link drops + throttles:
        # a throttled message is not a wire drop, but it is lost.
        assert stats.dropped_messages == (
            sum(link.dropped_messages for link in fleet)
            + links[2].throttled_messages
        )
        assert stats.dropped_bytes == (
            sum(link.dropped_bytes for link in fleet)
            + links[2].throttled_bytes
        )

        # The fleet gauges, kept incrementally, equal what a walk over
        # the links would count; the throttle never spends past budget.
        value = stats.registry.value_of
        assert value("links_registered") == len(links)
        assert value("links_connected") == sum(
            link.connected for link in fleet
        )
        assert value("links_queued_messages") == sum(
            len(link._inbox) for link in fleet
        )
        assert 0 <= links[2]._spent_this_cycle <= budget

    @given(ops=FLEET_OPS, actions=ACTIONS)
    @settings(max_examples=60, deadline=None)
    def test_throttled_link_mirror_counters_match_registry(
        self, ops, actions
    ):
        """The link's ``throttled_messages``/``throttled_bytes`` and
        the fleet-wide throttle totals move in lockstep."""
        stats = NetworkStats()
        link = ThrottledLink(2, 40, stats)
        cursor = iter(actions * 200)
        link.fault_hook = lambda _link, _msg: next(cursor)
        for op, _target, qid in ops:
            if op == "deliver":
                link.deliver(UpdateMessage(qid, 1, 1))
            elif op == "disconnect":
                link.disconnect()
            elif op == "reconnect":
                link.reconnect()
            elif op == "drain":
                link.drain()
            else:
                link.new_cycle()
        value = stats.registry.value_of
        assert value("net_throttled_messages_total") == link.throttled_messages
        assert value("net_throttled_bytes_total") == link.throttled_bytes


class TestWorstLinks:
    """The ``WORST_LINKS`` links that dropped the most, by rank — the
    only place a client id reaches the registry."""

    @staticmethod
    def ranking(stats: NetworkStats) -> list[tuple[int, int]]:
        value = stats.registry.value_of
        return [
            (
                int(value("link_worst_client_id", {"rank": str(rank)})),
                int(value("link_worst_dropped_messages", {"rank": str(rank)})),
            )
            for rank in range(WORST_LINKS)
        ]

    @staticmethod
    def dark_fleet(stats: NetworkStats) -> dict[int, ClientLink]:
        """Six dark links; client ``n`` has dropped ``n`` messages."""
        links = {cid: ClientLink(cid, stats) for cid in range(1, 7)}
        for cid, link in links.items():
            link.disconnect()
            for _ in range(cid):
                link.deliver(UpdateMessage(1, 1, 1))
        return links

    def test_six_links_rank_the_five_worst(self):
        stats = NetworkStats()
        self.dark_fleet(stats)
        assert self.ranking(stats) == [(6, 6), (5, 5), (4, 4), (3, 3), (2, 2)]
        ranks = {
            instrument.labels["rank"]
            for name in ("link_worst_client_id", "link_worst_dropped_messages")
            for instrument in stats.registry.families()[name]
        }
        assert ranks == {str(rank) for rank in range(WORST_LINKS)}

    def test_a_link_overtaking_another_re_ranks(self):
        stats = NetworkStats()
        links = self.dark_fleet(stats)
        for _ in range(6):  # client 1: 1 -> 7 drops, unranked -> worst
            links[1].deliver(UpdateMessage(1, 1, 1))
        assert self.ranking(stats) == [(1, 7), (6, 6), (5, 5), (4, 4), (3, 3)]
        links[5].deliver(UpdateMessage(1, 1, 1))  # ties 6: lower id first
        links[5].deliver(UpdateMessage(1, 1, 1))
        assert self.ranking(stats)[:3] == [(1, 7), (5, 7), (6, 6)]

    def test_no_drop_no_series_and_no_client_label_ever(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.deliver(UpdateMessage(1, 1, 1))
        assert "link_worst_client_id" not in stats.registry.families()
        link.disconnect()
        link.deliver(UpdateMessage(1, 1, 1))
        assert not any(
            "client" in instrument.labels for instrument in stats.registry
        )
