"""Client links: delivery, loss during disconnection, accounting."""

import pytest

from repro.net import DROP, ClientLink, NetworkStats, ThrottledLink, UpdateMessage


def update(i: int = 1) -> UpdateMessage:
    return UpdateMessage(i, i, 1)


class TestDelivery:
    def test_connected_delivery(self):
        link = ClientLink(1)
        assert link.deliver(update())
        assert link.drain() == [update()]

    def test_drain_empties_inbox(self):
        link = ClientLink(1)
        link.deliver(update())
        link.drain()
        assert link.drain() == []

    def test_disconnected_messages_are_lost(self):
        link = ClientLink(1)
        link.disconnect()
        assert not link.deliver(update())
        link.reconnect()
        assert link.drain() == []  # not queued, lost

    def test_delivery_order_preserved(self):
        link = ClientLink(1)
        for i in range(5):
            link.deliver(update(i))
        assert [m.qid for m in link.drain()] == [0, 1, 2, 3, 4]


class TestSliceDelivery:
    """``deliver_updates``: whole slice at once on a plain link,
    ``deliver`` verdicts on any other."""

    SLICE = ([1, 2, 1], [7, 8, 7], [1, 1, -1])

    def test_plain_link_accepts_the_slice_arithmetically(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        assert link.deliver_updates(*self.SLICE) is None
        assert stats.delivered_messages == 3
        assert stats.delivered_bytes == 3 * 17
        assert stats.by_type == {"UpdateMessage": 3}
        assert link.delivered_messages == 3
        assert link.delivered_bytes == 3 * 17
        assert link.queued_messages == 3
        assert stats.registry.value_of("links_queued_messages") == 3
        assert link.drain() == [
            UpdateMessage(1, 7, 1),
            UpdateMessage(2, 8, 1),
            UpdateMessage(1, 7, -1),
        ]

    def test_hooked_link_decides_per_message(self):
        link = ClientLink(1)
        seen = []
        link.fault_hook = lambda _link, message: (
            seen.append(message) or (DROP if message.qid == 2 else "deliver")
        )
        assert link.deliver_updates(*self.SLICE) == [True, False, True]
        assert len(seen) == 3
        assert [m.qid for m in link.drain()] == [1, 1]

    def test_observed_dark_and_metered_links_decide_per_message(self):
        observed = ClientLink(1)
        calls = []
        observed.delivery_observer = lambda *call: calls.append(call)
        assert observed.deliver_updates(*self.SLICE) == [True, True, True]
        assert len(calls) == 3
        dark = ClientLink(2)
        dark.disconnect()
        assert dark.deliver_updates(*self.SLICE) == [False, False, False]
        metered = ThrottledLink(3, budget_bytes_per_cycle=40)
        assert metered.deliver_updates(*self.SLICE) == [True, True, False]
        assert metered.throttled_messages == 1


    def test_a_bad_sign_refuses_the_slice_whole(self):
        stats = NetworkStats()
        plain, hooked = ClientLink(1, stats), ClientLink(2, stats)
        hooked.fault_hook = lambda _link, _message: "deliver"
        for link in (plain, hooked):
            with pytest.raises(ValueError):
                link.deliver_updates([1, 2, 3], [7, 8, 9], [1, 0, -1])
            assert link.drain() == []
            assert link.delivered_messages == link.dropped_messages == 0
        assert stats.delivered_messages == 0


class TestAccounting:
    def test_delivered_and_dropped_bytes(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.deliver(update())
        link.disconnect()
        link.deliver(update())
        assert stats.delivered_bytes == 17
        assert stats.dropped_bytes == 17
        assert stats.delivered_messages == 1
        assert stats.dropped_messages == 1

    def test_by_type_counters(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.deliver(update())
        link.disconnect()
        link.deliver(update())
        assert stats.by_type["UpdateMessage"] == 1
        assert stats.by_type["dropped:UpdateMessage"] == 1

    def test_shared_stats_across_links(self):
        stats = NetworkStats()
        for cid in range(3):
            ClientLink(cid, stats).deliver(update())
        assert stats.delivered_messages == 3


class TestPerLinkTelemetry:
    """Per-link accounting: plain counters on the link itself; the
    registry holds the fleet-wide view only."""

    def test_delivered_counters_are_per_link(self):
        stats = NetworkStats()
        a, b = ClientLink(1, stats), ClientLink(2, stats)
        a.deliver(update())
        a.deliver(update())
        b.deliver(update())
        assert a.delivered_messages == 2
        assert b.delivered_messages == 1
        assert a.delivered_bytes == 34
        assert stats.delivered_messages == 3  # aggregate view unchanged

    def test_dropped_while_disconnected_counted_per_link(self):
        stats = NetworkStats()
        link = ClientLink(7, stats)
        link.disconnect()
        link.deliver(update())
        link.deliver(update())
        assert link.dropped_messages == 2
        assert link.dropped_bytes == 34
        assert link.delivered_messages == 0

    def test_connected_gauge_follows_link_state(self):
        stats = NetworkStats()
        link = ClientLink(3, stats)
        value_of = stats.registry.value_of
        assert link.connected and value_of("links_connected") == 1.0
        link.disconnect()
        link.disconnect()  # idempotent: the gauge moves on a change only
        assert not link.connected and value_of("links_connected") == 0.0
        link.reconnect()
        link.reconnect()
        assert link.connected and value_of("links_connected") == 1.0
        assert value_of("links_registered") == 1.0

    def test_queued_gauge_tracks_inbox_depth(self):
        stats = NetworkStats()
        link = ClientLink(4, stats)
        for i in range(3):
            link.deliver(update(i))
        assert link.queued_messages == 3
        assert stats.registry.value_of("links_queued_messages") == 3.0
        link.drain()
        assert link.queued_messages == 0
        assert stats.registry.value_of("links_queued_messages") == 0.0

    def test_reconnect_resumes_queueing_after_losses(self):
        """Disconnect/reconnect: messages during the outage are lost
        (never re-queued), delivery resumes cleanly afterwards."""
        stats = NetworkStats()
        link = ClientLink(5, stats)
        link.deliver(update(0))
        link.disconnect()
        link.deliver(update(1))
        link.reconnect()
        link.deliver(update(2))
        assert [m.qid for m in link.drain()] == [0, 2]
        assert link.dropped_messages == 1
        assert link.delivered_messages == 2
        assert link.queued_messages == 0


class TestDropPathAccounting:
    """Regression: the drop path must account bytes, and the queue
    depth must stay true on every outcome, not only on accepted
    delivery."""

    def test_drop_updates_bytes_and_gauge(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.deliver(update())
        link.deliver(update())
        link.disconnect()
        assert not link.deliver(update())
        registry = stats.registry
        assert link.dropped_messages == 1
        assert link.dropped_bytes == 17
        # Depth reflects the true inbox right after the drop outcome.
        assert link.queued_messages == 2
        assert registry.value_of("links_queued_messages") == 2
        link.drain()
        assert registry.value_of("links_queued_messages") == 0
