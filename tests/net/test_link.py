"""Client links: delivery, loss during disconnection, accounting."""

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
        labels = {"client": "1"}
        value_of = stats.registry.value_of
        assert value_of("link_delivered_messages_total", labels) == 3
        assert value_of("link_delivered_bytes_total", labels) == 3 * 17
        assert value_of("link_queued_messages", labels) == 3
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
    """Satellite: per-link counters labelled by client id."""

    def link_value(self, stats, name, client):
        return stats.registry.value_of(name, {"client": str(client)})

    def test_delivered_counters_are_per_link(self):
        stats = NetworkStats()
        a, b = ClientLink(1, stats), ClientLink(2, stats)
        a.deliver(update())
        a.deliver(update())
        b.deliver(update())
        assert self.link_value(stats, "link_delivered_messages_total", 1) == 2.0
        assert self.link_value(stats, "link_delivered_messages_total", 2) == 1.0
        assert self.link_value(stats, "link_delivered_bytes_total", 1) == 34.0
        assert stats.delivered_messages == 3  # aggregate view unchanged

    def test_dropped_while_disconnected_counted_per_link(self):
        stats = NetworkStats()
        link = ClientLink(7, stats)
        link.disconnect()
        link.deliver(update())
        link.deliver(update())
        assert self.link_value(stats, "link_dropped_messages_total", 7) == 2.0
        assert self.link_value(stats, "link_dropped_bytes_total", 7) == 34.0
        assert self.link_value(stats, "link_delivered_messages_total", 7) == 0.0

    def test_connected_gauge_follows_link_state(self):
        stats = NetworkStats()
        link = ClientLink(3, stats)
        assert self.link_value(stats, "link_connected", 3) == 1.0
        link.disconnect()
        assert self.link_value(stats, "link_connected", 3) == 0.0
        link.reconnect()
        assert self.link_value(stats, "link_connected", 3) == 1.0

    def test_queued_gauge_tracks_inbox_depth(self):
        stats = NetworkStats()
        link = ClientLink(4, stats)
        for i in range(3):
            link.deliver(update(i))
        assert self.link_value(stats, "link_queued_messages", 4) == 3.0
        link.drain()
        assert self.link_value(stats, "link_queued_messages", 4) == 0.0

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
        assert self.link_value(stats, "link_dropped_messages_total", 5) == 1.0
        assert self.link_value(stats, "link_delivered_messages_total", 5) == 2.0
        assert self.link_value(stats, "link_queued_messages", 5) == 0.0


class TestDropPathAccounting:
    """Regression: the drop path must account bytes and refresh the
    queue-depth gauge on every outcome, not only on accepted delivery."""

    def test_drop_updates_bytes_and_gauge(self):
        stats = NetworkStats()
        link = ClientLink(1, stats)
        link.deliver(update())
        link.deliver(update())
        link.disconnect()
        assert not link.deliver(update())
        labels = {"client": "1"}
        registry = stats.registry
        assert registry.value_of("link_dropped_messages_total", labels) == 1
        assert registry.value_of("link_dropped_bytes_total", labels) == 17
        # Gauge reflects true inbox depth right after the drop outcome.
        assert registry.value_of("link_queued_messages", labels) == 2
        link.drain()
        assert registry.value_of("link_queued_messages", labels) == 0
