"""Bandwidth-limited links and server congestion behaviour."""

import pytest

from repro.core import Client, LocationAwareServer
from repro.geometry import Point, Rect
from repro.net import NetworkStats, ThrottledLink, UpdateMessage


def update(i: int = 1) -> UpdateMessage:
    return UpdateMessage(i, i, 1)  # 17 bytes


class TestThrottledLink:
    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ThrottledLink(1, 0)

    def test_within_budget_delivers(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=40)
        assert link.deliver(update())
        assert link.deliver(update())
        assert link.remaining_budget == 40 - 34

    def test_over_budget_drops(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=20)
        assert link.deliver(update())
        assert not link.deliver(update())  # 17 + 17 > 20
        assert link.throttled_messages == 1
        assert link.throttled_bytes == 17

    def test_new_cycle_resets_budget(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=20)
        link.deliver(update())
        assert not link.deliver(update())
        link.new_cycle()
        assert link.deliver(update())

    def test_disconnection_still_applies(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=1000)
        link.disconnect()
        assert not link.deliver(update())
        assert link.throttled_messages == 0  # dropped, not throttled

    def test_throttled_drops_are_accounted(self):
        stats = NetworkStats()
        link = ThrottledLink(1, budget_bytes_per_cycle=20, stats=stats)
        link.deliver(update())
        link.deliver(update())
        assert stats.delivered_messages == 1
        assert stats.dropped_messages == 1


    def test_throttled_counters_are_per_link(self):
        stats = NetworkStats()
        link = ThrottledLink(9, budget_bytes_per_cycle=20, stats=stats)
        link.deliver(update())
        link.deliver(update())
        link.deliver(update())
        assert link.throttled_messages == 2
        assert link.throttled_bytes == 34
        # Fleet-wide totals agree; a throttle is not a wire drop.
        assert stats.registry.value_of("net_throttled_messages_total") == 2.0
        assert stats.registry.value_of("net_throttled_bytes_total") == 34.0
        assert link.dropped_messages == 0


class TestServerUnderCongestion:
    def test_throttled_client_misses_updates(self):
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        # Replace the default link with a tight budget (2 updates/cycle).
        server._links[1] = ThrottledLink(1, 34, server.stats)
        client.link = server._links[1]
        server.register_range_query(1, 100, Rect(0, 0, 1, 1))
        client.track_query(100)
        for oid in range(10):
            server.receive_object_report(oid, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        assert result.delivered_updates == 2
        assert result.dropped_updates == 8
        client.pump()
        assert len(client.answer_of(100)) == 2

    def test_register_client_with_budget(self):
        server = LocationAwareServer(grid_size=8)
        link = server.register_client(5, downlink_budget=100)
        assert isinstance(link, ThrottledLink)

    def test_recovery_heals_congestion_losses(self):
        """Throttle-dropped updates are recovered by the wakeup diff,
        the same path that heals disconnection losses."""
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        server._links[1] = ThrottledLink(1, 34, server.stats)
        client.link = server._links[1]
        server.register_range_query(1, 100, Rect(0, 0, 1, 1))
        client.track_query(100)
        for oid in range(10):
            server.receive_object_report(oid, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        client.pump()
        assert client.answer_of(100) != server.engine.answer_of(100)
        # Congestion subsides; the wakeup response now fits the budget.
        client.link.budget_bytes_per_cycle = 10_000
        client.reconnect()  # wakeup: committed-vs-current diff
        assert client.answer_of(100) == server.engine.answer_of(100)


class TestUplinkAccounting:
    def test_reports_and_moves_counted(self):
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.register_range_query(1, 100, Rect(0.4, 0.4, 0.6, 0.6))
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)  # materialise the registration
        server.receive_range_query_move(100, Rect(0.4, 0.4, 0.6, 0.6), 1.0)
        server.receive_commit(100)
        assert server.stats.uplink_messages == 3
        assert server.stats.uplink_bytes == 48 + 48 + 8
        assert server.stats.by_type["uplink:ObjectReportMessage"] == 1

    def test_wakeup_counted(self):
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.receive_wakeup(1)
        assert server.stats.by_type["uplink:WakeupMessage"] == 1

class TestBudgetChargedOnlyOnAcceptedDelivery:
    """Regression: the budget used to be charged before the base link
    decided the delivery's fate, so outage/fault losses starved the
    messages that followed them in the same cycle."""

    def test_outage_rejections_cost_nothing(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=40)
        link.disconnect()
        assert not link.deliver(update())
        assert not link.deliver(update())
        assert link.remaining_budget == 40
        link.reconnect()
        assert link.deliver(update())
        assert link.deliver(update())  # both fit: nothing was pre-charged
        assert link.throttled_messages == 0

    def test_faulted_rejections_cost_nothing(self):
        from repro.net import DROP

        link = ThrottledLink(1, budget_bytes_per_cycle=40)
        link.fault_hook = lambda lnk, msg: DROP
        assert not link.deliver(update())
        assert link.remaining_budget == 40
        link.fault_hook = None
        assert link.deliver(update())
        assert link.deliver(update())
        assert link.remaining_budget == 40 - 34

    def test_throttled_rejection_still_counts_against_nothing(self):
        link = ThrottledLink(1, budget_bytes_per_cycle=20)
        assert link.deliver(update())
        assert not link.deliver(update())  # over budget: throttled
        assert link.remaining_budget == 3  # only the accepted 17 charged
        assert link.throttled_messages == 1
