"""Fault injector behaviour against a live server stack."""

from repro.core.server import LocationAwareServer
from repro.faults import FaultInjector, FaultPlan
from repro.geometry import Point, Rect

REGION = Rect(0.0, 0.0, 1.0, 1.0)


def make_server(**kwargs) -> LocationAwareServer:
    server = LocationAwareServer(grid_size=8, **kwargs)
    server.register_client(1)
    server.register_range_query(1, qid=10, region=REGION)
    server.evaluate_cycle(0.0)  # flush the buffered registration
    return server


def install(server, **rates) -> FaultInjector:
    injector = FaultInjector(server, FaultPlan(seed=1, **rates))
    injector.install()
    return injector


class TestDownlinkFaults:
    def test_drops_lose_updates_and_count(self):
        server = make_server()
        injector = install(server, drop_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        result = server.evaluate_cycle(1.0)
        assert result.dropped_updates == 1
        assert server.link_of(1).drain() == []
        assert injector.counts["drop"] == 1
        assert (
            server.registry.value_of(
                "fault_injected_total", {"kind": "drop"}
            )
            == 1.0
        )

    def test_duplicates_deliver_twice(self):
        server = make_server()
        injector = install(server, duplicate_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        messages = server.link_of(1).drain()
        assert len(messages) == 2
        assert messages[0] == messages[1]
        assert injector.counts["duplicate"] == 1

    def test_reorder_swaps_across_queries_only(self):
        server = make_server()
        server.register_range_query(1, qid=11, region=REGION)
        install(server, reorder_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        qids = [m.qid for m in server.link_of(1).drain()]
        # Both positive updates arrive, in swapped query order.
        assert sorted(qids) == [10, 11]
        assert qids == [11, 10]

    def test_uninstall_restores_clean_delivery(self):
        server = make_server()
        injector = install(server, drop_rate=1.0)
        injector.uninstall()
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        result = server.evaluate_cycle(1.0)
        assert result.delivered_updates == 1


class TestUplinkDelay:
    def test_delayed_report_lands_next_cycle(self):
        server = make_server()
        injector = install(server, uplink_delay_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        assert 1 not in server.engine.objects  # deferred, not processed
        assert injector.counts["uplink_delay"] == 1
        result = server.evaluate_cycle(1.0)  # replays the delayed uplink
        assert 1 in server.engine.objects
        assert result.delivered_updates == 1

    def test_replay_bypasses_the_gate(self):
        """A delayed uplink must not be re-rolled into further delay."""
        server = make_server()
        install(server, uplink_delay_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        assert 1 in server.engine.objects


class TestDisconnects:
    def test_disconnect_then_scheduled_wakeup(self):
        server = make_server()
        injector = install(server, disconnect_rate=1.0, reconnect_after=2)
        injector.begin_cycle(0)
        assert not server.link_of(1).connected
        assert injector.counts["disconnect"] == 1
        injector.begin_cycle(1)  # still dark
        assert not server.link_of(1).connected
        injector.begin_cycle(2)  # wakeup fires, then a fresh disconnect
        assert injector.counts["disconnect"] == 2

    def test_uninstall_wakes_dark_clients(self):
        server = make_server()
        injector = install(server, disconnect_rate=1.0)
        injector.begin_cycle(0)
        assert not server.link_of(1).connected
        injector.uninstall()
        assert server.link_of(1).connected


class TestTotals:
    def test_total_injected_sums_counts(self):
        server = make_server()
        injector = install(server, drop_rate=1.0, uplink_delay_rate=1.0)
        server.receive_object_report(1, Point(0.5, 0.5), 1.0)
        server.evaluate_cycle(1.0)
        assert injector.total_injected == sum(injector.counts.values())
        assert injector.total_injected >= 2
