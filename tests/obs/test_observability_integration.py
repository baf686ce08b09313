"""The observability plane end-to-end: freshness through the server and
flight-recorder protocol capture."""

from __future__ import annotations

import json

import pytest

from repro.core import IncrementalEngine
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect
from repro.obs import DEFAULT_RING_SIZE, FlightRecorder


def make_server(**kwargs):
    server = LocationAwareServer(grid_size=8, **kwargs)
    server.register_client(1)
    server.register_range_query(1, 100, Rect(0.0, 0.0, 0.5, 0.5))
    return server


@pytest.mark.usefixtures("full_tracking")
class TestServerFreshness:
    def test_same_cycle_delivery_is_fresh(self):
        server = make_server()
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)
        stages = server.freshness.stage_summary()
        assert stages["delivery"]["positive"]["count"] == 1
        assert stages["delivery"]["positive"]["cycles"]["p99"] == 0.0

    def test_commit_stage_lags_for_lazy_acknowledgement(self):
        server = make_server()
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)
        server.evaluate_cycle(2.0)
        server.evaluate_cycle(3.0)
        server.receive_commit(100)
        stages = server.freshness.stage_summary()
        # Delivered immediately (lag 0) but acknowledged two cycles on
        # (bucketed quantiles interpolate, so compare by mean).
        assert stages["delivery"]["positive"]["cycles"]["p99"] == 0.0
        assert stages["commit"]["positive"]["cycles"]["mean"] == 2.0

    def test_throttled_client_staleness_visible(self):
        """A budget-zero client receives nothing until a wakeup; the
        recovered update carries the accumulated cycle lag."""
        server = LocationAwareServer(grid_size=8)
        server.register_client(1, downlink_budget=1)  # nothing fits
        server.register_range_query(1, 100, Rect(0.0, 0.0, 0.5, 0.5))
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)  # throttled away
        server.evaluate_cycle(2.0)
        registry = server.registry
        assert (
            registry.counter("freshness_undelivered_updates_total").value == 1
        )
        server.link_of(1).budget_bytes_per_cycle = 10_000
        server.receive_wakeup(1)
        stages = server.freshness.stage_summary()
        # Stamped for cycle 1, recovered after cycle 2: one cycle stale.
        assert stages["delivery"]["positive"]["cycles"]["mean"] == 1.0
        # The wakeup completed the resync, so commit staleness exists too.
        assert stages["commit"]["positive"]["count"] == 1

    def test_freshness_vs_savings_snapshot(self):
        server = make_server()
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)
        snap = server.freshness_vs_savings()
        assert 0.0 < snap["savings_ratio"]
        assert snap["incremental_bytes"] > 0
        assert snap["staleness"]["stages"]["delivery"]["positive"]["count"] == 1
        json.dumps(snap)

    def test_unregistration_forgets_query_state(self):
        server = make_server()
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)
        assert server.freshness.query_summary(100) != {}
        server.unregister_query(100)
        server.evaluate_cycle(2.0)
        assert server.freshness.query_summary(100) == {}

    def test_departed_objects_leave_the_tracker(self):
        """A thousand objects report and leave: the removal's negatives
        are attributed in the cycle they ship, the stamps go one
        evaluation later, and a re-report in between keeps its new one.
        An object reported and removed in the same batch never reaches
        the store, and its stamp goes too."""
        server = make_server()
        registry = server.registry
        for oid in range(1000):
            server.receive_object_report(oid, Point(oid / 1000, oid / 1000), 0.0)
        members = len(server.evaluate_cycle(1.0).updates)
        assert registry.value_of("freshness_tracked_objects") == 1000
        for oid in range(1000):
            server.remove_object(oid)
        assert len(server.evaluate_cycle(2.0).updates) == members
        stages = server.freshness.stage_summary()
        assert stages["delivery"]["negative"]["count"] == members
        assert registry.value_of("freshness_unattributed_updates_total") == 0
        server.receive_object_report(7, Point(0.1, 0.1), 2.0)  # back before the drop
        server.evaluate_cycle(3.0)
        assert registry.value_of("freshness_tracked_objects") == 1
        assert server.freshness.stage_summary()["delivery"]["positive"]["count"] == (
            members + 1
        )
        assert registry.value_of("freshness_unattributed_updates_total") == 0
        server.remove_object(7)
        server.evaluate_cycle(4.0)
        server.evaluate_cycle(5.0)
        assert registry.value_of("freshness_tracked_objects") == 0
        for now in (6.0, 7.0):
            for oid in range(5000, 5100):
                server.receive_object_report(oid, Point(0.5, 0.5), now)
                server.remove_object(oid)
            assert server.evaluate_cycle(now).updates == []
        server.evaluate_cycle(8.0)
        assert server.engine.object_count == 0
        assert registry.value_of("freshness_tracked_objects") == 0


class TestServerRecorder:
    def test_protocol_chain_is_recorded(self):
        recorder = FlightRecorder(capacity=DEFAULT_RING_SIZE)
        server = make_server(recorder=recorder)
        server.receive_object_report(7, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(1.0)
        server.receive_commit(100)
        kinds = [e["kind"] for e in recorder.events()]
        assert "uplink_report" in kinds
        assert "evaluate_begin" in kinds
        assert "evaluate_end" in kinds
        assert "downlink" in kinds
        assert "commit" in kinds
        # The chain is causally ordered: report before evaluation
        # before delivery before acknowledgement.
        assert (
            kinds.index("uplink_report")
            < kinds.index("evaluate_begin")
            < kinds.index("downlink")
            < kinds.index("commit")
        )
        downlink = next(
            e for e in recorder.events() if e["kind"] == "downlink"
        )
        assert downlink["qid"] == 100
        assert downlink["oid"] == 7
        assert downlink["ok"] is True

    def test_recorder_installed_on_supplied_engine(self):
        engine = IncrementalEngine(grid_size=8)
        recorder = FlightRecorder(capacity=64)
        server = LocationAwareServer(engine=engine, recorder=recorder)
        assert engine.recorder is recorder
        assert server.recorder is recorder

    def test_default_recorder_is_null(self):
        server = make_server()
        assert not server.recorder.enabled
