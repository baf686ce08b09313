"""The location-aware server: routing, accounting, persistence."""

import pytest

from repro.core import Client, LocationAwareServer
from repro.geometry import Point, Rect
from repro.storage import BufferPool, HistoryRepository, InMemoryDiskManager

REGION = Rect(0.4, 0.4, 0.6, 0.6)


class TestClientManagement:
    def test_register_and_lookup(self):
        server = LocationAwareServer(grid_size=8)
        link = server.register_client(7)
        assert server.link_of(7) is link
        with pytest.raises(KeyError):
            server.register_client(7)

    def test_query_ownership(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_client(2)
        server.register_range_query(1, 100, REGION)
        server.register_knn_query(2, 200, Point(0.5, 0.5), 3)
        assert server.queries_of(1) == frozenset({100})
        assert server.queries_of(2) == frozenset({200})

    def test_register_query_for_unknown_client_raises(self):
        server = LocationAwareServer(grid_size=8)
        with pytest.raises(KeyError):
            server.register_range_query(99, 100, REGION)

    def test_unregister_query(self):
        server = LocationAwareServer(grid_size=8)
        server.register_client(1)
        server.register_range_query(1, 100, REGION)
        server.unregister_query(100)
        assert server.queries_of(1) == frozenset()
        with pytest.raises(KeyError):
            server.unregister_query(100)


class TestRouting:
    def test_updates_reach_only_the_owner(self):
        server = LocationAwareServer(grid_size=8)
        alice = Client(1, server)
        bob = Client(2, server)
        server.register_range_query(1, 100, REGION)
        alice.track_query(100)
        server.register_range_query(2, 200, Rect(0.8, 0.8, 0.9, 0.9))
        bob.track_query(200)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        alice.pump()
        bob.pump()
        assert alice.answer_of(100) == frozenset({1})
        assert bob.answer_of(200) == frozenset()

    def test_dropped_vs_delivered_counts(self):
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        server.register_range_query(1, 100, REGION)
        client.track_query(100)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        assert result.delivered_updates == 1 and result.dropped_updates == 0
        client.disconnect()
        server.receive_object_report(1, Point(0.9, 0.9), 1.0)
        result = server.evaluate_cycle(1.0)
        assert result.delivered_updates == 0 and result.dropped_updates == 1


class TestAccounting:
    def test_incremental_bytes_match_update_count(self):
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.register_range_query(1, 100, REGION)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        assert result.incremental_bytes == len(result.updates) * 17

    def test_complete_bytes_cover_all_queries(self):
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.register_range_query(1, 100, REGION)
        server.register_range_query(1, 200, REGION)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        # Two answers of one member each: 2 * (16 + 8).
        assert result.complete_bytes == 48

    def test_quiet_cycle_still_pays_complete_bytes(self):
        """The crux of Figure 5: a cycle with no changes costs zero
        incremental bytes but full retransmission cost for a snapshot
        server."""
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.register_range_query(1, 100, REGION)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        result = server.evaluate_cycle(1.0)  # nothing changed
        assert result.incremental_bytes == 0
        assert result.complete_bytes == 24

    def test_savings_ratio(self):
        server = LocationAwareServer(grid_size=8)
        Client(1, server)
        server.register_range_query(1, 100, REGION)
        server.receive_object_report(1, Point(0.5, 0.5), 0.0)
        result = server.evaluate_cycle(0.0)
        assert result.savings_ratio == pytest.approx(17 / 24)


class TestHistoryPersistence:
    def test_superseded_locations_are_archived(self):
        history = HistoryRepository(BufferPool(InMemoryDiskManager(), 8))
        server = LocationAwareServer(grid_size=8, history=history)
        Client(1, server)
        server.receive_object_report(1, Point(0.1, 0.1), 0.0)
        server.evaluate_cycle(0.0)
        server.receive_object_report(1, Point(0.2, 0.2), 5.0)
        server.evaluate_cycle(5.0)
        server.receive_object_report(1, Point(0.3, 0.3), 10.0)
        server.evaluate_cycle(10.0)
        trajectory = history.trajectory_of(1)
        assert [(t, x) for t, x, __ in trajectory] == [(0.0, 0.1), (5.0, 0.2)]

    def test_first_report_is_not_archived(self):
        history = HistoryRepository(BufferPool(InMemoryDiskManager(), 8))
        server = LocationAwareServer(grid_size=8, history=history)
        server.receive_object_report(1, Point(0.1, 0.1), 0.0)
        assert history.appended_count == 0

    def test_recover_naive_costs_full_answers(self):
        server = LocationAwareServer(grid_size=8)
        client = Client(1, server)
        server.register_range_query(1, 100, REGION)
        client.track_query(100)
        for oid in range(20):
            server.receive_object_report(oid, Point(0.5, 0.5), 0.0)
        server.evaluate_cycle(0.0)
        client.disconnect()
        naive_bytes = server.recover_naive(1)
        assert naive_bytes == 16 + 20 * 8


class TestHostileReports:
    """Satellite: a hostile value is refused at the call that carried
    it and never reaches the shared cycle."""

    def test_a_non_finite_coordinate_is_refused_not_indexed(self):
        import random

        from repro.geometry import Velocity

        rng = random.Random(20)
        reports = [(oid, Point(rng.random(), rng.random())) for oid in range(1000)]
        streams = []
        for pipeline in ("per-object", "columnar"):
            server = LocationAwareServer(grid_size=8, pipeline=pipeline)
            server.register_client(1)
            server.register_range_query(1, 100, REGION)
            for oid, point in reports:
                if oid == 500 and pipeline == "columnar":
                    for bad in (float("nan"), float("inf"), float("-inf")):
                        with pytest.raises(ValueError):
                            server.receive_object_report(5000, Point(bad, 0.5), 1.0)
                        with pytest.raises(ValueError):
                            server.receive_object_report(5000, Point(0.5, bad), 1.0)
                server.receive_object_report(oid, point, 1.0, Velocity.ZERO)
            result = server.evaluate_cycle(1.0)
            server.engine.check_invariants()
            assert 5000 not in server.engine.objects
            streams.append({(u.qid, u.oid, u.sign) for u in result.updates})
        assert streams[0] == streams[1] and streams[0]

    def test_in_world_reports_keep_the_point_and_drift_is_clamped(self):
        server = LocationAwareServer(grid_size=8)
        inside, outside = Point(0.25, 1.0), Point(1.5, -0.25)
        server.receive_object_report(1, inside, 0.0)
        server.receive_object_report(2, outside, 0.0)
        server.evaluate_cycle(0.0)
        assert server.engine.objects[1].location == inside
        assert server.engine.objects[2].location == Point(1.0, 0.0)

    def test_the_service_edge_refuses_what_the_columns_cannot_hold(self):
        from repro.geometry import Velocity
        from repro.service.protocol import ProtocolError
        from repro.service.runtime import ServiceRuntime

        runtime = ServiceRuntime(
            server=LocationAwareServer(grid_size=8, pipeline="columnar")
        )
        report = dict(op="report", client=1, oid=1, x=0.5, y=0.5, t=1.0)
        for bad in (
            dict(oid=2**63),
            dict(oid=-(2**63) - 1),
            dict(t=float("nan")),
            dict(vx=float("inf")),
            dict(vy=float("nan")),
        ):
            with pytest.raises(ProtocolError):
                runtime._apply_op({**report, **bad})
        with pytest.raises(ValueError):
            runtime._apply_op({**report, "x": float("nan")})
        runtime._apply_op({**report, "oid": 2**63 - 1, "vx": 0.0})
        runtime._apply_op({**report, "oid": -(2**63), "vy": 0.5})
        runtime.run_cycle(1.0)
        objects = runtime.server.engine.objects
        assert set(objects) == {2**63 - 1, -(2**63)}
        assert objects[2**63 - 1].velocity is Velocity.ZERO
        assert objects[-(2**63)].velocity == Velocity(0.0, 0.5)
        runtime.server.engine.check_invariants()
