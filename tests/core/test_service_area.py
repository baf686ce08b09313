"""Service-area semantics: clamped locations, clipped regions.

Regression suite for a real bug: an object whose reported location (or
predicted trajectory) left the unit world could satisfy the un-clipped
portion of a query region that also hung off the map — geometry the
grid cannot index, so the incremental engine silently missed the
update while the TPR baseline reported it.  The fix makes the service
area authoritative for every engine: locations clamp into the world,
regions clip to it.
"""

import random

import pytest

from repro.baselines import (
    PerQueryEngine,
    QIndexEngine,
    SnapshotEngine,
    TprPredictiveEngine,
    VCIEngine,
)
from repro.core import IncrementalEngine, LocationAwareServer
from repro.geometry import Point, Rect, Velocity


class TestClamping:
    def test_off_world_report_is_clamped(self):
        engine = IncrementalEngine(grid_size=8)
        engine.report_object(1, Point(1.5, -0.5), 0.0)
        engine.evaluate(0.0)
        assert engine.objects[1].location == Point(1.0, 0.0)

    def test_edge_straddling_region_is_clipped(self):
        engine = IncrementalEngine(grid_size=8)
        engine.register_range_query(100, Rect(0.9, 0.9, 1.2, 1.2))
        engine.evaluate(0.0)
        assert engine.queries[100].region == Rect(0.9, 0.9, 1.0, 1.0)

    def test_fully_off_world_region_pins_to_boundary(self):
        engine = IncrementalEngine(grid_size=8)
        engine.report_object(1, Point(1.0, 1.0), 0.0)
        engine.register_range_query(100, Rect(2.0, 2.0, 3.0, 3.0))
        engine.evaluate(0.0)
        # Pinned at (1, 1): the clamped corner object is exactly there.
        assert engine.answer_of(100) == frozenset({1})


class TestCrossEngineAgreementAtTheEdge:
    def test_regression_trajectory_through_off_world_region_chunk(self):
        """The exact scenario that diverged: an object at the north
        edge whose trajectory crossed the off-world part of a region.
        Both engines must now agree (on the clipped geometry)."""
        region = Rect(0.7114, 0.9670, 0.7615, 1.0170)  # pokes above y=1
        incremental = IncrementalEngine(grid_size=64, prediction_horizon=60.0)
        tpr = TprPredictiveEngine(horizon=60.0)
        location = Point(0.6529, 1.0008)  # off-world report
        velocity = Velocity(0.0016456, 0.0004558)
        for engine in (incremental, tpr):
            engine.report_object(753, location, 5.0, velocity)
        incremental.register_predictive_query(22, region, 40.0, t=5.0)
        tpr.register_predictive_query(22, region, 40.0)
        incremental.evaluate(5.0)
        answers = tpr.evaluate(5.0)
        assert answers[22] == incremental.answer_of(22)

    def test_range_engines_agree_on_edge_workload(self):
        """Objects and queries pushed at/over the boundary: all range
        engines produce identical answers."""
        locations = {
            1: Point(1.0, 1.0),
            2: Point(0.99, 1.3),  # clamps to (0.99, 1.0)
            3: Point(-0.2, 0.5),  # clamps to (0.0, 0.5)
        }
        regions = {
            100: Rect(0.95, 0.95, 1.10, 1.10),
            200: Rect(-0.5, 0.4, 0.05, 0.6),
            300: Rect(1.5, 1.5, 2.0, 2.0),  # fully off-world
        }
        engines = [
            IncrementalEngine(grid_size=16),
            SnapshotEngine(grid_size=16),
            QIndexEngine(),
            PerQueryEngine(),
            VCIEngine(max_speed=0.01),
        ]
        for engine in engines:
            for oid, location in locations.items():
                engine.report_object(oid, location, 0.0)
            for qid, region in regions.items():
                engine.register_range_query(qid, region)
        engines[-1].rebuild(0.0)
        incremental = engines[0]
        incremental.evaluate(0.0)
        reference = {qid: incremental.answer_of(qid) for qid in regions}
        for engine in engines[1:]:
            answers = engine.evaluate(0.0)
            for qid in regions:
                assert answers[qid] == reference[qid], (type(engine), qid)

    def test_expected_edge_answers(self):
        engine = IncrementalEngine(grid_size=16)
        engine.report_object(1, Point(1.0, 1.0), 0.0)
        engine.report_object(2, Point(0.99, 1.3), 0.0)
        engine.report_object(3, Point(-0.2, 0.5), 0.0)
        engine.register_range_query(100, Rect(0.95, 0.95, 1.10, 1.10))
        engine.register_range_query(200, Rect(-0.5, 0.4, 0.05, 0.6))
        engine.evaluate(0.0)
        assert engine.answer_of(100) == frozenset({1, 2})
        assert engine.answer_of(200) == frozenset({3})


class TestHostileQueryValues:
    """A NaN, infinite or out-of-int64 value in a query registration or
    move is refused at buffer time: it must never reach a batch, where
    one bad value would fail the evaluation for every client."""

    NAN = float("nan")
    INF = float("inf")

    @staticmethod
    def bad_calls(server, nan, inf):
        good = Rect(0.1, 0.1, 0.3, 0.3)
        return [
            (server.receive_range_query_move, (1, Rect(nan, 0.1, 0.3, 0.3), 1.0)),
            (server.receive_range_query_move, (1, Rect(0.1, 0.1, inf, 0.3), 1.0)),
            (server.receive_range_query_move, (1, good, nan)),
            (server.receive_knn_query_move, (2, Point(nan, 0.5), 1.0)),
            (server.receive_knn_query_move, (2, Point(0.5, -inf), 1.0)),
            (server.receive_predictive_query_move, (3, Rect(0.1, nan, 0.3, 0.3), 1.0)),
            (server.register_range_query, (9, 10, Rect(0.1, 0.1, 0.3, nan))),
            (server.register_range_query, (9, 2**63, good)),
            (server.register_knn_query, (9, 10, Point(inf, 0.5), 2)),
            (server.register_knn_query, (9, 10, Point(0.5, 0.5), 0)),
            (server.register_predictive_query, (9, 10, good, nan)),
            (server.register_predictive_query, (9, 10, good, -1.0)),
            (server.register_predictive_query, (9, 10, Rect(nan, 0.1, 0.3, 0.3), 5.0)),
        ]  # fmt: skip

    def test_each_bad_op_among_1k_normal_ones(self):
        rng = random.Random(6)
        # The subject takes the hostile calls; the control never sees them.
        servers = [LocationAwareServer(grid_size=8) for _ in range(2)]
        for server in servers:
            server.register_client(9)
            server.register_range_query(9, 1, Rect(0.2, 0.2, 0.6, 0.6))
            server.register_knn_query(9, 2, Point(0.5, 0.5), 3)
            server.register_predictive_query(9, 3, Rect(0.5, 0.5, 0.9, 0.9), 5.0)
        reports = [(oid % 100, rng.random(), rng.random()) for oid in range(1000)]
        for server in servers:
            for oid, x, y in reports[:100]:
                server.receive_object_report(oid, Point(x, y), 0.0)
            server.evaluate_cycle(0.0)
        subject, reference = servers
        hostile = self.bad_calls(subject, self.NAN, self.INF)
        for at, (oid, x, y) in enumerate(reports):
            if at % 70 == 0 and hostile:
                method, args = hostile.pop()
                with pytest.raises(ValueError):
                    method(*args)
            for server in servers:
                server.receive_object_report(oid, Point(x, y), 1.0)
        assert not hostile
        for server in servers:
            server.receive_range_query_move(1, Rect(0.3, 0.3, 0.7, 0.7), 1.0)
            server.receive_knn_query_move(2, Point(0.4, 0.6), 1.0)
        got = subject.evaluate_cycle(1.0).updates
        want = reference.evaluate_cycle(1.0).updates
        assert sorted((u.qid, u.oid, u.sign) for u in got) == sorted(
            (u.qid, u.oid, u.sign) for u in want
        )
        assert len(got) > 0
        assert subject.engine.complete_answers() == reference.engine.complete_answers()
        subject.engine.check_invariants()
        assert 10 not in subject.engine.queries
