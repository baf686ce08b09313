"""Executable versions of the paper's worked examples (Figures 1-3).

The published figures are images whose exact coordinates are not
recoverable from the text, so each scenario below reconstructs the
*described situation* with concrete coordinates and asserts the exact
update stream the paper's prose derives:

* Example I  — mixed stationary/moving objects and queries; only
  membership *changes* are reported.
* Example II — k-NN queries as circular regions: an intruder evicts the
  furthest neighbour; a departing member is replaced by the next-nearest.
* Example III — predictive queries: tuples are emitted only for objects
  whose predicted membership changed.
"""

from collections import Counter

import pytest

from repro.core import IncrementalEngine, Update
from repro.geometry import Point, Rect, Velocity


class TestFigure1RangeQueries:
    """Example I: nine objects, five range queries, snapshots T0 -> T1."""

    def build(self):
        engine = IncrementalEngine(grid_size=10)
        # Objects p1..p9 (black/stationary and white/moving in the figure).
        self.at_t0 = {
            1: Point(0.15, 0.80),  # moving
            2: Point(0.35, 0.60),  # moving
            3: Point(0.55, 0.85),  # moving
            4: Point(0.70, 0.30),  # moving
            5: Point(0.10, 0.55),  # stationary, inside Q1
            6: Point(0.45, 0.45),  # stationary, inside Q3 at T0
            7: Point(0.30, 0.15),  # stationary, inside Q2 at T0
            8: Point(0.62, 0.50),  # stationary, inside Q3 after it moves
            9: Point(0.90, 0.90),  # stationary, never matches
        }
        for oid, location in self.at_t0.items():
            engine.report_object(oid, location, 0.0)
        # Queries Q1, Q3, Q5 move at T1; Q2, Q4 are stationary.
        self.q_t0 = {
            101: Rect(0.05, 0.50, 0.20, 0.65),  # Q1: contains p5
            102: Rect(0.25, 0.10, 0.40, 0.25),  # Q2: contains p7 at T0
            103: Rect(0.40, 0.40, 0.55, 0.55),  # Q3: contains p6 at T0
            104: Rect(0.60, 0.70, 0.80, 0.85),  # Q4: empty at T0
            105: Rect(0.10, 0.75, 0.25, 0.90),  # Q5: contains p1 at T0
        }
        for qid, region in self.q_t0.items():
            engine.register_range_query(qid, region, 0.0)
        return engine

    def test_t0_first_time_answers(self):
        engine = self.build()
        updates = engine.evaluate(0.0)
        assert Counter(updates) == Counter([
            Update.positive(101, 5),
            Update.positive(102, 7),
            Update.positive(103, 6),
            Update.positive(105, 1),
        ])

    def test_t1_incremental_updates(self):
        engine = self.build()
        engine.evaluate(0.0)

        # T1: objects p1..p4 move; queries Q1, Q3, Q5 move.
        engine.report_object(1, Point(0.15, 0.60), 1.0)  # into moved Q1
        engine.report_object(2, Point(0.30, 0.17), 1.0)  # into Q2
        engine.report_object(3, Point(0.65, 0.75), 1.0)  # into Q4
        engine.report_object(4, Point(0.72, 0.32), 1.0)  # still nowhere
        engine.move_range_query(101, Rect(0.08, 0.53, 0.23, 0.68), 1.0)
        engine.move_range_query(103, Rect(0.55, 0.42, 0.70, 0.57), 1.0)
        engine.move_range_query(105, Rect(0.30, 0.75, 0.45, 0.90), 1.0)

        updates = engine.evaluate(1.0)
        assert Counter(updates) == Counter([
            Update.positive(101, 1),  # p1 moved into Q1's new region
            Update.positive(102, 2),  # p2 moved into stationary Q2
            Update.negative(103, 6),  # Q3 moved away from p6 ...
            Update.positive(103, 8),  # ... onto p8
            Update.positive(104, 3),  # p3 moved into stationary Q4
            Update.negative(105, 1),  # Q5 moved away from p1
        ])
        # p5 stayed inside Q1 across its small move: correctly silent.
        assert engine.answer_of(101) == frozenset({1, 5})
        # p4 and p9 never matched anything: correctly absent everywhere.
        for qid in engine.queries:
            assert engine.answer_of(qid).isdisjoint({4, 9}), qid

    def test_t1_query_moving_with_its_object_reports_nothing(self):
        """Q5 rides along with p1: both shift right by 0.2.  Answered
        over p1's old position Q5 would lose p1, and regain it after
        p1's report; the evaluation's net change is nothing, so nothing
        is emitted."""
        engine = self.build()
        engine.evaluate(0.0)

        engine.report_object(1, Point(0.35, 0.80), 1.0)
        engine.move_range_query(105, Rect(0.30, 0.75, 0.45, 0.90), 1.0)

        assert engine.evaluate(1.0) == []
        assert engine.answer_of(105) == frozenset({1})


class TestFigure2KnnQueries:
    """Example II: two 3-NN queries, object moves reshape the circles."""

    def build(self):
        engine = IncrementalEngine(grid_size=10)
        self.locations = {
            1: Point(0.20, 0.50),
            2: Point(0.25, 0.55),
            3: Point(0.28, 0.45),
            4: Point(0.45, 0.50),  # just outside Q1's initial circle
            5: Point(0.75, 0.50),
            6: Point(0.80, 0.55),
            7: Point(0.83, 0.45),
            8: Point(0.90, 0.50),  # next-nearest to Q2 after p7
        }
        for oid, location in self.locations.items():
            engine.report_object(oid, location, 0.0)
        engine.register_knn_query(201, Point(0.25, 0.50), k=3, t=0.0)
        engine.register_knn_query(202, Point(0.80, 0.50), k=3, t=0.0)
        return engine

    def test_t0_first_time_answers(self):
        engine = self.build()
        engine.evaluate(0.0)
        assert engine.answer_of(201) == frozenset({1, 2, 3})
        assert engine.answer_of(202) == frozenset({5, 6, 7})

    def test_t1_intruder_and_departure(self):
        engine = self.build()
        engine.evaluate(0.0)

        # p4 intrudes into Q1's circle; p7 departs from Q2's.
        engine.report_object(4, Point(0.24, 0.51), 1.0)
        engine.report_object(7, Point(0.83, 0.05), 1.0)
        updates = engine.evaluate(1.0)

        # Q1: the furthest neighbour (p3 at distance ~0.058) is evicted.
        assert Update.negative(201, 3) in updates
        assert Update.positive(201, 4) in updates
        # Q2: p8 becomes nearer than the departed p7.
        assert Update.negative(202, 7) in updates
        assert Update.positive(202, 8) in updates
        assert len(updates) == 4

        assert engine.answer_of(201) == frozenset({1, 2, 4})
        assert engine.answer_of(202) == frozenset({5, 6, 8})

    def test_circle_radius_tracks_kth_neighbour(self):
        engine = self.build()
        engine.evaluate(0.0)
        q1 = engine.queries[201]
        expected = max(
            self.locations[oid].distance_to(Point(0.25, 0.50))
            for oid in (1, 2, 3)
        )
        assert q1.radius == pytest.approx(expected)


class TestFigure3PredictiveQueries:
    """Example III: five predictive objects, a query about the future."""

    def build(self):
        engine = IncrementalEngine(grid_size=10, prediction_horizon=100.0)
        # Region of interest; horizon T = 40 seconds ahead.
        self.region = Rect(0.45, 0.45, 0.55, 0.55)
        # p1 and p2 will cross the region within the horizon.
        engine.report_object(1, Point(0.20, 0.50), 0.0, Velocity(0.010, 0.0))
        engine.report_object(2, Point(0.50, 0.20), 0.0, Velocity(0.0, 0.010))
        # p3 moves parallel to the region, missing it.
        engine.report_object(3, Point(0.20, 0.80), 0.0, Velocity(0.010, 0.0))
        # p4 heads for the region but is too slow for the horizon.
        engine.report_object(4, Point(0.05, 0.50), 0.0, Velocity(0.002, 0.0))
        # p5 sits still outside the region.
        engine.report_object(5, Point(0.70, 0.70), 0.0)
        engine.register_predictive_query(301, self.region, horizon=40.0, t=0.0)
        return engine

    def test_t0_answer_is_p1_p2(self):
        engine = self.build()
        updates = engine.evaluate(0.0)
        assert set(updates) == {Update.positive(301, 1), Update.positive(301, 2)}

    def test_t1_only_changed_predictions_produce_tuples(self):
        engine = self.build()
        engine.evaluate(0.0)

        # T1 = 10: p1 keeps course (no tuple despite reporting), p2 veers
        # away (negative), p3 turns toward the region (positive).
        engine.report_object(1, Point(0.30, 0.50), 10.0, Velocity(0.010, 0.0))
        engine.report_object(2, Point(0.50, 0.30), 10.0, Velocity(0.010, 0.0))
        engine.report_object(3, Point(0.30, 0.80), 10.0, Velocity(0.006, -0.009))
        updates = engine.evaluate(10.0)
        assert set(updates) == {
            Update.negative(301, 2),
            Update.positive(301, 3),
        }
        assert engine.answer_of(301) == frozenset({1, 3})
