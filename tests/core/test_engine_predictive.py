"""Predictive range query processing."""

import pytest

from repro.core import IncrementalEngine, Update
from repro.geometry import Point, Rect, Velocity


@pytest.fixture
def engine():
    return IncrementalEngine(grid_size=8, prediction_horizon=100.0)


REGION = Rect(0.4, 0.4, 0.5, 0.5)


class TestMembership:
    def test_object_heading_into_region(self, engine):
        # Reaches x=0.4 at t=30, inside a 50 s horizon.
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.01, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        updates = engine.evaluate(0.0)
        assert updates == [Update.positive(100, 1)]

    def test_object_too_slow_for_horizon(self, engine):
        # Reaches x=0.4 at t=60 > 50 s horizon.
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.005, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        assert engine.evaluate(0.0) == []

    def test_object_heading_away(self, engine):
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(-0.01, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        assert engine.evaluate(0.0) == []

    def test_stationary_object_inside_region(self, engine):
        engine.report_object(1, Point(0.45, 0.45), 0.0)
        engine.register_predictive_query(100, REGION, horizon=50.0)
        assert engine.evaluate(0.0) == [Update.positive(100, 1)]

    def test_stationary_object_outside_region(self, engine):
        engine.report_object(1, Point(0.2, 0.2), 0.0)
        engine.register_predictive_query(100, REGION, horizon=50.0)
        assert engine.evaluate(0.0) == []


class TestWindowDrift:
    def test_object_enters_answer_as_window_slides(self, engine):
        # Reaches region at t=60; enters the 50 s window at t=10.
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.005, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        assert engine.evaluate(0.0) == []
        assert engine.evaluate(5.0) == []
        assert engine.evaluate(15.0) == [Update.positive(100, 1)]

    def test_object_leaves_answer_after_passing_through(self, engine):
        # Crosses the region during t in [30, 40], then exits.
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.01, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.evaluate(0.0)
        assert engine.answer_of(100) == frozenset({1})
        # At t=45 the object is at x=0.55, beyond the region, moving away.
        assert engine.evaluate(45.0) == [Update.negative(100, 1)]


class TestUpdatesAndMoves:
    def test_velocity_change_updates_answer(self, engine):
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.01, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.evaluate(0.0)
        # The object turns around.
        engine.report_object(1, Point(0.15, 0.45), 5.0, Velocity(-0.01, 0.0))
        assert engine.evaluate(5.0) == [Update.negative(100, 1)]

    def test_example_iii_shape(self, engine):
        """Example III: only changed predictions produce tuples."""
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.01, 0.0))
        engine.report_object(2, Point(0.45, 0.1), 0.0, Velocity(0.0, 0.01))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.evaluate(0.0)
        assert engine.answer_of(100) == frozenset({1, 2})
        # Object 1 keeps its course (re-reports consistent data): silent.
        # Object 2 veers off: negative update.
        engine.report_object(1, Point(0.15, 0.45), 5.0, Velocity(0.01, 0.0))
        engine.report_object(2, Point(0.45, 0.15), 5.0, Velocity(0.01, 0.0))
        updates = engine.evaluate(5.0)
        assert updates == [Update.negative(100, 2)]

    def test_moving_predictive_query(self, engine):
        engine.report_object(1, Point(0.45, 0.45), 0.0)
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.evaluate(0.0)
        engine.move_predictive_query(100, Rect(0.8, 0.8, 0.9, 0.9), 1.0)
        assert engine.evaluate(1.0) == [Update.negative(100, 1)]


class TestEdges:
    def test_object_drifting_off_world_keeps_a_home_cell(self, engine):
        """Regression: a predictive object whose whole predicted
        trajectory lies outside the world must clamp to a border cell
        instead of crashing with an empty footprint."""
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.report_object(1, Point(0.99, 0.5), 0.0, Velocity(0.01, 0.0))
        engine.evaluate(0.0)
        engine.report_object(1, Point(1.5, 0.5), 60.0, Velocity(0.01, 0.0))
        engine.evaluate(60.0)  # must not raise
        engine.check_invariants()
        assert engine.answer_of(100) == frozenset()

    def test_report_after_long_silence_still_valid(self, engine):
        engine.report_object(1, Point(0.1, 0.45), 0.0, Velocity(0.01, 0.0))
        engine.register_predictive_query(100, REGION, horizon=50.0)
        engine.evaluate(0.0)
        # No report for 90 s: the trusted extrapolation span has run out,
        # so the window clamps empty and membership drops.
        updates = engine.evaluate(150.0)
        assert updates == [Update.negative(100, 1)]


class TestValidation:
    def test_horizon_must_fit_prediction_horizon(self, engine):
        with pytest.raises(ValueError):
            engine.register_predictive_query(100, REGION, horizon=1000.0)
        with pytest.raises(ValueError):
            engine.register_predictive_query(101, REGION, horizon=0.0)


class TestFootprintIsPlacementOnly:
    """A report is one *home-cell* transition; a predictive object's
    swept footprint is never a join key.  Neither may cost a predictive
    or a range update."""

    def test_footprint_entering_a_query_cell_refreshes_that_query(self):
        engine = IncrementalEngine(grid_size=8, prediction_horizon=100.0)
        # Query cells: columns 4-5 of row 1.  The object sits (and
        # stays) in column 0 of that row, five cells away.
        engine.register_predictive_query(100, Rect(0.6, 0.15, 0.7, 0.2), 50.0)
        engine.report_object(1, Point(0.1, 0.18), 0.0)
        assert engine.evaluate(0.0) == []
        # Same home cell, but now moving: reaches x=0.6 at t=26, so the
        # swept footprint — not the home cell — enters the query's cells.
        engine.report_object(1, Point(0.1, 0.18), 1.0, Velocity(0.02, 0.0))
        assert engine.evaluate(1.0) == [Update.positive(100, 1)]
        home = engine.grid.cell_of(Point(0.1, 0.18))
        col_lo, col_hi, row_lo, row_hi = engine._columnar_evaluator.footprints(
            [engine._qstore.row_of(100)]
        )[:, 0].tolist()
        assert (col_lo, col_hi, row_lo, row_hi) == (4, 5, 1, 1)
        assert not col_lo <= home % 8 <= col_hi
        engine.check_invariants()

    def test_crossing_a_range_edge_inside_the_home_cell_emits_one_negative(self):
        engine = IncrementalEngine(grid_size=8, prediction_horizon=100.0)
        engine.register_range_query(7, Rect(0.0, 0.0, 0.05, 0.05))
        # A second query over the swept cells that never holds the point.
        engine.register_range_query(8, Rect(0.3, 0.0, 0.6, 0.1))
        engine.report_object(1, Point(0.04, 0.04), 0.0, Velocity(0.004, 0.0))
        assert engine.evaluate(0.0) == [Update.positive(7, 1)]
        # Still in cell 0 (cells are 0.125 wide), now past the edge.
        engine.report_object(1, Point(0.06, 0.04), 1.0, Velocity(0.004, 0.0))
        assert engine.evaluate(1.0) == [Update.negative(7, 1)]
        engine.check_invariants()
