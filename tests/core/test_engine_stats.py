"""Engine work counters and per-phase wall-clock timings."""

from repro.core import IncrementalEngine
from repro.core.engine import EVALUATION_PHASES, EngineStats
from repro.geometry import Point, Rect


def test_fresh_engine_has_zero_stats():
    engine = IncrementalEngine(grid_size=8)
    assert engine.stats == EngineStats()


def test_counters_track_one_busy_evaluation():
    engine = IncrementalEngine(grid_size=8)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.report_object(2, Point(0.6, 0.6), 0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.7, 0.7))
    engine.register_knn_query(200, Point(0.5, 0.5), 1)
    engine.evaluate(0.0)

    assert engine.stats.evaluations == 1
    assert engine.stats.object_reports == 2
    assert engine.stats.query_registrations == 2
    assert engine.stats.knn_repairs == 1  # first-time k-NN solve
    assert engine.stats.updates_emitted == 3  # 2 range positives + 1 knn


def test_counters_accumulate_across_evaluations():
    engine = IncrementalEngine(grid_size=8)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.evaluate(0.0)
    engine.move_range_query(100, Rect(0.1, 0.1, 0.2, 0.2), 1.0)
    engine.remove_object(1)
    engine.evaluate(1.0)
    engine.unregister_query(100)
    engine.evaluate(2.0)

    assert engine.stats.evaluations == 3
    assert engine.stats.query_moves == 1
    assert engine.stats.object_removals == 1
    assert engine.stats.query_unregistrations == 1


def test_quiet_evaluations_only_bump_the_evaluation_count():
    engine = IncrementalEngine(grid_size=8)
    engine.evaluate(0.0)
    engine.evaluate(1.0)
    assert engine.stats.evaluations == 2
    assert engine.stats.updates_emitted == 0
    assert engine.stats.knn_repairs == 0


def test_scripted_multi_batch_scenario_counts_everything():
    """Counters across a scripted three-batch life cycle."""
    engine = IncrementalEngine(grid_size=8)
    # Batch 1: population + a query of each kind.
    for oid in range(6):
        engine.report_object(oid, Point(0.1 + 0.1 * oid, 0.5), 0.0)
    engine.register_range_query(100, Rect(0.0, 0.4, 0.35, 0.6))
    engine.register_knn_query(200, Point(0.2, 0.5), 2)
    engine.register_predictive_query(300, Rect(0.5, 0.4, 0.9, 0.6), 10.0)
    engine.evaluate(0.0)
    # Batch 2: moves on both sides plus a departure.
    engine.report_object(0, Point(0.9, 0.9), 1.0)
    engine.move_range_query(100, Rect(0.5, 0.4, 0.95, 0.6), 1.0)
    engine.remove_object(5)
    engine.evaluate(1.0)
    # Batch 3: tear-down.
    engine.unregister_query(200)
    engine.evaluate(2.0)

    stats = engine.stats
    assert stats.evaluations == 3
    assert stats.object_reports == 7
    assert stats.object_removals == 1
    assert stats.query_registrations == 3
    assert stats.query_moves == 1
    assert stats.query_unregistrations == 1
    assert stats.knn_repairs >= 1


def test_last_report_wins_within_a_batch():
    """A device reporting twice in one period supersedes itself: the
    batch applies (and counts) only the last buffered report."""
    engine = IncrementalEngine(grid_size=8)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.evaluate(0.0)

    engine.report_object(1, Point(0.5, 0.5), 1.0)  # inside the region...
    engine.report_object(1, Point(0.9, 0.9), 1.0)  # ...superseded: outside
    updates = engine.evaluate(1.0)

    assert engine.stats.object_reports == 1
    assert updates == []
    assert engine.answer_of(100) == frozenset()
    assert engine.objects[1].location == Point(0.9, 0.9)


def test_phase_seconds_cover_every_evaluation_phase():
    engine = IncrementalEngine(grid_size=8)
    assert engine.stats.phase_seconds == {}
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.register_range_query(100, Rect(0.4, 0.4, 0.6, 0.6))
    engine.evaluate(0.0)

    assert set(engine.stats.phase_seconds) == set(EVALUATION_PHASES)
    assert all(t >= 0.0 for t in engine.stats.phase_seconds.values())


def test_phase_seconds_accumulate_across_evaluations():
    engine = IncrementalEngine(grid_size=8)
    engine.report_object(1, Point(0.5, 0.5), 0.0)
    engine.evaluate(0.0)
    first = dict(engine.stats.phase_seconds)
    engine.report_object(1, Point(0.6, 0.6), 1.0)
    engine.evaluate(1.0)
    second = engine.stats.phase_seconds
    assert set(second) == set(EVALUATION_PHASES)
    for name, seconds in second.items():
        assert seconds >= first[name]


def test_knn_repairs_count_only_dirty_queries():
    engine = IncrementalEngine(grid_size=8)
    for oid in range(4):
        engine.report_object(oid, Point(0.1 + 0.05 * oid, 0.5), 0.0)
    engine.register_knn_query(200, Point(0.1, 0.5), 2)
    engine.evaluate(0.0)
    repairs_after_setup = engine.stats.knn_repairs
    # An object far from the circle moves: no repair needed.
    engine.report_object(3, Point(0.9, 0.9), 1.0)
    engine.evaluate(1.0)
    assert engine.stats.knn_repairs == repairs_after_setup
