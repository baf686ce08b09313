"""Object/query lifecycle: removal, unregistration, id management."""

import pytest

from repro.core import IncrementalEngine, Update
from repro.geometry import Point, Rect


@pytest.fixture
def engine():
    return IncrementalEngine(grid_size=8)


class TestObjectRemoval:
    def test_removal_emits_negatives_for_all_memberships(self, engine):
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.register_range_query(200, Rect(0.4, 0.4, 0.7, 0.7))
        engine.evaluate(0.0)
        engine.remove_object(1)
        updates = engine.evaluate(1.0)
        assert set(updates) == {Update.negative(100, 1), Update.negative(200, 1)}
        assert engine.object_count == 0

    def test_removal_of_nonmember_is_silent(self, engine):
        engine.report_object(1, Point(0.1, 0.1), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.evaluate(0.0)
        engine.remove_object(1)
        assert engine.evaluate(1.0) == []

    def test_removal_of_unknown_object_raises_keyerror_naming_id(self, engine):
        with pytest.raises(KeyError, match="999"):
            engine.remove_object(999)
        # Nothing was buffered by the failed call.
        assert engine.evaluate(0.0) == []

    def test_removal_of_pending_report_same_batch_is_allowed(self, engine):
        engine.report_object(7, Point(0.1, 0.1), 0.0)
        engine.remove_object(7)
        assert engine.evaluate(0.0) == []
        assert engine.object_count == 0

    def test_report_then_remove_in_same_batch(self, engine):
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.remove_object(1)
        assert engine.evaluate(0.0) == []
        assert engine.object_count == 0

    def test_remove_then_report_in_same_batch(self, engine):
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.evaluate(0.0)
        engine.remove_object(1)
        engine.report_object(1, Point(0.56, 0.56), 1.0)
        assert engine.evaluate(1.0) == []  # object survives, still inside
        assert engine.object_count == 1


class TestQueryLifecycle:
    def test_unregistration_stops_updates(self, engine):
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.evaluate(0.0)
        engine.unregister_query(100)
        engine.report_object(1, Point(0.1, 0.1), 1.0)
        assert engine.evaluate(1.0) == []
        assert engine.query_count == 0

    def test_duplicate_qid_rejected(self, engine):
        engine.register_range_query(100, Rect(0, 0, 1, 1))
        with pytest.raises(KeyError):
            engine.register_range_query(100, Rect(0, 0, 0.5, 0.5))
        engine.evaluate(0.0)
        with pytest.raises(KeyError):
            engine.register_knn_query(100, Point(0, 0), 1)

    def test_unregister_unknown_query_raises_keyerror_naming_id(self, engine):
        with pytest.raises(KeyError, match="999"):
            engine.unregister_query(999)
        # Nothing was buffered by the failed call.
        assert engine.evaluate(0.0) == []

    def test_unregister_pending_registration_same_batch_is_allowed(self, engine):
        engine.register_range_query(100, Rect(0, 0, 1, 1))
        engine.unregister_query(100)
        assert engine.evaluate(0.0) == []
        assert engine.query_count == 0

    def test_reregister_after_unregister(self, engine):
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.evaluate(0.0)
        engine.unregister_query(100)
        engine.evaluate(1.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        updates = engine.evaluate(2.0)
        assert updates == [Update.positive(100, 1)]

    def test_mixed_kinds_coexist(self, engine):
        engine.report_object(1, Point(0.55, 0.55), 0.0)
        engine.register_range_query(100, Rect(0.5, 0.5, 0.6, 0.6))
        engine.register_knn_query(200, Point(0.5, 0.5), 1)
        engine.register_predictive_query(300, Rect(0.5, 0.5, 0.6, 0.6), 30.0)
        engine.evaluate(0.0)
        assert engine.answer_of(100) == frozenset({1})
        assert engine.answer_of(200) == frozenset({1})
        assert engine.answer_of(300) == frozenset({1})
        engine.check_invariants()


class TestIntrospection:
    def test_counts(self, engine):
        engine.report_object(1, Point(0.5, 0.5), 0.0)
        engine.report_object(2, Point(0.6, 0.6), 0.0)
        engine.register_range_query(100, Rect(0, 0, 1, 1))
        engine.evaluate(0.0)
        assert engine.object_count == 2
        assert engine.query_count == 1

    def test_complete_answers(self, engine):
        engine.report_object(1, Point(0.5, 0.5), 0.0)
        engine.register_range_query(100, Rect(0, 0, 1, 1))
        engine.register_range_query(200, Rect(0.9, 0.9, 1, 1))
        engine.evaluate(0.0)
        assert engine.complete_answers() == {
            100: frozenset({1}),
            200: frozenset(),
        }

    def test_answer_of_unknown_query_raises(self, engine):
        with pytest.raises(KeyError):
            engine.answer_of(12345)
