"""Freshness tracking: stamp/attribution cycle math, stage split,
per-query summaries, bounds, and the null object."""

import pytest

from repro.obs import (
    NULL_FRESHNESS,
    FreshnessTracker,
    MetricsRegistry,
    prometheus_text,
)
from repro.obs.freshness import _MAX_PENDING_PER_QUERY, _exact_quantile

pytestmark = pytest.mark.usefixtures("full_tracking")


class ManualClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def make_tracker(**kwargs):
    registry = MetricsRegistry()
    clock = ManualClock()
    tracker = FreshnessTracker(registry, clock=clock, **kwargs)
    return tracker, registry, clock


def hist(registry, name, stage, polarity):
    return registry.histogram(
        name, labels={"stage": stage, "polarity": polarity}
    )


class TestDeliveryStaleness:
    def test_same_cycle_delivery_has_zero_lag(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()  # the evaluation that consumed the report
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.count == 1
        assert cycles.sum == 0.0

    def test_throttled_redelivery_shows_cycle_lag(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        # Three more evaluations pass before a wakeup re-sends it.
        tracker.end_cycle()
        tracker.end_cycle()
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.sum == 3.0

    def test_wall_clock_lag_uses_stamp_time(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        clock.advance(2.5)
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        seconds = hist(
            registry, "freshness_staleness_seconds", "delivery", "positive"
        )
        assert seconds.sum == 2.5

    def test_restamp_resets_staleness(self):
        """A newer report supersedes the old stamp: staleness is always
        measured against the *latest* report of the object."""
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.end_cycle()
        tracker.stamp_report(7)  # fresh report, stamps cycle 3
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.sum == 0.0

    def test_polarity_split(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.observe_delivered(qid=1, oid=7, sign=-1)
        pos = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        neg = hist(
            registry, "freshness_staleness_cycles", "delivery", "negative"
        )
        assert pos.count == 1
        assert neg.count == 1

    def test_unattributed_update_counted_not_guessed(self):
        tracker, registry, clock = make_tracker()
        tracker.observe_delivered(qid=1, oid=99, sign=1)
        assert registry.counter("freshness_unattributed_updates_total").value == 1
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.count == 0

    def test_undelivered_keeps_stamp_for_recovery(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_undelivered(qid=1, oid=7, sign=1)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        assert registry.counter("freshness_undelivered_updates_total").value == 1
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.sum == 1.0  # the recovery shows the real lag

    def test_forget_drops_stamp(self):
        """A departed object's stamp outlives the evaluation that
        removed it — its negatives ship and are attributed in that
        cycle — and is dropped at the end of the next one."""
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.forget([7])
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=-1)
        assert registry.counter("freshness_unattributed_updates_total").value == 0
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=-1)
        assert registry.counter("freshness_unattributed_updates_total").value == 1

    def test_a_report_after_the_departure_keeps_its_new_stamp(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_reports([7, 8])
        tracker.forget([7, 8])
        tracker.end_cycle()
        tracker.stamp_report(8)  # back before the drop
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=8, sign=1)
        assert registry.counter("freshness_unattributed_updates_total").value == 0
        assert tracker.snapshot()["tracked_objects"] == 1


class TestCommitStaleness:
    def test_commit_lag_exceeds_delivery_lag_when_ack_is_late(self):
        """The delivered-view commit gap: a client that acknowledges
        cycles later shows commit staleness the delivery stage lacks."""
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)  # delivery lag 0
        tracker.end_cycle()
        tracker.end_cycle()
        clock.advance(4.0)
        tracker.observe_committed([1])  # commit lag 2 cycles, 4 seconds
        d = hist(registry, "freshness_staleness_cycles", "delivery", "positive")
        c = hist(registry, "freshness_staleness_cycles", "commit", "positive")
        assert d.sum == 0.0
        assert c.sum == 2.0
        c_secs = hist(
            registry, "freshness_staleness_seconds", "commit", "positive"
        )
        assert c_secs.sum == 4.0

    def test_commit_drains_pending_once(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.observe_committed([1])
        tracker.observe_committed([1])  # nothing pending; must be a no-op
        c = hist(registry, "freshness_staleness_cycles", "commit", "positive")
        assert c.count == 1

    def test_pending_commit_is_bounded(self):
        """Pending entries aggregate per report stamp: the bound is on
        distinct stamps, and a stamp pushed out folds its updates into
        the oldest one kept — none is lost."""
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        # Any number of same-stamp deliveries share one pending entry.
        for _ in range(_MAX_PENDING_PER_QUERY + 10):
            tracker.observe_delivered(qid=1, oid=7, sign=1)
        folded = registry.counter("freshness_pending_commit_folded_total")
        assert len(tracker.pending_commit()[1]) == 1
        assert folded.value == 0
        # A client that never commits: one new stamp per cycle, two
        # updates each, until the oldest entries must make room.
        for _ in range(_MAX_PENDING_PER_QUERY + 9):
            clock.advance(1.0)
            tracker.stamp_report(7)
            tracker.end_cycle()
            tracker.observe_delivered_runs([(1, 0, 2)], [7, 7], [1, -1])
        assert len(tracker.pending_commit()[1]) == _MAX_PENDING_PER_QUERY
        assert folded.value > 0
        tracker.observe_committed([1])
        delivered = (_MAX_PENDING_PER_QUERY + 10) + (_MAX_PENDING_PER_QUERY + 9)
        c = hist(registry, "freshness_staleness_cycles", "commit", "positive")
        assert c.count == delivered
        c = hist(registry, "freshness_staleness_cycles", "commit", "negative")
        assert c.count == _MAX_PENDING_PER_QUERY + 9

    def test_a_client_that_never_commits_costs_a_bounded_map(self):
        """10k delivery cycles without a commit: at most the cap's
        entries per query, and the commit after them attributes every
        update exactly once, per polarity."""
        tracker, registry, clock = make_tracker()
        cycles = 10_000
        for cycle in range(cycles):
            clock.advance(1.0)
            tracker.stamp_report(7)
            tracker.stamp_report(8)
            tracker.end_cycle()
            tracker.observe_delivered_runs(
                [(1, 0, 2), (2, 2, 4)], [7, 8, 7, 8], [1, -1, 1, 1]
            )
            if cycle % 1000 == 0:
                for pending in tracker.pending_commit().values():
                    assert len(pending) <= _MAX_PENDING_PER_QUERY
        for pending in tracker.pending_commit().values():
            assert len(pending) <= _MAX_PENDING_PER_QUERY
        tracker.observe_committed([1])
        tracker.observe_committed([2])
        assert not tracker.pending_commit()
        positive = hist(registry, "freshness_staleness_cycles", "commit", "positive")
        negative = hist(registry, "freshness_staleness_cycles", "commit", "negative")
        assert positive.count == 3 * cycles
        assert negative.count == cycles
        # Folding moves an update to a newer stamp, never an older one:
        # no commit lag exceeds the run's length.
        assert positive.sum <= 3 * cycles * cycles
        summary = tracker.query_summary(1)["commit"]
        assert summary["count"] == 2 * cycles

    def test_forget_query_drops_pending(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.forget_query(1)
        tracker.observe_committed([1])
        c = hist(registry, "freshness_staleness_cycles", "commit", "positive")
        assert c.count == 0


class TestSummaries:
    def test_exact_quantile_nearest_rank(self):
        counts = {0: 50, 1: 30, 5: 15, 13: 5}
        assert _exact_quantile(counts, 0.50) == 0
        assert _exact_quantile(counts, 0.95) == 5
        assert _exact_quantile(counts, 0.99) == 13
        assert _exact_quantile({}, 0.5) == 0

    def test_query_summary_percentiles(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        for _ in range(99):
            tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.end_cycle()  # the hundredth delivery lags a cycle
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        summary = tracker.query_summary(1)
        assert summary["delivery"]["count"] == 100
        assert summary["delivery"]["cycles"]["p50"] == 0
        assert summary["delivery"]["cycles"]["p99"] == 0
        assert summary["delivery"]["cycles"]["max"] == 1
        assert tracker.query_summary(999) == {}

    def test_per_query_tracking_is_bounded(self):
        tracker, registry, clock = make_tracker(max_tracked_queries=2)
        tracker.stamp_report(7)
        tracker.end_cycle()
        for qid in (1, 2, 3):
            tracker.observe_delivered(qid=qid, oid=7, sign=1)
        assert tracker.query_summary(1) != {}
        assert tracker.query_summary(2) != {}
        assert tracker.query_summary(3) == {}
        assert registry.counter("freshness_untracked_queries_total").value == 1
        # The aggregate histograms still saw all three.
        cycles = hist(
            registry, "freshness_staleness_cycles", "delivery", "positive"
        )
        assert cycles.count == 3

    def test_stage_summary_and_snapshot_shapes(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.observe_committed([1])
        stages = tracker.stage_summary()
        assert set(stages) == {"delivery", "commit"}
        assert stages["delivery"]["positive"]["count"] == 1
        snapshot = tracker.snapshot()
        assert snapshot["cycle"] == 1
        assert snapshot["tracked_objects"] == 1
        assert 1 in snapshot["queries"]

    def test_snapshot_is_json_ready(self):
        import json

        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        tracker.observe_committed([1])
        json.dumps(tracker.snapshot())


class TestExportRoundTrip:
    def test_freshness_series_in_prometheus_text(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=1)
        text = prometheus_text(registry)
        assert "# TYPE freshness_staleness_cycles histogram" in text
        assert (
            'freshness_staleness_cycles_bucket{polarity="positive",'
            'stage="delivery",le="0.0"} 1' in text
        )
        assert "# TYPE freshness_tracked_objects gauge" in text

    def test_freshness_series_in_registry_dict(self):
        tracker, registry, clock = make_tracker()
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered(qid=1, oid=7, sign=-1)
        data = registry.to_dict()
        family = data["freshness_staleness_cycles"]
        assert family["type"] == "histogram"
        series = next(
            s
            for s in family["series"]
            if s["labels"] == {"stage": "delivery", "polarity": "negative"}
        )
        assert series["count"] == 1


class TestNullTracker:
    def test_null_tracker_noops(self):
        NULL_FRESHNESS.stamp_report(1)
        NULL_FRESHNESS.forget(1)
        NULL_FRESHNESS.end_cycle()
        NULL_FRESHNESS.observe_delivered(1, 2, 1)
        NULL_FRESHNESS.observe_undelivered(1, 2, 1)
        NULL_FRESHNESS.observe_committed([1])
        NULL_FRESHNESS.forget_query(1)
        assert NULL_FRESHNESS.enabled is False
        assert NULL_FRESHNESS.cycle == 0
        assert NULL_FRESHNESS.snapshot() == {}
        assert NULL_FRESHNESS.stage_summary() == {}
        assert NULL_FRESHNESS.query_summary(1) == {}

    def test_a_tracker_on_the_null_registry_records_nothing(self):
        """A real tracker handed the no-op registry runs every path —
        commits count into histograms that drop what they are given."""
        from repro.obs import NULL_REGISTRY

        tracker = FreshnessTracker(NULL_REGISTRY, clock=ManualClock())
        tracker.stamp_report(7)
        tracker.end_cycle()
        tracker.observe_delivered_runs([(1, 0, 2)], [7, 8], [1, -1])
        tracker.end_cycle()
        tracker.observe_committed([1])
        assert tracker.pending_commit() == {}
        assert NULL_REGISTRY.to_dict() == {}
