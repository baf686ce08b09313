"""The sampled freshness tracker against the per-run model.

A hypothesis state machine drives :class:`repro.obs.FreshnessTracker`
and :class:`~tests.obs.reference_freshness.ReferenceFreshnessTracker`
(the per-run rule, tracking every query) through the same calls under
one :class:`ManualClock`: reports stamped one by one and in runs,
departures, evaluations, delivery batches (runs mixing stamps, reports
never stamped, the stale stamps of objects that stopped reporting, one
query split over several runs), commits, unregistrations and long
stretches without a commit that take queries past the 64-stamp pending
cap, with a stale stamp or several new ones arriving at the cap.

The reference sees only the sampled queries' runs and commits: the
tracker must equal the reference restricted to its sample.  After every
step both sides agree on every bucket count and count of all eight
staleness histograms, their sums to 1e-9 relative, every counter and
gauge, every query's summary and pending stamps; the tracker's
unsampled count is the unsampled updates delivered, and every delivered
update is attributed, unattributed or unsampled exactly once.  The
machine runs at the production ``SAMPLE_BITS`` and with it patched to
0, where the sample is every query and the two trackers are equal.
The tracker commits a run of qids in one call; the reference commits
them one by one.
"""

from __future__ import annotations

import math
import random
from contextlib import nullcontext

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.obs import FreshnessTracker, MetricsRegistry
from repro.obs.freshness import _MAX_PENDING_PER_QUERY, POLARITIES, STAGES
from tests.conftest import tracking_every_query
from tests.obs.reference_freshness import ReferenceFreshnessTracker
from tests.obs.test_freshness import ManualClock

#: Whether a qid is in the production sample.
in_sample = FreshnessTracker(MetricsRegistry()).sampled
#: Query ids: int64 extremes and others the production sample leaves
#: out, and three it keeps.
QIDS = st.sampled_from(
    [-(2**63), -3, 9, 10**12, 2**63 - 1, *[q for q in range(-64, 4096) if in_sample(q)][:3]]
)
#: Object ids: 0-9 report, 90-91 never do (no stamp).
OIDS = st.sampled_from([*range(10), 90, 91, 2**63 - 1, -(2**63)])
SIGNS = st.sampled_from([1, -1])
UPDATES = st.lists(st.tuples(OIDS, SIGNS), min_size=1, max_size=5)
#: A delivery batch: query runs in order, a query possibly in several.
BATCHES = st.lists(st.tuples(QIDS, UPDATES), min_size=1, max_size=6)
#: The object a stretch without commits keeps reporting, and the one it
#: reported once at the start (a stale stamp later).
FRESH_OID, STALE_OID = 500, 501

COUNTERS = (
    "freshness_unattributed_updates_total",
    "freshness_undelivered_updates_total",
    "freshness_untracked_queries_total",
    "freshness_pending_commit_folded_total",
    "freshness_tracked_objects",
)
DELIVERY = [("freshness_staleness_cycles", {"stage": "delivery", "polarity": p}) for p in POLARITIES]


def close(a, b) -> bool:
    """Equal, floats to 1e-9 relative, recursively through dicts."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def assert_same(registries, trackers, qids, delivered: tuple[int, int]) -> None:
    """Both trackers' telemetry and state agree (see the module
    docstring); ``delivered`` is how many updates were delivered in all
    and how many of them to unsampled queries."""
    new, model = registries
    for stage in STAGES:
        for polarity in POLARITIES:
            labels = {"stage": stage, "polarity": polarity}
            for name in ("freshness_staleness_cycles", "freshness_staleness_seconds"):
                got, want = new.histogram(name, labels=labels), model.histogram(name, labels=labels)
                assert got.bucket_counts == want.bucket_counts, (name, labels)
                assert got.count == want.count, (name, labels)
                assert close(got.sum, want.sum), (name, labels, got.sum, want.sum)
    for name in COUNTERS:
        assert new.value_of(name) == model.value_of(name), name
    total, unsampled = delivered
    assert new.value_of("freshness_unsampled_updates_total") == unsampled
    attributed = sum(new.histogram(name, labels=labels).count for name, labels in DELIVERY)
    unattributed = new.value_of("freshness_unattributed_updates_total")
    assert attributed + unattributed + unsampled == total
    tracker, reference = trackers
    assert tracker.cycle == reference.cycle
    for qid in qids:
        assert close(tracker.query_summary(qid), reference.query_summary(qid)), qid
    assert tracker.pending_commit() == reference.pending_commit()
    assert tracker.report_stamps() == reference.report_stamps()
    assert tracker.snapshot()["tracked_objects"] == len(reference.report_stamps())


def columns(batch):
    """``(runs, oids, signs)`` of a drawn batch."""
    runs, oids, signs = [], [], []
    for qid, updates in batch:
        start = len(oids)
        oids += [oid for oid, _ in updates]
        signs += [sign for _, sign in updates]
        runs.append((qid, start, len(oids)))
    return runs, oids, signs


class FreshnessEquivalence(RuleBasedStateMachine):
    #: The tracker's ``SAMPLE_BITS``: None for the production value.
    bits = None

    @initialize(tracked=st.integers(1, 4))
    def build(self, tracked):
        self.clock = ManualClock()
        self.registries = MetricsRegistry(), MetricsRegistry()
        with nullcontext() if self.bits is None else tracking_every_query():
            tracker = FreshnessTracker(
                self.registries[0], clock=self.clock, max_tracked_queries=tracked
            )
        reference = ReferenceFreshnessTracker(
            self.registries[1], clock=self.clock, max_tracked_queries=tracked
        )
        self.trackers = tracker, reference
        self.qids: set[int] = set()
        self.delivered = [0, 0]

    def both(self, method: str, *args) -> None:
        for tracker in self.trackers:
            getattr(tracker, method)(*[list(a) if isinstance(a, list) else a for a in args])

    def deliver(self, batch) -> None:
        """The whole batch to the tracker, its sampled runs to the reference."""
        tracker, reference = self.trackers
        self.qids.update(qid for qid, _ in batch)
        tracker.observe_delivered_runs(*columns(batch))
        kept = [(qid, updates) for qid, updates in batch if tracker.sampled(qid)]
        if kept:
            reference.observe_delivered_runs(*columns(kept))
        self.delivered[0] += sum(len(updates) for _, updates in batch)
        self.delivered[1] += sum(len(updates) for _, updates in batch) - sum(
            len(updates) for _, updates in kept
        )

    @rule(dt=st.sampled_from([0.0, 0.25, 1.0, 3.5]))
    def advance(self, dt):
        self.clock.advance(dt)

    @rule(oid=OIDS)
    def stamp_report(self, oid):
        self.both("stamp_report", oid)

    @rule(oids=st.lists(OIDS, max_size=6))
    def stamp_reports(self, oids):
        self.both("stamp_reports", oids)

    @rule(oids=st.lists(OIDS, max_size=3))
    def forget(self, oids):
        self.both("forget", oids)

    @rule()
    def end_cycle(self):
        self.both("end_cycle")

    @rule(batch=BATCHES)
    def observe_delivered_runs(self, batch):
        self.deliver(batch)

    @rule(qid=QIDS, oid=OIDS, sign=SIGNS)
    def observe_undelivered(self, qid, oid, sign):
        self.both("observe_undelivered", qid, oid, sign)

    @rule(qid=QIDS)
    def observe_committed(self, qid):
        self.commit_run([qid])

    @rule(qids=st.lists(QIDS, max_size=6))
    def observe_committed_run(self, qids):
        """A run of commits, duplicates, qids never delivered to and
        queries whose block is already empty among them."""
        self.commit_run(qids)

    def commit_run(self, qids) -> None:
        """The tracker takes the run in one call; the reference commits
        each sampled qid in turn, every one at the same clock reading."""
        tracker, reference = self.trackers
        tracker.observe_committed(list(qids))
        for qid in filter(tracker.sampled, qids):
            reference.observe_committed(qid)

    @rule(qid=QIDS)
    def forget_query(self, qid):
        self.both("forget_query", qid)

    @rule(
        qids=st.lists(QIDS, min_size=1, max_size=3, unique=True),
        extra=st.integers(1, 4),
        tail=st.sampled_from(["none", "stale", "old", "two_new"]),
    )
    def no_commits_past_the_cap(self, qids, extra, tail):
        """Cycles of deliveries without a commit until the cap folds,
        then one batch that reaches the cap another way: a stale stamp
        (``stale``), a stamp older than the query's oldest (``old``), or
        two new stamps at once (``two_new``)."""
        self.qids.update(qids)
        self.both("stamp_report", STALE_OID)
        self.both("end_cycle")
        for _ in range(_MAX_PENDING_PER_QUERY + extra):
            self.clock.advance(0.5)
            self.both("stamp_report", FRESH_OID)
            self.both("end_cycle")
            self.deliver([(qid, [(FRESH_OID, 1), (FRESH_OID, -1)]) for qid in qids])
        if tail == "none":
            return
        self.clock.advance(0.5)
        self.both("stamp_report", FRESH_OID)
        self.both("end_cycle")
        if tail == "two_new":
            self.both("stamp_report", 7)
            self.both("end_cycle")
            updates = [(7, -1), (FRESH_OID, 1), (7, 1)]
        elif tail == "stale":
            updates = [(STALE_OID, 1), (FRESH_OID, 1)]
        else:
            updates = [(FRESH_OID, 1), (STALE_OID, -1), (STALE_OID, 1)]
        self.deliver([(qid, updates) for qid in qids])

    @invariant()
    def same_telemetry(self):
        if hasattr(self, "trackers"):
            assert_same(self.registries, self.trackers, self.qids, self.delivered)


class FullTrackingEquivalence(FreshnessEquivalence):
    bits = 0


TestFreshnessEquivalence = FreshnessEquivalence.TestCase
TestFreshnessEquivalence.settings = settings(deadline=None)
TestFullTrackingEquivalence = FullTrackingEquivalence.TestCase
TestFullTrackingEquivalence.settings = settings(deadline=None)


def test_many_queries_pack_their_blocks_in_place():
    """Hundreds of queries growing, committing and taking stale stamps
    — half of them never committing, so their pending stamps fill and
    fold — over 90 cycles, at the production sample: every sampled
    query's pending list extends, inserts stale stamps, folds at the cap
    and empties on commit at a scale the state machine does not reach.
    (The name is from the shared-table layout that packed its blocks in
    place; the load still covers every per-query pending path.)"""
    rng = random.Random(7)
    clock = ManualClock()
    registries = MetricsRegistry(), MetricsRegistry()
    tracker, reference = trackers = (
        FreshnessTracker(registries[0], clock=clock),
        ReferenceFreshnessTracker(registries[1], clock=clock),
    )
    qids = range(600)
    delivered = [0, 0]
    for cycle in range(90):
        clock.advance(0.5)
        reported = rng.sample(range(2000), 150)
        for each in trackers:
            each.stamp_reports(reported)
            each.end_cycle()
        batch = [
            (qid, [(rng.randrange(2000), rng.choice((1, -1))) for _ in range(rng.randint(1, 4))])
            for qid in [*range(300), *rng.sample(range(300, 600), 150)]
        ]
        committed = rng.sample(range(300, 600), 40)
        tracker.observe_delivered_runs(*columns(batch))
        kept = [(qid, updates) for qid, updates in batch if tracker.sampled(qid)]
        reference.observe_delivered_runs(*columns(kept))
        delivered[0] += sum(len(updates) for _, updates in batch)
        delivered[1] += sum(len(updates) for qid, updates in batch if not tracker.sampled(qid))
        tracker.observe_committed(committed)
        for qid in filter(tracker.sampled, committed):
            reference.observe_committed(qid)
    assert_same(registries, trackers, qids, delivered)
    assert registries[0].value_of("freshness_pending_commit_folded_total") > 0
    assert 0 < delivered[1] < delivered[0]
