"""The freshness tracker as a per-run reference model.

:class:`ReferenceFreshnessTracker` attributes staleness the direct way:
a dict of per-report stamp tuples, and per query a :class:`_Pending`
holding its pending-commit stamps and counts, walked run by run and
update group by update group, with the 64-stamp cap applied one ``add``
at a time, for every query.  ``tests/obs/test_freshness_equivalence.py``
holds :class:`repro.obs.FreshnessTracker`, fed the same calls, to this
model fed only the tracker's sampled queries.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left

from repro.obs.freshness import (
    _MAX_PENDING_PER_QUERY,
    FRESHNESS_CYCLE_BUCKETS,
    POLARITIES,
    STAGES,
    _QuerySummary,
)
from repro.obs.registry import DEFAULT_SECONDS_BUCKETS, Histogram, MetricsRegistry


class _Pending:
    """One query's delivered but unacknowledged updates, per distinct
    report stamp: ``stamps``, the shared per-cycle ``(cycle, ts)``
    tuples in ascending cycle order (a pointer each — the tuple is the
    one every report of that cycle carries), and ``counts``, their
    positive and negative update counts interleaved in one
    ``array('q')``.  About 24 bytes per stamp."""

    __slots__ = ("stamps", "counts")

    def __init__(self) -> None:
        self.stamps: list[tuple[int, float]] = []
        self.counts = array("q")

    def __len__(self) -> int:
        return len(self.stamps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, _Pending):
            return NotImplemented
        return self.stamps == other.stamps and self.counts == other.counts

    __hash__ = None  # type: ignore[assignment]

    def add(self, stamp: tuple[int, float], positive: int, negative: int) -> int:
        """Count updates under ``stamp``.  A new stamp past the cap
        first folds the oldest; returns how many updates that moved."""
        stamps = self.stamps
        counts = self.counts
        folded = 0
        if not stamps or stamps[-1][0] < stamp[0]:  # the usual case: a new cycle's
            if len(stamps) >= _MAX_PENDING_PER_QUERY:
                folded = self._fold_oldest()
            stamps.append(stamp)
            counts.append(positive)
            counts.append(negative)
            return folded
        at = len(stamps) - 1
        if stamps[at] is not stamp:  # an older stamp: a recovery delivery
            at = bisect_left(stamps, stamp)
            if stamps[at][0] != stamp[0]:
                if len(stamps) >= _MAX_PENDING_PER_QUERY:
                    folded = self._fold_oldest()
                    at = bisect_left(stamps, stamp)
                stamps.insert(at, stamp)
                counts[2 * at : 2 * at] = array("q", (0, 0))
        counts[2 * at] += positive
        counts[2 * at + 1] += negative
        return folded

    def _fold_oldest(self) -> int:
        """Move the oldest stamp's counts to the next oldest (which
        under-reads their commit lag by the cycles between the two, and
        loses none of them); returns how many moved."""
        counts = self.counts
        del self.stamps[0]
        positive, negative = counts[0], counts[1]
        del counts[:2]
        counts[0] += positive
        counts[1] += negative
        return positive + negative



class ReferenceFreshnessTracker:
    """The per-run tracker: report-to-update staleness attribution with
    one dict store per stamp and one :class:`_Pending` per query.

    The engine owns the write side (:meth:`stamp_report` per buffered
    report, :meth:`end_cycle` per evaluation); the server owns the read
    side (:meth:`observe_delivered_runs` per accepted downlink batch,
    :meth:`observe_committed` per acknowledged query).  Staleness of an
    update is measured against the *latest* report of its object — the
    definition of answer currency the paper's client cares about.
    """

    enabled = True

    def __init__(
        self,
        registry: MetricsRegistry,
        clock=time.monotonic,
        max_tracked_queries: int = 256,
    ):
        self._clock = clock
        self.max_tracked_queries = max_tracked_queries
        #: Completed evaluation cycles.
        self.cycle = 0
        # The shared per-cycle stamp: (cycle the next evaluation will
        # be, wall-clock at the cycle boundary).  Refreshed once per
        # cycle so stamping a report is a single dict store.
        self._stamp: tuple[int, float] = (1, clock())
        self._stamps: dict[int, tuple[int, float]] = {}
        # Objects that left the system in the running evaluation, and
        # in the one before it with that evaluation's stamp: see forget.
        self._departed: list[int] = []
        self._leaving: tuple[list[int], tuple[int, float]] = ([], self._stamp)
        # qid -> the updates delivered but not yet acknowledged, per
        # report stamp; drained by observe_committed.  One entry per
        # distinct report stamp (one per cycle) whatever the number of
        # updates, at most _MAX_PENDING_PER_QUERY of them.
        self._pending_commit: dict[int, _Pending] = {}
        self._per_query: dict[int, _QuerySummary] = {}
        self._hists: dict[tuple[str, str], tuple[Histogram, Histogram]] = {}
        for stage in STAGES:
            for polarity in POLARITIES:
                labels = {"stage": stage, "polarity": polarity}
                self._hists[(stage, polarity)] = (
                    registry.histogram(
                        "freshness_staleness_cycles",
                        buckets=FRESHNESS_CYCLE_BUCKETS,
                        labels=labels,
                    ),
                    registry.histogram(
                        "freshness_staleness_seconds",
                        buckets=DEFAULT_SECONDS_BUCKETS,
                        labels=labels,
                    ),
                )
        self._m_unattributed = registry.counter(
            "freshness_unattributed_updates_total"
        )
        self._m_undelivered = registry.counter(
            "freshness_undelivered_updates_total"
        )
        self._m_untracked = registry.counter(
            "freshness_untracked_queries_total"
        )
        self._m_tracked_objects = registry.gauge("freshness_tracked_objects")
        self._m_pending_folded = registry.counter(
            "freshness_pending_commit_folded_total"
        )

    # -- write side (engine) -------------------------------------------

    def stamp_report(self, oid: int) -> None:
        """Stamp ``oid``'s latest report with the current cycle stamp.

        Hot path: one dict store.  Last report wins, mirroring the
        engine's own last-report-wins buffering.
        """
        self._stamps[oid] = self._stamp

    def stamp_reports(self, oids) -> None:
        """:meth:`stamp_report` for a run of reports: one dict merge."""
        self._stamps.update(dict.fromkeys(oids, self._stamp))

    def forget(self, oids) -> None:
        """The objects ``oids`` left the system in the running evaluation.

        Their stamps outlive it by one evaluation — the removal's
        negative updates ship in the cycle that produced them and are
        attributed to the departure — and are dropped at the end of the
        next one, unless a re-report has stamped the object again.
        """
        self._departed.extend(oids)

    def end_cycle(self) -> None:
        """One evaluation completed: drop the stamps of the objects that
        left one evaluation ago, and advance the cycle stamp."""
        stamps = self._stamps
        leaving, stamp = self._leaving
        for oid in leaving:
            # A departure was stamped with its evaluation's shared
            # stamp; any later report carries a newer one.
            if stamps.get(oid) is stamp:
                del stamps[oid]
        self._leaving = (self._departed, self._stamp)
        self._departed = []
        self.cycle += 1
        self._stamp = (self.cycle + 1, self._clock())
        self._m_tracked_objects.set(len(self._stamps))

    # -- read side (server) --------------------------------------------

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link accepted, as a run of its own."""
        self.observe_delivered_runs([(qid, 0, 1)], [oid], [sign])

    def observe_delivered_runs(self, runs, oids, signs) -> None:
        """Updates the link accepted: aligned ``oids``/``signs`` lists
        cut into ``runs`` of one query each, ``(qid, start, stop)`` in
        delivery order.  Attribute delivery staleness and queue the
        stamps for commit-stage attribution.

        The whole batch is delivered "now" — one clock read — so lag is
        a function of the report stamp alone: the registry histograms
        take one observation per ``(stamp, sign)``.  A run is grouped by
        stamp — one group, hashing nothing per update, when the whole
        run carries one stamp (the usual case) — and each group lands
        in one per-query summary observation and one pending-commit
        entry update, positives and negatives together.
        """
        stamps = list(map(self._stamps.get, oids))
        now_ts = self._clock()
        cycle = self.cycle
        per_stamp: dict[tuple[int, float], list[int]] = {}
        pending_commit = self._pending_commit
        unattributed = untracked = 0
        for qid, start, stop in runs:
            run = stamps[start:stop]
            first = run[0]
            if run.count(first) == stop - start:
                negative = signs[start:stop].count(-1)
                groups = ((first, stop - start - negative, negative),)
            else:  # (stamp, positives, negatives), in first-appearance order
                counts: dict = {}
                for stamp, sign in zip(run, signs[start:stop]):
                    counts.setdefault(stamp, [0, 0])[sign == -1] += 1
                groups = [(stamp, *pair) for stamp, pair in counts.items()]
            summary = pending = None
            for stamp, positive, negative in groups:
                n = positive + negative
                if stamp is None:
                    unattributed += n
                    continue
                if pending is None:
                    summary = self._summary_of(qid)
                    pending = pending_commit.get(qid)
                    if pending is None:
                        pending = pending_commit[qid] = _Pending()
                totals = per_stamp.setdefault(stamp, [0, 0])
                totals[0] += positive
                totals[1] += negative
                stamp_cycle, stamp_ts = stamp
                if summary is None:
                    untracked += n
                else:
                    summary.observe(
                        "delivery", max(0, cycle - stamp_cycle), now_ts - stamp_ts, n
                    )
                folded = pending.add(stamp, positive, negative)
                if folded:
                    self._m_pending_folded.inc(folded)
        if unattributed:
            self._m_unattributed.inc(unattributed)
        if untracked:
            self._m_untracked.inc(untracked)
        hists = self._hists[("delivery", "positive")], self._hists[("delivery", "negative")]
        for (stamp_cycle, stamp_ts), totals in per_stamp.items():
            lag_cycles = max(0, cycle - stamp_cycle)
            lag_seconds = now_ts - stamp_ts
            for (cycles_hist, seconds_hist), n in zip(hists, totals):
                if n:
                    cycles_hist.observe_n(lag_cycles, n)
                    seconds_hist.observe_n(lag_seconds, n)

    def _summary_of(self, qid: int) -> "_QuerySummary | None":
        """``qid``'s summary, created while the tracked set has room."""
        summary = self._per_query.get(qid)
        if summary is None and len(self._per_query) < self.max_tracked_queries:
            summary = self._per_query[qid] = _QuerySummary()
        return summary

    def observe_undelivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link rejected (throttled, disconnected, or
        faulted away).  The stamp stays put: the recovery delivery that
        eventually lands it will be attributed with the full lag."""
        self._m_undelivered.inc()

    def observe_committed(self, qid: int) -> None:
        """The client acknowledged ``qid``; attribute commit staleness
        for every update delivered since the previous acknowledgement."""
        pending = self._pending_commit.pop(qid, None)
        if not pending:
            return
        now_ts = self._clock()
        cycle = self.cycle
        positive_hists = self._hists[("commit", "positive")]
        negative_hists = self._hists[("commit", "negative")]
        summary = self._summary_of(qid)
        counts = pending.counts
        for (stamp_cycle, stamp_ts), positive, negative in zip(
            pending.stamps, counts[0::2], counts[1::2]
        ):
            lag_cycles = max(0, cycle - stamp_cycle)
            lag_seconds = now_ts - stamp_ts
            if positive:
                positive_hists[0].observe_n(lag_cycles, positive)
                positive_hists[1].observe_n(lag_seconds, positive)
            if negative:
                negative_hists[0].observe_n(lag_cycles, negative)
                negative_hists[1].observe_n(lag_seconds, negative)
            if summary is None:
                self._m_untracked.inc(positive + negative)
            else:
                summary.observe(
                    "commit", lag_cycles, lag_seconds, positive + negative
                )

    def forget_query(self, qid: int) -> None:
        """Drop ``qid``'s pending and summary state (unregistered)."""
        self._pending_commit.pop(qid, None)
        self._per_query.pop(qid, None)

    # -- reads the equivalence test compares ---------------------------

    def pending_commit(self) -> dict[int, list[tuple[int, int, int]]]:
        """qid -> ``(stamp cycle, positives, negatives)`` per pending stamp."""
        return {
            qid: [
                (stamp[0], pending.counts[2 * i], pending.counts[2 * i + 1])
                for i, stamp in enumerate(pending.stamps)
            ]
            for qid, pending in self._pending_commit.items()
        }

    def report_stamps(self) -> dict[int, int]:
        """oid -> the stamp cycle of its latest report."""
        return {oid: stamp[0] for oid, stamp in self._stamps.items()}

    def query_summary(self, qid: int) -> dict[str, object]:
        summary = self._per_query.get(qid)
        return summary.snapshot() if summary is not None else {}
