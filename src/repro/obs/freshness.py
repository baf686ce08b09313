"""Answer-freshness (staleness) tracking.

The paper's central trade is answer currency versus wakeup cost: SINA
commits positive/negative updates lazily, so the one number that says
whether the system is *correct enough* under load is how stale each
query's answer is — the gap between the motion report that changed it
and the moment the owning client provably received (and later
acknowledged) the resulting update.

The :class:`FreshnessTracker` closes that gap without touching the
update stream:

* the engine stamps every ingested motion report with the evaluation
  cycle it targets plus a monotonic timestamp (one shared tuple per
  cycle — a single dict store per report, cheap enough for the <5%
  telemetry budget);
* the server attributes each shipped update back to its object's last
  stamp at **delivery** time (``link.deliver`` accepted it) and again
  at **commit** time (the client acknowledged it on an uplink), so the
  throttled-client gap between the two — the delivered-view commit fix
  from the fault-injection work — is visible as a distribution, not an
  anecdote;
* staleness lands in registry histograms labelled by ``stage``
  (``delivery`` / ``commit``) and update ``polarity``, in both cycle
  counts and wall-clock seconds, plus bounded per-query summaries with
  exact cycle percentiles.

Updates with no report provenance (query registration fills, query
moves, recovery retractions of departed objects) are counted, not
guessed at.  Telemetry-off mode is a type: :data:`NULL_FRESHNESS`
no-ops every call, which is what the overhead benchmark gates against.
"""

from __future__ import annotations

import time
from collections import Counter
from math import ceil

from repro.obs.registry import (
    DEFAULT_SECONDS_BUCKETS,
    Histogram,
    MetricsRegistry,
)

#: Cycle-lag histogram bounds: answers are cycle-granular, most updates
#: deliver in the cycle that produced them (lag 0) and recovery lag
#: grows roughly geometrically with outage length.
FRESHNESS_CYCLE_BUCKETS: tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0,
)

STAGES = ("delivery", "commit")
POLARITIES = ("positive", "negative")

#: Distinct pending-commit stamps (one per cycle) kept per query between
#: acknowledgements: a client that never commits must not grow memory
#: without bound, and a commit has no use for finer attribution of
#: updates this old — beyond the cap the oldest stamp's counts fold into
#: the next oldest, so every update is still attributed exactly once.
_MAX_PENDING_PER_QUERY = 64


class _QuerySummary:
    """Bounded exact-cycle / bucketed-seconds staleness for one query."""

    __slots__ = ("cycle_counts", "seconds")

    def __init__(self) -> None:
        # stage -> {cycle_lag: count}; exact, so percentiles are exact.
        self.cycle_counts: dict[str, dict[int, int]] = {
            stage: {} for stage in STAGES
        }
        self.seconds: dict[str, Histogram] = {
            stage: Histogram(f"freshness_{stage}_seconds")
            for stage in STAGES
        }

    def observe(self, stage: str, cycles: int, seconds: float, n: int) -> None:
        counts = self.cycle_counts[stage]
        counts[cycles] = counts.get(cycles, 0) + n
        self.seconds[stage].observe_n(seconds, n)

    def snapshot(self) -> dict[str, object]:
        out: dict[str, object] = {}
        for stage in STAGES:
            counts = self.cycle_counts[stage]
            seconds = self.seconds[stage]
            if not counts:
                continue
            out[stage] = {
                "count": sum(counts.values()),
                "cycles": {
                    "p50": _exact_quantile(counts, 0.50),
                    "p95": _exact_quantile(counts, 0.95),
                    "p99": _exact_quantile(counts, 0.99),
                    "max": max(counts),
                },
                "seconds": {
                    "p50": seconds.quantile(0.50),
                    "p95": seconds.quantile(0.95),
                    "p99": seconds.quantile(0.99),
                    "mean": seconds.mean,
                },
            }
        return out


def _exact_quantile(counts: dict[int, int], q: float) -> int:
    """Nearest-rank quantile over exact ``{value: count}`` tallies."""
    total = sum(counts.values())
    if total == 0:
        return 0
    rank = max(1, ceil(q * total))
    running = 0
    for value in sorted(counts):
        running += counts[value]
        if running >= rank:
            return value
    return max(counts)


class FreshnessTracker:
    """Report-to-update staleness attribution for one engine/server stack.

    The engine owns the write side (:meth:`stamp_report` per buffered
    report, :meth:`end_cycle` per evaluation); the server owns the read
    side (:meth:`observe_delivered_many` per accepted downlink slice,
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
        # qid -> {stamp_cycle: [stamp_ts, positive, negative]} delivered
        # but not yet acknowledged; drained by observe_committed.  One
        # entry per distinct report stamp (one per cycle) whatever the
        # number of updates, at most _MAX_PENDING_PER_QUERY of them.
        self._pending_commit: dict[int, dict[int, list]] = {}
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

    def forget(self, oid: int) -> None:
        """Drop ``oid``'s stamp (the object left the system)."""
        self._stamps.pop(oid, None)

    def end_cycle(self) -> None:
        """One evaluation completed: advance the cycle stamp."""
        self.cycle += 1
        self._stamp = (self.cycle + 1, self._clock())
        self._m_tracked_objects.set(len(self._stamps))

    # -- read side (server) --------------------------------------------

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link accepted (see
        :meth:`observe_delivered_many`)."""
        self.observe_delivered_many((qid,), (oid,), (sign,))

    def observe_delivered_many(self, qids, oids, signs) -> None:
        """Updates the link accepted, as aligned columns; attribute
        delivery staleness and queue the stamps for commit-stage
        attribution.

        The whole slice is delivered "now" — one clock read — so lag is
        a function of the report stamp alone: the registry histograms
        take one observation per ``(stamp, sign)``, and only the
        per-query summary and the pending-commit entry are kept per
        ``(query, stamp, sign)`` group.
        """
        groups = Counter(zip(qids, map(self._stamps.get, oids), signs))
        now_ts = self._clock()
        cycle = self.cycle
        per_stamp: dict[tuple[tuple[int, float], int], int] = {}
        pending_commit = self._pending_commit
        for (qid, stamp, sign), n in groups.items():
            if stamp is None:
                self._m_unattributed.inc(n)
                continue
            key = (stamp, sign)
            per_stamp[key] = per_stamp.get(key, 0) + n
            stamp_cycle, stamp_ts = stamp
            summary = self._summary_of(qid)
            if summary is None:
                self._m_untracked.inc(n)
            else:
                summary.observe(
                    "delivery", max(0, cycle - stamp_cycle), now_ts - stamp_ts, n
                )
            pending = pending_commit.get(qid)
            if pending is None:
                pending = pending_commit[qid] = {}
            entry = pending.get(stamp_cycle)
            if entry is None:
                if len(pending) >= _MAX_PENDING_PER_QUERY:
                    self._fold_oldest(pending)
                entry = pending[stamp_cycle] = [stamp_ts, 0, 0]
            entry[1 if sign == 1 else 2] += n
        for ((stamp_cycle, stamp_ts), sign), n in per_stamp.items():
            cycles_hist, seconds_hist = self._hists[
                ("delivery", "positive" if sign == 1 else "negative")
            ]
            cycles_hist.observe_n(max(0, cycle - stamp_cycle), n)
            seconds_hist.observe_n(now_ts - stamp_ts, n)

    def _summary_of(self, qid: int) -> "_QuerySummary | None":
        """``qid``'s summary, created while the tracked set has room."""
        summary = self._per_query.get(qid)
        if summary is None and len(self._per_query) < self.max_tracked_queries:
            summary = self._per_query[qid] = _QuerySummary()
        return summary

    def _fold_oldest(self, pending: dict[int, list]) -> None:
        """Make room in a full pending map: the oldest stamp's counts
        move to the next oldest (which under-reads their commit lag by
        the cycles between the two, and loses none of them)."""
        oldest, second = sorted(pending)[:2]
        _, positive, negative = pending.pop(oldest)
        kept = pending[second]
        kept[1] += positive
        kept[2] += negative
        self._m_pending_folded.inc(positive + negative)

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
        for stamp_cycle, (stamp_ts, positive, negative) in pending.items():
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

    # -- snapshots ------------------------------------------------------

    def query_summary(self, qid: int) -> dict[str, object]:
        """Per-stage staleness percentiles for one query ({} if untracked)."""
        summary = self._per_query.get(qid)
        return summary.snapshot() if summary is not None else {}

    def stage_summary(self) -> dict[str, object]:
        """Aggregate percentiles per (stage, polarity) from the registry
        histograms — the numbers a ``/metrics`` scrape would derive."""
        out: dict[str, object] = {}
        for (stage, polarity), (cycles, seconds) in self._hists.items():
            if cycles.count == 0:
                continue
            out.setdefault(stage, {})[polarity] = {  # type: ignore[union-attr]
                "count": cycles.count,
                "cycles": {
                    "p50": cycles.quantile(0.50),
                    "p95": cycles.quantile(0.95),
                    "p99": cycles.quantile(0.99),
                    "mean": cycles.mean,
                },
                "seconds": {
                    "p50": seconds.quantile(0.50),
                    "p95": seconds.quantile(0.95),
                    "p99": seconds.quantile(0.99),
                    "mean": seconds.mean,
                },
            }
        return out

    def snapshot(self) -> dict[str, object]:
        """The whole staleness picture, JSON-ready."""
        return {
            "cycle": self.cycle,
            "tracked_objects": len(self._stamps),
            "unattributed_updates": int(self._m_unattributed.value),
            "undelivered_updates": int(self._m_undelivered.value),
            "stages": self.stage_summary(),
            "queries": {
                qid: summary.snapshot()
                for qid, summary in sorted(self._per_query.items())
            },
        }


class NullFreshnessTracker:
    """Freshness tracking off: every call is a shared no-op."""

    enabled = False
    cycle = 0

    __slots__ = ()

    def stamp_report(self, oid: int) -> None:
        pass

    def stamp_reports(self, oids) -> None:
        pass

    def forget(self, oid: int) -> None:
        pass

    def end_cycle(self) -> None:
        pass

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        pass

    def observe_delivered_many(self, qids, oids, signs) -> None:
        pass

    def observe_undelivered(self, qid: int, oid: int, sign: int) -> None:
        pass

    def observe_committed(self, qid: int) -> None:
        pass

    def forget_query(self, qid: int) -> None:
        pass

    def query_summary(self, qid: int) -> dict[str, object]:
        return {}

    def stage_summary(self) -> dict[str, object]:
        return {}

    def snapshot(self) -> dict[str, object]:
        return {}


NULL_FRESHNESS = NullFreshnessTracker()
