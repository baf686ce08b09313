"""Answer-freshness (staleness) tracking over a fixed sample of queries.

SINA commits updates lazily, so whether the system is *correct enough*
is how stale each answer is: the gap between the report that changed
it and its client's receipt (**delivery**) and acknowledgement
(**commit**) of the update.  The engine stamps the objects each
evaluation ingests, and each removal, with the evaluation's number; the
server attributes a shipped update to its object's latest stamp, in
registry histograms by ``stage`` and ``polarity`` (cycles and seconds)
and in bounded per-query summaries.

Only a sample is attributed: the queries whose qid's Fibonacci hash
(times 2**64 / φ, mod 2**64) has its top :data:`SAMPLE_BITS` bits zero,
one in ``2 ** SAMPLE_BITS`` spread over clients whatever their qids'
pattern, exactly, run by run, under the 64-stamp pending cap; the rest
are counted in ``freshness_unsampled_updates_total``.  The cost is per
cycle and per sampled run, never per report (timed per method by
``benchmarks/bench_telemetry_overhead.py``);
:data:`SAMPLE_BITS` is the largest that keeps ``bench_freshness.py``'s
sampled percentiles within one histogram bucket of full tracking.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from itertools import product
from math import ceil

import numpy as np

from repro.obs.registry import DEFAULT_SECONDS_BUCKETS, Histogram, MetricsRegistry

#: Cycle-lag bounds: most updates deliver at lag 0; recovery lag grows geometrically.
FRESHNESS_CYCLE_BUCKETS: tuple[float, ...] = (0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0)

STAGES = ("delivery", "commit")
POLARITIES = ("positive", "negative")

#: One query in ``2 ** SAMPLE_BITS`` is tracked; read when a tracker is built.
SAMPLE_BITS = 4

#: 2**64 / φ, odd: multiplying by it mixes every qid bit into the top ones.
_FIBONACCI = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1

#: Distinct pending-commit stamps per query: past it the oldest folds into
#: the next oldest, so memory stays bounded and every update counts once.
_MAX_PENDING_PER_QUERY = 64

_QUANTILES = (0.50, 0.95, 0.99)


class _Pending:
    """A sampled query's delivered, unacknowledged updates: distinct stamps
    ascending, and their positive and negative counts interleaved."""

    __slots__ = ("stamps", "counts")

    def __init__(self) -> None:
        self.stamps, self.counts = [], []

    def add(self, stamp: int, positive: int, negative: int) -> int:
        """Count updates under ``stamp``; a new stamp at the cap first folds
        the oldest into the next oldest.  Returns how many updates moved."""
        stamps, counts = self.stamps, self.counts
        at = bisect_left(stamps, stamp)
        if at < len(stamps) and stamps[at] == stamp:
            counts[2 * at] += positive
            counts[2 * at + 1] += negative
            return 0
        folded = 0
        if len(stamps) >= _MAX_PENDING_PER_QUERY:
            folded = counts[0] + counts[1]
            counts[2] += counts[0]
            counts[3] += counts[1]
            del stamps[0], counts[:2]
            at = max(at - 1, 0)
        stamps.insert(at, stamp)
        counts[2 * at : 2 * at] = (positive, negative)
        return folded

    def entries(self):  # (stamp, positives, negatives) per stamp, ascending
        return zip(self.stamps, self.counts[0::2], self.counts[1::2])


class _QuerySummary:
    """Bounded exact-cycle / bucketed-seconds staleness for one query."""

    __slots__ = ("cycle_counts", "seconds")

    def __init__(self) -> None:
        # stage -> {cycle_lag: count}; exact, so percentiles are exact.
        self.cycle_counts: dict[str, dict[int, int]] = {stage: {} for stage in STAGES}
        self.seconds = {stage: Histogram(f"freshness_{stage}_seconds") for stage in STAGES}

    def observe(self, stage: str, cycles: int, seconds: float, n: int) -> None:
        counts = self.cycle_counts[stage]
        counts[cycles] = counts.get(cycles, 0) + n
        self.seconds[stage].observe_n(seconds, n)

    def snapshot(self) -> dict[str, object]:
        return {
            stage: {
                "count": sum(counts.values()),
                "cycles": {
                    **{f"p{round(q * 100)}": _exact_quantile(counts, q) for q in _QUANTILES},
                    "max": max(counts),
                },
                "seconds": _percentiles(self.seconds[stage]),
            }
            for stage, counts in self.cycle_counts.items()
            if counts
        }


def _percentiles(histogram: Histogram) -> dict[str, float]:
    """p50 / p95 / p99 and the mean, estimated from ``histogram``."""
    return {**{f"p{round(q * 100)}": histogram.quantile(q) for q in _QUANTILES}, "mean": histogram.mean}


def _exact_quantile(counts: dict[int, int], q: float) -> int:
    """Nearest-rank quantile over exact ``{value: count}`` tallies (0 for none)."""
    rank, running = max(1, ceil(q * sum(counts.values()))), 0
    for value in sorted(counts):
        running += counts[value]
        if running >= rank:
            return value
    return 0


class FreshnessTracker:
    """Staleness attribution for one engine/server stack.  An update is
    measured against its object's *latest* stamp, kept in a table of oids
    ascending that the oids stamped since the last read join first."""

    enabled = True

    def __init__(self, registry: MetricsRegistry, clock=time.monotonic, max_tracked_queries: int = 256):
        self._clock, self.max_tracked_queries = clock, max_tracked_queries
        self.cycle = 0  # completed evaluations
        self._stamp = 1  # a report buffered now: the next evaluation's number
        # The stamp table: oids ascending and the stamp of each one's latest report.
        self._oids, self._oid_stamps = np.empty(0, np.int64), np.empty(0, np.int64)
        self._fresh: list = []  # oid arrays stamped _stamp since the last merge
        self._ts, self._ts_sweep_at = {1: clock()}, 64  # stamp -> its boundary's clock
        # Objects that left in the running evaluation, and in the previous one (see forget).
        self._departed, self._leaving = [], ([], self._stamp)
        # A qid is sampled when its hash lies below sample_limit.
        self.sample_limit, self.sample_ratio = 1 << (64 - SAMPLE_BITS), 2.0**-SAMPLE_BITS
        self._pending: dict[int, _Pending] = {}
        self._per_query: dict[int, _QuerySummary] = {}
        self._hists: dict[tuple[str, str], tuple[Histogram, Histogram]] = {}
        for stage, polarity in product(STAGES, POLARITIES):
            labels = {"stage": stage, "polarity": polarity}
            self._hists[(stage, polarity)] = (
                registry.histogram("freshness_staleness_cycles", FRESHNESS_CYCLE_BUCKETS, labels),
                registry.histogram("freshness_staleness_seconds", DEFAULT_SECONDS_BUCKETS, labels),
            )
        counter = registry.counter
        self._m_unattributed = counter("freshness_unattributed_updates_total")
        self._m_undelivered = counter("freshness_undelivered_updates_total")
        self._m_untracked = counter("freshness_untracked_queries_total")
        self._m_unsampled = counter("freshness_unsampled_updates_total")
        self._m_pending_folded = counter("freshness_pending_commit_folded_total")
        self._m_tracked_objects = registry.gauge("freshness_tracked_objects")
        registry.gauge("freshness_sample_ratio").set(self.sample_ratio)

    def sampled(self, qid: int) -> bool:
        """True when ``qid`` is in the tracked sample."""
        return (qid * _FIBONACCI) & _MASK64 < self.sample_limit

    # -- write side (engine) -------------------------------------------

    def stamp_report(self, oid: int) -> None:
        """Stamp ``oid`` (a removal, the object's last provenance event)."""
        self.stamp_reports((oid,))

    def stamp_reports(self, oids) -> None:
        """Stamp a run of oids, kept as one array until the next read."""
        if len(oids):
            self._fresh.append(np.asarray(oids, np.int64))

    def forget(self, oids) -> None:
        """The objects ``oids`` left in the running evaluation: their stamps,
        which its negatives ship under, go at the end of the next one."""
        self._departed.extend(oids)

    def end_cycle(self) -> None:
        """One evaluation completed: drop the stamps of the objects that
        left one evaluation ago, and advance the cycle stamp."""
        self._merge_fresh()
        leaving, stamp = self._leaving
        if leaving:  # a later report carries a newer stamp than the departure's
            kept = ~(np.isin(self._oids, leaving) & (self._oid_stamps == stamp))
            self._oids, self._oid_stamps = self._oids[kept], self._oid_stamps[kept]
        self._leaving, self._departed = (self._departed, self._stamp), []
        self.cycle, self._stamp = self.cycle + 1, self.cycle + 2
        self._ts[self._stamp] = self._clock()
        if len(self._ts) > self._ts_sweep_at:
            held = {self._stamp, *self._oid_stamps.tolist()}
            held.update(*(pending.stamps for pending in self._pending.values()))
            self._ts = {s: ts for s, ts in self._ts.items() if s in held}
            self._ts_sweep_at = 2 * len(self._ts) + 64
        self._m_tracked_objects.set(len(self._oids))

    def _merge_fresh(self) -> None:
        """Join the stamped oids to the stamp table under _stamp."""
        if not self._fresh:
            return
        fresh = np.concatenate(self._fresh)
        self._fresh = []
        fresh.sort()  # np.unique's hashing costs 20x a sort here
        fresh = fresh[np.concatenate(([True], fresh[1:] != fresh[:-1]))]
        rows = self._rows_of(fresh)
        self._oid_stamps[rows[rows >= 0]] = self._stamp
        new = fresh[rows < 0]
        if len(new):
            at = np.searchsorted(self._oids, new)
            self._oids = np.insert(self._oids, at, new)
            self._oid_stamps = np.insert(self._oid_stamps, at, self._stamp)

    def _rows_of(self, oids):
        """Each oid's row in the stamp table, -1 for none."""
        rows = np.searchsorted(self._oids, oids)
        found = (np.append(self._oids, 0)[rows] == oids) & (rows < len(self._oids))
        return np.where(found, rows, -1)

    def _stamps_of(self, oids: list[int]) -> list[int]:
        """The stamp of each oid's latest report, 0 (row -1) for none; the
        oids are searched sorted, which costs a third of an unsorted search."""
        self._merge_fresh()
        oids = np.array(oids, np.int64)
        order = np.argsort(oids)
        return np.append(self._oid_stamps, 0)[self._rows_of(oids[order])][np.argsort(order)].tolist()

    # -- read side (server) --------------------------------------------

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link accepted, as a run of its own."""
        self.observe_delivered_runs([(qid, 0, 1)], [oid], [sign])

    def observe_delivered_runs(self, runs, oids, signs) -> None:
        """Updates the link accepted, at one clock read: ``oids``/``signs`` cut
        into ``runs`` of one query, ``(qid, start, stop)``.  Unsampled runs are
        counted; a sampled run is grouped by stamp, each group attributed once."""
        limit, sampled = self.sample_limit, []
        picked = [run for run in runs if (run[0] * _FIBONACCI) & _MASK64 < limit]
        for _, start, stop in picked:
            sampled += oids[start:stop]
        if len(sampled) < len(oids):
            self._m_unsampled.inc(len(oids) - len(sampled))
        if not sampled:
            return
        stamps, now_ts, cycle, ts = self._stamps_of(sampled), self._clock(), self.cycle, self._ts
        per_stamp: dict[int, list[int]] = {}
        pending_of, summary_of = self._pending, self._summary_of
        unattributed = untracked = folded = at = 0
        for qid, start, stop in picked:
            n = stop - start
            run = stamps[at : at + n]
            at += n
            if run.count(run[0]) == n:
                negative = signs[start:stop].count(-1)
                groups = ((run[0], n - negative, negative),)
            else:  # (stamp, positives, negatives), in first-appearance order
                counts: dict[int, list[int]] = {}
                for stamp, sign in zip(run, signs[start:stop]):
                    counts.setdefault(stamp, [0, 0])[sign == -1] += 1
                groups = [(stamp, *pair) for stamp, pair in counts.items()]
            summary = pending = None
            for stamp, positive, negative in groups:
                if not stamp:
                    unattributed += positive + negative
                    continue
                if pending is None:
                    summary = summary_of(qid)
                    pending = pending_of.get(qid) or pending_of.setdefault(qid, _Pending())
                totals = per_stamp.setdefault(stamp, [0, 0])
                totals[0] += positive
                totals[1] += negative
                if summary is None:
                    untracked += positive + negative
                else:
                    summary.observe("delivery", max(0, cycle - stamp), now_ts - ts[stamp], positive + negative)
                folded += pending.add(stamp, positive, negative)
        self._m_unattributed.inc(unattributed)
        self._m_untracked.inc(untracked)
        self._m_pending_folded.inc(folded)
        self._observe("delivery", per_stamp.items(), now_ts)

    def observe_delivered_rows(self, qids, oids, signs) -> None:
        """:meth:`observe_delivered_runs` for int64 columns in delivery
        order: the sample is the qid hash test over the whole column,
        and the sampled rows are cut into query runs where the qid
        changes."""
        total = len(qids)
        if self.sample_limit <= _MASK64:  # else every qid is sampled
            picked = qids.view(np.uint64) * np.uint64(_FIBONACCI) < np.uint64(self.sample_limit)
            qids, oids, signs = qids[picked], oids[picked], signs[picked]
        self._m_unsampled.inc(total - len(qids))
        cuts = (np.flatnonzero(qids[1:] != qids[:-1]) + 1).tolist()
        starts = [0, *cuts] if len(qids) else []
        runs = list(zip(qids[starts].tolist(), starts, [*cuts, len(qids)]))
        self.observe_delivered_runs(runs, oids.tolist(), signs.tolist())

    def _observe(self, stage: str, totals, now_ts: float) -> None:
        """Histogram observations of ``(stamp, (positives, negatives))`` pairs."""
        hists = self._hists[(stage, "positive")], self._hists[(stage, "negative")]
        for stamp, counts in totals:
            lag_cycles, lag_seconds = max(0, self.cycle - stamp), now_ts - self._ts[stamp]
            for (cycles_hist, seconds_hist), n in zip(hists, counts):
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
        self._m_undelivered.inc()  # its recovery delivery carries the full lag

    def observe_committed(self, qids) -> None:
        """The clients acknowledged ``qids`` (a run, one clock read): attribute
        each sampled query's updates delivered since its last acknowledgement;
        an unsampled qid returns after the hash test."""
        now_ts = None
        for qid in qids:
            if not self.sampled(qid) or qid not in self._pending:
                continue
            now_ts = self._clock() if now_ts is None else now_ts
            entries = list(self._pending.pop(qid).entries())
            self._observe("commit", ((stamp, pair) for stamp, *pair in entries), now_ts)
            summary = self._summary_of(qid)
            if summary is None:
                self._m_untracked.inc(sum(positive + negative for _, positive, negative in entries))
                continue
            for stamp, positive, negative in entries:
                summary.observe("commit", max(0, self.cycle - stamp), now_ts - self._ts[stamp], positive + negative)

    def forget_query(self, qid: int) -> None:
        """Drop ``qid``'s pending and summary state (unregistered)."""
        self._pending.pop(qid, None)
        self._per_query.pop(qid, None)

    # -- snapshots ------------------------------------------------------

    def pending_commit(self) -> dict[int, list[tuple[int, int, int]]]:
        """qid -> ``(stamp, positives, negatives)`` per pending stamp, ascending."""
        return {qid: list(pending.entries()) for qid, pending in self._pending.items()}

    def report_stamps(self) -> dict[int, int]:
        """oid -> the stamp cycle of its latest report."""
        self._merge_fresh()
        return dict(zip(self._oids.tolist(), self._oid_stamps.tolist()))

    def query_summary(self, qid: int) -> dict[str, object]:
        """Per-stage staleness percentiles for one query ({} if untracked)."""
        summary = self._per_query.get(qid)
        return summary.snapshot() if summary is not None else {}

    def stage_summary(self) -> dict[str, object]:
        """Percentiles per (stage, polarity), as a ``/metrics`` scrape derives them."""
        out: dict[str, dict] = {}
        for (stage, polarity), (cycles, seconds) in self._hists.items():
            if cycles.count:
                out.setdefault(stage, {})[polarity] = {
                    "count": cycles.count,
                    "cycles": _percentiles(cycles),
                    "seconds": _percentiles(seconds),
                }
        return out

    def snapshot(self) -> dict[str, object]:
        """The whole staleness picture, JSON-ready."""
        self._merge_fresh()
        return {
            "cycle": self.cycle,
            "sample_ratio": self.sample_ratio,
            "tracked_objects": len(self._oids),
            "unattributed_updates": int(self._m_unattributed.value),
            "undelivered_updates": int(self._m_undelivered.value),
            "unsampled_updates": int(self._m_unsampled.value),
            "stages": self.stage_summary(),
            "queries": {qid: summary.snapshot() for qid, summary in sorted(self._per_query.items())},
        }


class NullFreshnessTracker:
    """Freshness tracking off: every call is a shared no-op."""

    enabled = False
    cycle = 0

    __slots__ = ()

    def _nothing(self, *args) -> None:
        pass

    def _empty(self, *args) -> dict:
        return {}

    stamp_report = stamp_reports = forget = end_cycle = forget_query = observe_committed = _nothing
    observe_delivered = observe_delivered_runs = observe_delivered_rows = observe_undelivered = _nothing
    pending_commit = report_stamps = query_summary = stage_summary = snapshot = _empty


NULL_FRESHNESS = NullFreshnessTracker()
