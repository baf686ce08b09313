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
  cycle it targets (one list append per report; the wall clock of each
  cycle boundary is kept once, beside);
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

A delivery batch is attributed in array passes (one search of the
stamp table, one sort-and-count of the batch); its ``(query, stamp)``
groups then merge into the pending blocks of the queries it touches,
one query at a time, by one slice extend in the usual case.  A commit
run walks its queries' pending stamps, at most 64 each, and sums a run
of several queries per distinct stamp before it observes.  What that
costs a cycle is measured, not promised.  Timed per method —
``perf_counter`` wrappers on :meth:`FreshnessTracker.observe_delivered_runs`
and :meth:`FreshnessTracker.observe_committed` over 40 in-process rounds
of the end-to-end benchmark's ``sparse_mixed`` shape, GC off, three runs
on a 2-core box shared with other load — the tracker is 5.4–6.2 ms of a
26–29 ms cycle: 2.6–2.9 ms of delivery attribution and 2.8–3.3 ms of
~200 one-row commits (each query move commits alone in-process), Python
per pending stamp and per summarised query.
``benchmarks/bench_telemetry_overhead.py`` runs the same rounds, the
``bulk_churn`` ones and a wakeup-heavy ``reconnect`` shape with the
tracker on and off; on that box its single runs spread too widely to
read a few milliseconds from (three full runs put the tracker at +42 to
+56 % of a ``sparse_mixed`` cycle and −16 to +47 % of a ``bulk_churn``
one).

Updates with no report provenance (query registration fills, query
moves, recovery retractions of departed objects) are counted, not
guessed at.  Telemetry-off mode is a type: :data:`NULL_FRESHNESS`
no-ops every call, which is what the overhead benchmark compares
against.
"""

from __future__ import annotations

import time
from array import array
from bisect import bisect_left
from itertools import chain
from math import ceil

import numpy as np

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

#: A delivery groups its updates by ``slot << _CYCLE_BITS | stamp
#: cycle``: one int64 orders them by query, then by stamp.  Cycles stay
#: below 2**32 (136 years of one evaluation a second).
_CYCLE_BITS = 32
_CYCLE_MASK = (1 << _CYCLE_BITS) - 1

def _tally(values):
    """``(distinct values ascending, how many times each occurs)`` of an
    int64 array, which is sorted in place: one boundary pass."""
    values.sort()
    starts = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[starts], np.diff(np.append(starts, len(values)))


def _add_exact(block: array, cycle: int, positive: int, negative: int) -> int:
    """Count updates of stamp ``cycle`` into one query's pending block
    (flat ``stamp, positives, negatives`` triples, stamps ascending) by
    the cap's sequential rule: a stamp not yet pending, with the cap
    full, first folds the oldest entry into the next oldest (which
    under-reads their commit lag by the cycles between the two, and
    loses none of them).  Returns how many updates the fold moved."""
    folded = 0
    column = block[0::3]
    at = bisect_left(column, cycle)
    if at == len(column) or column[at] != cycle:
        if len(column) >= _MAX_PENDING_PER_QUERY:
            folded = block[1] + block[2]
            block[4] += block[1]
            block[5] += block[2]
            del block[:3]
            at = max(at - 1, 0)
        block[3 * at : 3 * at] = array("q", (cycle, 0, 0))
    block[3 * at + 1] += positive
    block[3 * at + 2] += negative
    return folded


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
    side (:meth:`observe_delivered_runs` per accepted downlink batch,
    :meth:`observe_committed` per run of acknowledged queries).
    Staleness of an update is measured against the *latest* report of
    its object — the definition of answer currency the paper's client
    cares about.

    A stamp is the number of the evaluation a report targets; the wall
    clock of each stamp's cycle boundary is kept once, beside.  Stamps
    live in a table of oids ascending; a report appends its oid to a
    buffer that joins the table before the next read.  The updates
    delivered but not yet acknowledged live in one pending block per
    query: an ``array('q')`` of flat ``stamp, positives, negatives``
    triples, stamps ascending, at most :data:`_MAX_PENDING_PER_QUERY`
    of them, held by the query's slot (a dense per-tracker index: qids
    span int64).  A delivery batch merges into the blocks it touches; a
    commit run reads its queries' blocks and empties them.
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
        # The stamp of a report buffered now: the cycle the next
        # evaluation will be.
        self._stamp = 1
        # The stamp table (oids ascending, the stamp of each one's latest
        # report) and the oids stamped _stamp since it was last merged.
        self._oids = np.empty(0, np.int64)
        self._oid_stamps = np.empty(0, np.int64)
        self._fresh: list[int] = []
        # stamp -> wall clock at the cycle boundary that opened it, for
        # the stamps an object or a pending entry may still hold; swept
        # each time it doubles (see end_cycle).
        self._ts: dict[int, float] = {1: clock()}
        self._ts_sweep_at = 64
        # Objects that left the system in the running evaluation, and
        # in the one before it with that evaluation's stamp: see forget.
        self._departed: list[int] = []
        self._leaving: tuple[list[int], int] = ([], self._stamp)
        self._slot_of: dict[int, int] = {}
        self._qid_of: list[int | None] = []
        self._free_slots: list[int] = []
        # By slot: its pending block (see the class docstring), at most
        # _MAX_PENDING_PER_QUERY entries, and whether the query has a
        # summary in _per_query.
        self._blocks: list[array] = []
        self._per_query: dict[int, _QuerySummary] = {}
        self._tracked = np.zeros(64, bool)
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
        self._delivery_hists, self._commit_hists = (
            (self._hists[(stage, "positive")], self._hists[(stage, "negative")])
            for stage in STAGES
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

        Hot path: one list append.  Last report wins, mirroring the
        engine's own last-report-wins buffering.
        """
        self._fresh.append(oid)

    def stamp_reports(self, oids) -> None:
        """:meth:`stamp_report` for a run of reports: one list extend."""
        self._fresh += oids

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
        self._merge_fresh()
        leaving, stamp = self._leaving
        if leaving:
            # A departure was stamped with its evaluation's stamp; any
            # later report carries a newer one.
            rows = self._rows_of(np.array(leaving, np.int64))
            rows = rows[rows >= 0]
            rows = rows[self._oid_stamps[rows] == stamp]
            self._oids = np.delete(self._oids, rows)
            self._oid_stamps = np.delete(self._oid_stamps, rows)
        self._leaving = (self._departed, self._stamp)
        self._departed = []
        self.cycle += 1
        self._stamp = self.cycle + 1
        self._ts[self._stamp] = self._clock()
        if len(self._ts) > self._ts_sweep_at:
            held = set(self._oid_stamps.tolist())
            held.update(chain.from_iterable(block[0::3] for block in self._blocks))
            held.add(self._stamp)
            self._ts = {s: ts for s, ts in self._ts.items() if s in held}
            self._ts_sweep_at = 2 * len(self._ts) + 64
        self._m_tracked_objects.set(len(self._oids))

    def _merge_fresh(self) -> None:
        """Join the buffered reports to the stamp table under _stamp."""
        if not self._fresh:
            return
        fresh = np.sort(np.fromiter(self._fresh, np.int64, len(self._fresh)))
        self._fresh = []
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
        table = self._oids
        if not len(table):
            return np.full(len(oids), -1, np.int64)
        rows = np.minimum(np.searchsorted(table, oids), len(table) - 1)
        rows[table[rows] != oids] = -1
        return rows

    def _stamps_of(self, oids):
        """The stamp of each oid's latest report, 0 for none (int64): the
        oids sorted, then one search of the stamp table."""
        self._merge_fresh()
        table = self._oids
        oids = np.fromiter(oids, np.int64, len(oids))
        if not len(table):
            return np.zeros(len(oids), np.int64)
        order = np.argsort(oids)
        oids = oids[order]
        rows = np.searchsorted(table, oids)
        np.minimum(rows, len(table) - 1, out=rows)
        found = self._oid_stamps[rows]
        found[table[rows] != oids] = 0
        stamps = np.empty(len(oids), np.int64)
        stamps[order] = found
        return stamps

    # -- read side (server) --------------------------------------------

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link accepted, as a run of its own."""
        self.observe_delivered_runs([(qid, 0, 1)], [oid], [sign])

    def observe_delivered_runs(self, runs, oids, signs) -> None:
        """Updates the link accepted: aligned ``oids``/``signs`` lists
        cut into ``runs`` of one query each, ``(qid, start, stop)`` in
        delivery order, covering the lists.  Attribute delivery
        staleness and queue the stamps for commit-stage attribution.

        The whole batch is delivered "now" — one clock read — so lag is
        a function of the report stamp alone.  One sort of the batch's
        ``(query slot, stamp, polarity)`` codes counts every ``(query,
        stamp)`` group's positives and negatives; from the groups the
        registry histograms take one observation per ``(stamp,
        polarity)``, a tracked query's summary one per stamp, and the
        pending-commit table one merge.
        """
        now_ts = self._clock()
        count = len(oids)
        if not count:
            return
        stamps = self._stamps_of(oids)
        attributed = int(np.count_nonzero(stamps))
        if attributed < count:
            self._m_unattributed.inc(count - attributed)
            if not attributed:
                return
        run_qids, starts, stops = zip(*runs)
        codes = np.repeat(np.array(self._slots_of(run_qids), np.int64), np.subtract(stops, starts))
        if len(self._per_query) < self.max_tracked_queries:
            # Summaries go to the first queries seen with a stamp.
            stamped = np.logical_or.reduceat(stamps != 0, starts).tolist()
            for qid, any_stamp in zip(run_qids, stamped):
                if any_stamp and self._summary_of(qid) is None:
                    break
        codes <<= _CYCLE_BITS
        codes |= stamps
        codes <<= 1
        codes |= np.fromiter(signs, np.int64, count) < 0
        values, counts = _tally(codes)
        del codes
        if attributed < count:  # an unstamped update's code holds stamp 0
            stamped = (values >> 1 & _CYCLE_MASK) != 0
            values, counts = values[stamped], counts[stamped]
        keys = values >> 1
        first = np.concatenate(([True], keys[1:] != keys[:-1]))
        keys = keys[first]
        both = np.zeros(2 * len(keys), np.int64)
        both[2 * (np.cumsum(first) - 1) + (values & 1)] = counts
        positives, negatives = both[0::2], both[1::2]
        self._observe_delivery(keys, positives, negatives, now_ts)
        self._merge(keys, positives, negatives, runs, stamps, signs)

    def _observe_delivery(self, keys, positives, negatives, now_ts: float) -> None:
        """Delivery-stage observations of a batch's ``(query, stamp)``
        groups: per ``(stamp, polarity)`` on the registry histograms, per
        group on a tracked query's summary."""
        cycle, ts = self.cycle, self._ts
        group_stamps = keys & _CYCLE_MASK
        order = np.argsort(group_stamps, kind="stable")
        group_stamps = group_stamps[order]
        first = np.flatnonzero(np.concatenate(([True], group_stamps[1:] != group_stamps[:-1])))
        lags = {}
        for stamp, *totals in zip(
            group_stamps[first].tolist(),
            np.add.reduceat(positives[order], first).tolist(),
            np.add.reduceat(negatives[order], first).tolist(),
        ):
            lag_cycles, lag_seconds = lags[stamp] = max(0, cycle - stamp), now_ts - ts[stamp]
            for (cycles_hist, seconds_hist), n in zip(self._delivery_hists, totals):
                if n:
                    cycles_hist.observe_n(lag_cycles, n)
                    seconds_hist.observe_n(lag_seconds, n)
        totals = positives + negatives
        tracked = self._tracked[keys >> _CYCLE_BITS]
        untracked = int(totals[~tracked].sum())
        if untracked:
            self._m_untracked.inc(untracked)
        if tracked.any():
            per_query, qid_of = self._per_query, self._qid_of
            for key, n in zip(keys[tracked].tolist(), totals[tracked].tolist()):
                per_query[qid_of[key >> _CYCLE_BITS]].observe(
                    "delivery", *lags[key & _CYCLE_MASK], n
                )

    def _slots_of(self, qids) -> list[int]:
        """The slot of each qid, allocating one to a query new here."""
        slot_of = self._slot_of
        slots = list(map(slot_of.get, qids))
        if None not in slots:
            return slots
        for qid in qids:
            if qid not in slot_of:
                if self._free_slots:
                    slot = self._free_slots.pop()
                    self._qid_of[slot] = qid
                else:
                    slot = len(self._qid_of)
                    self._qid_of.append(qid)
                    self._blocks.append(array("q"))
                    if slot == len(self._tracked):
                        self._tracked = np.concatenate((self._tracked, np.zeros_like(self._tracked)))
                slot_of[qid] = slot
        return list(map(slot_of.__getitem__, qids))

    def _merge(self, keys, positives, negatives, runs, stamps, signs) -> None:
        """Count a delivery's ``(query, stamp)`` groups (``keys``
        ascending) into the pending blocks of the queries in it, one
        query at a time.

        A query whose groups all fall past its newest pending stamp (the
        usual case: the cycle's own stamp) extends its block with them.
        Otherwise each group goes through the sequential rule
        (:func:`_add_exact`): a stamp already pending is incremented in
        place, a new one inserted in order.  A query that reaches the cap
        with one new stamp folds its oldest entry first, wherever the
        stamp falls; one that passes the cap with several groups replays
        the delivery's ``runs`` through that rule (:meth:`_replay`),
        since the order of its stamps then decides what folds.
        """
        group_slots = keys >> _CYCLE_BITS
        first = np.flatnonzero(np.concatenate(([True], group_slots[1:] != group_slots[:-1])))
        bounds = (3 * np.append(first, len(keys))).tolist()
        # The groups as flat triples, a block's layout: a block extends
        # by one slice of them.
        groups = array("q", np.column_stack((keys & _CYCLE_MASK, positives, negatives)).tobytes())
        blocks, full = self._blocks, 3 * _MAX_PENDING_PER_QUERY
        folded = 0
        for slot, lo, hi in zip(group_slots[first].tolist(), bounds, bounds[1:]):
            block = blocks[slot]
            if not block or groups[lo] > block[-3]:
                arriving = hi - lo
                if len(block) + arriving <= full:
                    block += groups[lo:hi]
                    continue
            else:
                arriving = 3 * len(set(groups[lo:hi:3]).difference(block[0::3]))
            if len(block) + arriving > full and hi - lo > 3:
                folded += self._replay(slot, runs, stamps, signs)
            else:
                for at in range(lo, hi, 3):
                    folded += _add_exact(block, *groups[at : at + 3])
        if folded:
            self._m_pending_folded.inc(folded)

    def _replay(self, slot: int, runs, stamps, signs) -> int:
        """Count ``slot``'s updates of a delivery into its block by the
        exact sequential rule: its runs in delivery order, each run's
        stamps in order of first appearance.  Returns how many updates
        folds moved."""
        qid, block = self._qid_of[slot], self._blocks[slot]
        folded = 0
        for run_qid, start, stop in runs:
            if run_qid != qid:
                continue
            groups: dict[int, list[int]] = {}
            for stamp, sign in zip(stamps[start:stop].tolist(), signs[start:stop]):
                if stamp:
                    groups.setdefault(stamp, [0, 0])[sign == -1] += 1
            for stamp, (positive, negative) in groups.items():
                folded += _add_exact(block, stamp, positive, negative)
        return folded

    def _summary_of(self, qid: int) -> "_QuerySummary | None":
        """``qid``'s summary, created while the tracked set has room."""
        summary = self._per_query.get(qid)
        if summary is None and len(self._per_query) < self.max_tracked_queries:
            summary = self._per_query[qid] = _QuerySummary()
            self._tracked[self._slot_of[qid]] = True
        return summary

    def observe_undelivered(self, qid: int, oid: int, sign: int) -> None:
        """One update the link rejected (throttled, disconnected, or
        faulted away).  The stamp stays put: the recovery delivery that
        eventually lands it will be attributed with the full lag."""
        self._m_undelivered.inc()

    def observe_committed(self, qids) -> None:
        """The clients acknowledged ``qids``, a run in order, at one clock
        read: attribute commit staleness for every update each query was
        delivered since its previous acknowledgement, and empty its
        block.  A run's blocks are summed per distinct stamp first, so
        the registry histograms take one observation per ``(stamp,
        polarity)`` for the run; summaries and the untracked count stay
        per query.  A qid repeated in the run finds its block empty, as
        a second commit would."""
        blocks = []
        untracked = 0
        for qid in qids:
            slot = self._slot_of.get(qid)
            block = None if slot is None else self._blocks[slot]
            if not block:
                continue
            entries = list(zip(block[0::3], block[1::3], block[2::3]))
            del block[:]
            summary = self._summary_of(qid)
            if summary is None:
                untracked += sum(positive + negative for _, positive, negative in entries)
            blocks.append((summary, entries))
        if not blocks:
            return
        if untracked:
            self._m_untracked.inc(untracked)
        now_ts, cycle, ts = self._clock(), self.cycle, self._ts
        summary, entries = blocks[0]
        if len(blocks) > 1:
            # Summaries per query, then the registry histograms once per
            # distinct stamp of the run.
            totals: dict[int, list[int]] = {}
            for summary, block in blocks:
                for stamp, positive, negative in block:
                    if summary is not None:
                        lag_cycles = cycle - stamp if cycle > stamp else 0
                        lag_seconds = now_ts - ts[stamp]
                        summary.observe("commit", lag_cycles, lag_seconds, positive + negative)
                    total = totals.setdefault(stamp, [0, 0])
                    total[0] += positive
                    total[1] += negative
            summary, entries = None, [(stamp, *total) for stamp, total in totals.items()]
        (positive_cycles, positive_seconds), (negative_cycles, negative_seconds) = (
            self._commit_hists
        )
        for stamp, positive, negative in entries:
            lag_cycles = cycle - stamp if cycle > stamp else 0
            lag_seconds = now_ts - ts[stamp]
            if positive:
                positive_cycles.observe_n(lag_cycles, positive)
                positive_seconds.observe_n(lag_seconds, positive)
            if negative:
                negative_cycles.observe_n(lag_cycles, negative)
                negative_seconds.observe_n(lag_seconds, negative)
            if summary is not None:
                summary.observe("commit", lag_cycles, lag_seconds, positive + negative)

    def forget_query(self, qid: int) -> None:
        """Drop ``qid``'s pending and summary state (unregistered) and
        free its slot."""
        self._per_query.pop(qid, None)
        slot = self._slot_of.pop(qid, None)
        if slot is None:
            return
        del self._blocks[slot][:]
        self._tracked[slot] = False
        self._qid_of[slot] = None
        self._free_slots.append(slot)

    # -- snapshots ------------------------------------------------------

    def pending_commit(self) -> dict[int, list[tuple[int, int, int]]]:
        """qid -> its delivered but unacknowledged updates, as
        ``(stamp cycle, positives, negatives)`` per stamp ascending;
        queries with nothing pending are absent."""
        return {
            self._qid_of[slot]: list(zip(block[0::3], block[1::3], block[2::3]))
            for slot, block in enumerate(self._blocks)
            if block
        }

    def report_stamps(self) -> dict[int, int]:
        """oid -> the stamp cycle of its latest report."""
        self._merge_fresh()
        return dict(zip(self._oids.tolist(), self._oid_stamps.tolist()))

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
        self._merge_fresh()
        return {
            "cycle": self.cycle,
            "tracked_objects": len(self._oids),
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

    def forget(self, oids) -> None:
        pass

    def end_cycle(self) -> None:
        pass

    def observe_delivered(self, qid: int, oid: int, sign: int) -> None:
        pass

    def observe_delivered_runs(self, runs, oids, signs) -> None:
        pass

    def observe_undelivered(self, qid: int, oid: int, sign: int) -> None:
        pass

    def observe_committed(self, qids) -> None:
        pass

    def forget_query(self, qid: int) -> None:
        pass

    def pending_commit(self) -> dict[int, list[tuple[int, int, int]]]:
        return {}

    def report_stamps(self) -> dict[int, int]:
        return {}

    def query_summary(self, qid: int) -> dict[str, object]:
        return {}

    def stage_summary(self) -> dict[str, object]:
        return {}

    def snapshot(self) -> dict[str, object]:
        return {}


NULL_FRESHNESS = NullFreshnessTracker()
