"""The location-aware server.

Binds the pieces together the way the paper's PLACE server does:

* the :class:`~repro.core.engine.IncrementalEngine` does shared,
  incremental evaluation over the grid;
* :mod:`repro.net` links carry positive/negative update messages to the
  owning clients, with byte accounting (Figure 5's KB axis);
* a :class:`~repro.core.commit.CommittedAnswerStore` plus wakeup
  handling implement out-of-sync recovery (Section 3.3);
* superseded object locations are appended to the storage package's
  :class:`~repro.storage.HistoryRepository` ("the old information
  becomes persistent and is stored in a repository server"): each
  report once, when the object's next report arrives.

Each uplink kind has one door, a run (``receive_object_reports``,
``receive_query_moves``, ``receive_commits``; the per-op doors are
one-row calls of it).  The door judges the whole run, then an installed
uplink gate judges each row in order, deferring a row as a call of its
per-op door; the history and the flight recorder act on each remaining
row, and the run is accounted once.

The server never observes link state when sending — updates to a
disconnected client are simply lost, which is exactly why the commit
protocol exists.  Commits happen only on uplink evidence: any message
from a moving query, an explicit commit message from a stationary one,
or the completion of a wakeup resynchronisation.

Nor does the server walk its clients: a cycle costs what was reported
and what changed.  The stream stays int64 columns, grouped by owning
client with one stable sort; each client's slice goes through its
link's one update door, ``ClientLink.deliver_updates``.  The links with
a byte budget to reset are listed at registration, and the clients
whose link accepted mail are noted as it ships
(:meth:`LocationAwareServer.take_mailed`) — the only links a transport
has to flush.

**Commit invariant (committed ⊆ delivered).**  The committed-answer
repository must never get *ahead* of what a client actually received:
a committed answer the client does not hold poisons every future
recovery diff (the server diffs against a base the client never
reached, so stale members are never retracted).  The server therefore
commits only :meth:`~LocationAwareServer.delivered_oids`: the live
answer XOR the query's *lag*, the oids the client holds otherwise, kept
only while non-empty.  Live and committed answers alike are sorted
int64 arrays of oids: the engine's answer run, and the repository's
record of it.  A delivered update discards its oid from the
lag and a refused one toggles it — sound because the engine's stream
is, per query, the evaluation's net change: each oid at most once, a
flip (``+o`` only when ``o`` is not in the answer, ``-o`` only when it
is).  A throttled or re-dropped
recovery update simply leaves the query behind the live answer; the
next wakeup re-sends the missing delta, and repeated wakeups converge
because each one advances the committed base by whatever did fit.  The
:class:`repro.check.ConsistencyOracle` enforces this invariant under
the :mod:`repro.faults` chaos schedules.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from repro.core.commit import CommittedAnswerStore
from repro.core.engine import DEFAULT_WORLD, IncrementalEngine
from repro.core.state import QueryKind
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect, Velocity
from repro.grid.cellmath import ragged_arange
from repro.net import (
    ClientLink,
    CommitMessage,
    FullAnswerMessage,
    KnnMoveMessage,
    NetworkStats,
    ObjectRemovalMessage,
    ObjectReportMessage,
    QueryRegionMessage,
    ThrottledLink,
    UpdateMessage,
    WakeupMessage,
    full_answer_bytes,
)
from repro.obs import FlightRecorder, MetricsRegistry
from repro.storage import HistoryRepository, LocationRecord


_NO_IDS = np.empty(0, dtype=np.int64)


@dataclass(slots=True)
class _Slices:
    """Update rows grouped by link: ``columns`` (qids, oids, signs) and
    each link's ``(link, start, stop)`` cut of them, in shipping order;
    iterates as ``(link, qids, oids, signs, start)`` slices."""

    columns: tuple
    cuts: list

    def __iter__(self):
        qids, oids, signs = self.columns
        for link, start, stop in self.cuts:
            yield link, qids[start:stop], oids[start:stop], signs[start:stop], start


@dataclass(slots=True)
class CycleResult:
    """What one evaluation cycle produced and shipped.

    ``updates`` is the engine's stream, an
    :class:`~repro.core.updates.UpdateBatch` (sequence-shaped, lazily
    materialised).
    """

    now: float
    updates: UpdateBatch
    incremental_bytes: int
    complete_bytes: int
    delivered_updates: int = 0
    dropped_updates: int = 0
    answer_objects: int = 0

    @property
    def savings_ratio(self) -> float:
        """Incremental bytes as a fraction of complete-answer bytes."""
        if self.complete_bytes == 0:
            return 0.0
        return self.incremental_bytes / self.complete_bytes


class LocationAwareServer:
    """Continuous-query service over one incremental engine."""

    def __init__(
        self,
        world: Rect = DEFAULT_WORLD,
        grid_size: int = 64,
        prediction_horizon: float = 60.0,
        history: HistoryRepository | None = None,
        engine: IncrementalEngine | None = None,
        registry: MetricsRegistry | None = None,
        recorder: FlightRecorder | None = None,
    ):
        """``engine`` lets a restarted server adopt a checkpoint-restored
        engine instead of starting empty; bind its queries to clients
        with :meth:`adopt_query`.

        ``registry`` is the telemetry sink for the whole stack; when
        omitted the server shares the engine's registry, so server
        cycle/network series and engine phase/work series export
        together.  The server also shares the engine's tracer: its
        ``cycle`` / ``downlink`` / ``recovery`` spans nest around the
        engine's per-phase spans in one Chrome trace.

        ``recorder`` arms the black-box flight recorder for the whole
        stack (engine evaluation events plus server protocol events).  When
        an ``engine`` is supplied, the recorder is installed onto it so
        both layers write into the same ring.
        """
        self.engine = (
            engine
            if engine is not None
            else IncrementalEngine(
                world,
                grid_size,
                prediction_horizon,
                recorder=recorder,
            )
        )
        if engine is not None and recorder is not None:
            self.engine.recorder = recorder
        self.registry = registry if registry is not None else self.engine.registry
        self.tracer = self.engine.tracer
        # Shared observability plane: staleness attribution and the
        # flight recorder live on the engine, the server reports into
        # them from the delivery/commit side.
        self.freshness = self.engine.freshness
        self.recorder = self.engine.recorder
        self.commits = CommittedAnswerStore()
        self.stats = NetworkStats(self.registry)
        self.history = history
        self._links: dict[int, ClientLink] = {}
        # The links whose byte budget resets every cycle.
        self._throttled: list[ThrottledLink] = []
        # Clients whose link accepted mail since the last take_mailed().
        self._mailed: set[int] = set()
        # qid -> the client that owns it; the same table as int64
        # columns for the cycle's group-by (see _owners), and the
        # (qid, client or None) bindings made since its last read.
        self._owner: dict[int, int] = {}
        self._owner_columns = (_NO_IDS, _NO_IDS)
        self._rebound: list[tuple[int, int | None]] = []
        self._queries_of_client: dict[int, set[int]] = {}
        # qid -> the oids its client holds otherwise than the live
        # answer, only non-empty sets (see delivered_answer()).
        self._lag: dict[int, set[int]] = {}
        # client -> the last query a wakeup delivered to, kept only
        # while the client's latest wakeup left some delta behind.
        self._resume_after: dict[int, int] = {}
        # Objects whose buffered report a removal cancelled (archived)
        # this batch: their stored location is already superseded.
        self._cancelled: set[int] = set()
        # Fault-injection gate for uplink traffic: ``gate(kind) -> bool``
        # where False defers the uplink call to the start of the next
        # evaluation cycle (a slow/congested uplink path).  ``None``
        # means every uplink is processed immediately.
        self.uplink_gate = None
        self._delayed_uplinks: list[tuple[object, tuple]] = []
        # Protocol observers (the consistency oracle): duck-typed
        # objects with on_wakeup_begin/on_wakeup_end/on_commit.
        self._observers: list[object] = []
        self._m_cycle_seconds = self.registry.histogram("server_cycle_seconds")
        self._m_updates_delivered = self.registry.counter(
            "server_updates_delivered_total"
        )
        self._m_updates_dropped = self.registry.counter(
            "server_updates_dropped_total"
        )
        self._m_incremental_bytes = self.registry.counter(
            "server_incremental_bytes_total"
        )
        self._m_complete_bytes = self.registry.counter(
            "server_complete_bytes_total"
        )
        self._m_savings_ratio = self.registry.gauge("server_savings_ratio")
        self._m_wakeups = self.registry.counter("server_wakeups_total")
        self._m_recovery_updates = self.registry.counter(
            "server_recovery_updates_total"
        )

    # ------------------------------------------------------------------
    # Protocol observers and fault hooks
    # ------------------------------------------------------------------

    def add_observer(self, observer: object) -> None:
        """Subscribe a protocol observer (e.g. the consistency oracle).

        Observers receive ``on_wakeup_begin(client_id)`` /
        ``on_wakeup_end(client_id)`` around each wakeup
        resynchronisation and ``on_commit(qid)`` after every commit, so
        an external checker can mirror the client-side protocol state
        without being in the delivery path.
        """
        self._observers.append(observer)

    def _notify(self, event: str, ident: int) -> None:
        for observer in self._observers:
            getattr(observer, event)(ident)

    def _gated(self, kind: str, calls, columns) -> list[list]:
        """A run's ``columns`` cut to the rows the uplink gate lets
        through now, asked once per row in order; a deferred row is kept
        as its ``calls`` entry, ``(door, args)``: a per-op door call,
        replayed next cycle."""
        kept = []
        for call in calls:
            kept.append(self.uplink_gate(kind))
            if not kept[-1]:
                self._delayed_uplinks.append(call)
        return [list(compress(column, kept)) for column in columns]

    def _replay_delayed_uplinks(self) -> None:
        """Deliver uplinks a fault schedule delayed into this cycle.

        Replays bypass the gate — a delayed message arrives at the next
        cycle boundary, it is not re-rolled into oblivion.  One the
        server now refuses (its query was unregistered meanwhile) is
        dropped and recorded, as it would have been refused on time.
        """
        if not self._delayed_uplinks:
            return
        pending, self._delayed_uplinks = self._delayed_uplinks, []
        gate, self.uplink_gate = self.uplink_gate, None
        try:
            for method, args in pending:
                try:
                    method(*args)
                except (KeyError, ValueError) as refused:
                    self.recorder.record(
                        "uplink_refused", uplink=method.__name__, error=str(refused)
                    )
        finally:
            self.uplink_gate = gate

    # ------------------------------------------------------------------
    # Client management
    # ------------------------------------------------------------------

    def register_client(
        self, client_id: int, downlink_budget: int | None = None
    ) -> ClientLink:
        """Register a client; ``downlink_budget`` (bytes per evaluation
        cycle) models a congested downstream channel — updates beyond
        the budget are lost in that cycle."""
        if client_id in self._links:
            raise KeyError(f"client {client_id} already registered")
        if downlink_budget is None:
            link: ClientLink = ClientLink(client_id, self.stats)
        else:
            link = ThrottledLink(client_id, downlink_budget, self.stats)
            self._throttled.append(link)
        self._links[client_id] = link
        self._queries_of_client[client_id] = set()
        return link

    def link_of(self, client_id: int) -> ClientLink:
        return self._links[client_id]

    def client_ids(self) -> list[int]:
        return sorted(self._links)

    def queries_of(self, client_id: int) -> frozenset[int]:
        return frozenset(self._queries_of_client[client_id])

    def client_of(self, qid: int) -> int:
        """The client that owns query ``qid``."""
        self._require_binding(qid)
        return self._owner[qid]

    def delivered_answer(self, qid: int) -> frozenset[int]:
        """The answer ``qid``'s client provably holds, as a set."""
        return frozenset(self.delivered_oids(qid).tolist())

    def delivered_oids(self, qid: int):
        """The answer ``qid``'s client provably holds, a sorted int64
        array — the live answer XOR its lag (∅ as the live answer before
        the query's first evaluation).  This, never the live answer, is
        what commits record."""
        return self.delivered_answers((qid,))[0]

    def delivered_answers(self, qids) -> list:
        """:meth:`delivered_oids` for a run of queries, in order: the
        live answers read off the key array's cut in one pass
        (:meth:`~repro.core.engine.IncrementalEngine.answer_arrays`),
        each XORed with its lag in Python."""
        lag = self._lag
        out = []
        for qid, live in zip(qids, self.engine.answer_arrays(qids)):
            held = lag.get(qid)
            if held:
                live = np.array(sorted(held.symmetric_difference(live.tolist())), np.int64)
            out.append(live)
        return out

    def take_mailed(self) -> set[int]:
        """The clients whose link accepted mail since the last call —
        what a transport has to flush; the note is then cleared."""
        mailed, self._mailed = self._mailed, set()
        return mailed

    # ------------------------------------------------------------------
    # Uplink: object reports
    # ------------------------------------------------------------------

    def receive_object_report(
        self,
        oid: int,
        location: Point,
        t: float,
        velocity: Velocity = Velocity.ZERO,
    ) -> None:
        """Ingest a location report.  With no uplink gate, history or
        armed recorder installed the engine buffers it and a plain int
        counts it, which the stats settle on read; otherwise it is a
        one-row :meth:`receive_object_reports`."""
        if self.uplink_gate is None and self.history is None and not self.recorder.enabled:
            self.engine.report_object(oid, location, t, velocity)
            self.stats.reports_taken += 1
        else:
            self.receive_object_reports(
                (oid,), (location.x,), (location.y,), (velocity.vx,), (velocity.vy,), (t,)
            )

    def receive_object_reports(self, oids, xs, ys, vxs, vys, ts) -> None:
        """Ingest a run of location reports given as aligned lists.  A
        row the engine refuses (``ValueError``) refuses the run with
        nothing counted, gated or buffered; a gate defers a row as a
        :meth:`receive_object_report` call.  The history archives what
        each row supersedes: the object's latest earlier report, be it
        an earlier row, the buffered report or the stored state."""
        if not oids:
            return
        engine = self.engine
        cxs, cys = engine.checked_reports(oids, xs, ys, vxs, vys, ts)
        if self.uplink_gate is not None:
            door = self.receive_object_report
            calls = [
                (door, (oid, Point(x, y), t, Velocity(vx, vy) if vx or vy else Velocity.ZERO))
                for oid, x, y, vx, vy, t in zip(oids, xs, ys, vxs, vys, ts)
            ]
            oids, cxs, cys, vxs, vys, ts = self._gated("object_report", calls, (oids, cxs, cys, vxs, vys, ts))
        if self.history is not None:
            latest, cancelled = {}, self._cancelled
            for oid, *row in zip(oids, cxs, cys, vxs, vys, ts):
                previous = latest.get(oid)
                if previous is None and oid not in cancelled:
                    previous = engine.latest_report(oid)
                cancelled.discard(oid)
                self._archive(oid, previous)
                latest[oid] = row
        if self.recorder.enabled:
            for oid, t in zip(oids, ts):
                self.recorder.record("uplink_report", oid=oid, t=t)
        engine.buffer_reports(oids, cxs, cys, vxs, vys, ts)
        self.stats.record_uplinks(ObjectReportMessage, len(oids))

    def _archive(self, oid: int, report) -> None:
        """Append a superseded ``(x, y, vx, vy, t)`` report, if any, to
        the history."""
        if report is not None:
            x, y, vx, vy, t = report
            self.history.append(LocationRecord(oid, Point(x, y), Velocity(vx, vy), t))

    def remove_object(self, oid: int) -> None:
        """An object leaves the system — an uplink message like any
        report, and accounted as one (8 identifier bytes).  A removal
        supersedes the buffered report it cancels: the history archives
        that report, and a later report of the batch archives nothing
        for the stored location it had superseded.  With a gate
        installed the oid is judged first against the engine's objects,
        its buffered reports and the gate's deferred ones (``KeyError``
        for none, as ungated); a removal whose object only a deferred
        report names is deferred behind it."""
        if self.uplink_gate is not None:
            report = self.receive_object_report
            if not self.engine.knows_object(oid):
                if not any(m == report and args[0] == oid for m, args in self._delayed_uplinks):
                    raise KeyError(f"cannot remove unknown object {oid}")
                self._delayed_uplinks.append((self.remove_object, (oid,)))
                return
            if not self._gated("object_removal", [(self.remove_object, (oid,))], [[oid]])[0]:
                return
        cancelled = self.engine.remove_object(oid)
        if self.history is not None and cancelled is not None:
            self._archive(oid, cancelled)
            self._cancelled.add(oid)
        self.stats.record_uplinks(ObjectRemovalMessage, 1)
        if self.recorder.enabled:
            self.recorder.record("uplink_removal", oid=oid)

    # ------------------------------------------------------------------
    # Uplink: query registration and movement
    # ------------------------------------------------------------------

    # An unknown client (``KeyError``) is refused before the engine
    # buffers the query, which would otherwise be evaluated unowned.

    def register_range_query(
        self, client_id: int, qid: int, region: Rect, t: float = 0.0
    ) -> None:
        self._require_client(client_id)
        self.engine.register_range_query(qid, region, t)
        self._bind(qid, client_id)

    def register_knn_query(
        self, client_id: int, qid: int, center: Point, k: int, t: float = 0.0
    ) -> None:
        self._require_client(client_id)
        self.engine.register_knn_query(qid, center, k, t)
        self._bind(qid, client_id)

    def register_predictive_query(
        self, client_id: int, qid: int, region: Rect, horizon: float, t: float = 0.0
    ) -> None:
        self._require_client(client_id)
        self.engine.register_predictive_query(qid, region, horizon, t)
        self._bind(qid, client_id)

    def receive_range_query_move(self, qid: int, region: Rect, t: float) -> None:
        """A moving range query reports its new region: a one-row
        :meth:`receive_query_moves`."""
        self.receive_query_moves((qid,), (QueryKind.RANGE,), (region,), (t,))

    def receive_knn_query_move(self, qid: int, center: Point, t: float) -> None:
        """A moving k-NN query reports its new center (a
        :class:`~repro.net.KnnMoveMessage` — 32 bytes on the wire, not
        a degenerate zero-area rectangle shoehorned into the 48-byte
        range-move encoding): a one-row :meth:`receive_query_moves`."""
        self.receive_query_moves((qid,), (QueryKind.KNN,), (center,), (t,))

    def receive_predictive_query_move(
        self, qid: int, region: Rect, t: float
    ) -> None:
        """A moving predictive query reports its new region: a one-row
        :meth:`receive_query_moves`."""
        self.receive_query_moves(
            (qid,), (QueryKind.PREDICTIVE_RANGE,), (region,), (t,)
        )

    def receive_query_moves(self, qids, kinds, targets, ts) -> None:
        """A run of query moves as aligned sequences — qid, its
        :class:`~repro.core.state.QueryKind`, its new region or center,
        time — buffered in order.

        Receiving anything from a moving query commits its latest answer
        — the uplink proves the client is connected and has received
        everything sent so far (clients always wake up before resuming
        uplink after an outage) — so the moved queries then commit as
        one run.  An unbound qid (``KeyError``), or a wrong kind or a
        value the engine refuses (``ValueError``,
        :meth:`~repro.core.engine.IncrementalEngine.check_move`), refuses
        the whole run before a row of it is counted, deferred or
        buffered.  An installed gate then judges each row in order,
        deferring a row as a call of its ``receive_<kind>_query_move``
        door; the recorder notes every remaining move, then every
        commit.
        """
        check = self.engine.check_move
        for qid, kind, target, t in zip(qids, kinds, targets, ts):
            self._require_binding(qid)
            check(qid, kind, target, t)
        if self.uplink_gate is not None:
            calls = [
                (getattr(self, f"receive_{kind.value}_query_move"), (qid, target, t))
                for qid, kind, target, t in zip(qids, kinds, targets, ts)
            ]
            qids, kinds, targets, ts = self._gated("query_move", calls, (qids, kinds, targets, ts))
        buffer_move = self.engine.buffer_move
        knn = 0
        for qid, kind, target, t in zip(qids, kinds, targets, ts):
            knn += kind is QueryKind.KNN
            if self.recorder.enabled:
                self.recorder.record("uplink_move", qid=qid, query=kind.value, t=t)
            buffer_move(qid, kind, target, t)
        self.stats.record_uplinks(KnnMoveMessage, knn)
        self.stats.record_uplinks(QueryRegionMessage, len(qids) - knn)
        self._commit(qids, "uplink", True)

    def receive_commit(self, qid: int) -> None:
        """Explicit commit from a stationary query's client: a one-row
        :meth:`receive_commits`.

        Commits the *delivered* answer state, not the live engine
        answer: the client is acknowledging what it holds, and what it
        holds is exactly the updates the link accepted.  The two only
        differ when downlink messages were dropped (throttling, an
        unnoticed outage) — precisely when committing the live answer
        would violate the commit invariant.
        """
        self.receive_commits((qid,))

    def receive_commits(self, qids) -> None:
        """Explicit commits, a run of qids in arrival order, accounted
        once.  An unbound qid (``KeyError``) refuses the whole run
        before an installed gate judges its rows, deferring a row as a
        :meth:`receive_commit` call."""
        for qid in qids:
            self._require_binding(qid)
        if self.uplink_gate is not None:
            (qids,) = self._gated("commit", [(self.receive_commit, (qid,)) for qid in qids], [qids])
        self.stats.record_uplinks(CommitMessage, len(qids))
        self._commit(qids, "explicit", True)

    def adopt_query(self, qid: int, client_id: int) -> None:
        """Bind an engine query that already exists (restored from a
        checkpoint) to its owning client."""
        if qid not in self.engine.queries:
            raise KeyError(f"engine has no query {qid}")
        self._require_client(client_id)
        self._bind(qid, client_id)

    def unregister_query(self, qid: int) -> None:
        client_id = self._owner.pop(qid, None)
        if client_id is None:
            raise KeyError(f"unknown query {qid}")
        self._queries_of_client[client_id].discard(qid)
        self._rebound.append((qid, None))
        self._lag.pop(qid, None)
        self.commits.forget(qid)
        self.engine.unregister_query(qid)

    # ------------------------------------------------------------------
    # Uplink: wakeup / recovery
    # ------------------------------------------------------------------

    def receive_wakeup(self, client_id: int) -> UpdateBatch:
        """Resynchronise a reconnecting client (Section 3.3).

        For every query the client owns, diff the current answer against
        the committed one and ship only that delta.  Only the answer
        state *actually delivered* is then committed: each recovery
        update the link accepts advances the committed base, while a
        throttled or re-dropped one leaves its object out of the commit
        — the query stays partially committed and the next wakeup
        re-sends exactly the missing delta.  (Committing the full
        current answer here regardless of delivery would desync a
        congested client forever: the server would diff future
        recoveries against a base the client never reached.)

        A wakeup whose delta did not fit walks the client's queries
        from past the last one its predecessor delivered to, so a
        budget smaller than one wakeup's delta rotates over every
        lagging query instead of starving all but the lowest qids.

        Returns the updates delivered (an
        :class:`~repro.core.updates.UpdateBatch`), for observability.
        """
        link = self._wake(client_id)
        owned = sorted(self._queries_of_client[client_id])
        resume = self._resume_after.get(client_id)
        if resume is not None:
            cut = bisect_right(owned, resume)
            owned = owned[cut:] + owned[:cut]
        last_served = None
        behind = False
        with self.tracer.span("recovery"):
            # Each delta flips the client's committed answer to the live
            # one like a cycle: once shipped, the lag is its refused part.
            # The deltas ship as one slice, a query after the other in
            # order, so the freshness tracker takes the wakeup as one
            # delivery.
            deltas, sizes = UpdateBatch(), []
            for qid, live in zip(owned, self.engine.answer_arrays(owned)):
                self._lag.pop(qid, None)
                before = len(deltas)
                self.commits.recovery_updates(qid, live, into=deltas)
                sizes.append(len(deltas) - before)
            columns = (deltas.qids, deltas.oids, deltas.signs)
            sent = self._ship(_Slices(columns, [(link, 0, len(deltas))]))[1]
            shipped = Counter(sent.qids)
            for qid, size in zip(owned, sizes):
                if shipped[qid]:
                    last_served = qid
                behind |= shipped[qid] < size
            self._commit(owned, "wakeup")
        if not behind:
            self._resume_after.pop(client_id, None)
        elif last_served is not None:
            self._resume_after[client_id] = last_served
        self._notify("on_wakeup_end", client_id)
        self._m_recovery_updates.inc(len(sent))
        self.recorder.record(
            "wakeup_end", client=client_id, recovered=len(sent)
        )
        return sent

    def recover_naive(self, client_id: int) -> int:
        """The naive wakeup alternative: retransmit every full answer.

        Returns the bytes delivered; used by the recovery ablation
        benchmark.  Mirrors :meth:`receive_wakeup`'s accounting — the
        same prologue (:meth:`_wake`), ``wakeup_end``, and every
        full-answer member attributed in the freshness tracker — so the
        ablation compares recovery strategies, not bookkeeping
        asymmetries.  A
        full answer the link rejects leaves the query uncommitted and
        its client at the committed answer it rolled back to; the next
        recovery attempt retries it.
        """
        link = self._wake(client_id, via="naive")
        freshness = self.freshness
        total = 0
        committed = []
        # A delivered full answer lands every member at once, as one query
        # run — the shape of a wakeup delta; the runs of all of them are
        # attributed as one delivery before the commits.
        runs: list[tuple[int, int, int]] = []
        members: list[int] = []
        owned = sorted(self._queries_of_client[client_id])
        for qid, live in zip(owned, self.engine.answer_arrays(owned)):
            answer = frozenset(live.tolist())
            message = FullAnswerMessage(qid, answer)
            if link.deliver(message):
                self._mailed.add(client_id)
                total += message.size_bytes
                committed.append(qid)
                if answer:
                    runs.append((qid, len(members), len(members) + len(answer)))
                    members += answer
                self.commits.commit(qid, live)
                self.recorder.record("commit", qid=qid, via="naive_recovery")
            else:
                for oid in answer:
                    freshness.observe_undelivered(qid, oid, 1)
            self._seed_lag(qid)
        freshness.observe_delivered_runs(runs, members, [1] * len(members))
        freshness.observe_committed(committed)
        recovered = len(committed)
        self._notify("on_wakeup_end", client_id)
        self.recorder.record(
            "wakeup_end", client=client_id, via="naive", recovered=recovered
        )
        return total

    def _wake(self, client_id: int, **via) -> ClientLink:
        """What every wakeup does first — account its uplink, note it
        (``via`` tags the recorder's ``wakeup_begin``), reconnect the
        link with a fresh cycle's budget, tell the observers — and the
        client's link; an unknown client is refused before any of it."""
        link = self._links[client_id]
        self.stats.record_uplinks(WakeupMessage, 1)
        self._m_wakeups.inc()
        self.recorder.record("wakeup_begin", client=client_id, **via)
        link.reconnect()
        if isinstance(link, ThrottledLink):
            link.new_cycle()
        self._notify("on_wakeup_begin", client_id)
        return link

    # ------------------------------------------------------------------
    # Evaluation cycles
    # ------------------------------------------------------------------

    def evaluate_cycle(self, now: float) -> CycleResult:
        """Run one bulk evaluation and ship updates to owners.

        The whole cycle runs inside a ``cycle`` tracer span (nesting
        the engine's phase spans and the ``downlink`` ship span) whose
        latency lands in the ``server_cycle_seconds`` histogram.
        """
        self._replay_delayed_uplinks()
        self.stats.settle()
        with self.tracer.span("cycle", histogram=self._m_cycle_seconds):
            for link in self._throttled:
                link.new_cycle()
            updates = self.engine.evaluate(now)
            self._cancelled.clear()
            complete_bytes, answer_objects = self._answer_totals()
            with self.tracer.span("downlink"):
                attempted, delivered = self._ship(self._client_slices(updates))
        result = CycleResult(
            now=now,
            updates=updates,
            incremental_bytes=attempted * UpdateMessage.size_bytes,
            complete_bytes=complete_bytes,
            delivered_updates=len(delivered),
            dropped_updates=attempted - len(delivered),
            answer_objects=answer_objects,
        )
        self._m_updates_delivered.inc(result.delivered_updates)
        self._m_updates_dropped.inc(result.dropped_updates)
        self._m_incremental_bytes.inc(result.incremental_bytes)
        self._m_complete_bytes.inc(result.complete_bytes)
        self._m_savings_ratio.set(result.savings_ratio)
        return result

    def _client_slices(self, updates) -> _Slices:
        """The stream's rows grouped by owning client, clients ascending:
        every engine phase emits per query, so the stream is a sequence
        of query runs; each run's owner is read off the binding table
        (a run of a query unregistered in this batch has none and is
        dropped), and one stable sort of the runs by client keeps stream
        order within a client.  The rows are gathered into one sorted
        copy of each column, of which a link's slice is a view."""
        qids, oids, signs = updates.columns()
        bound, owners = self._owners()
        starts = np.flatnonzero(np.concatenate(([True], qids[1:] != qids[:-1])))[: len(qids)]
        lengths = np.diff(np.append(starts, len(qids)))
        at = np.searchsorted(bound, qids[starts]).clip(max=max(len(bound) - 1, 0))
        runs = np.flatnonzero(bound[at] == qids[starts]) if len(bound) else at[:0]
        runs = runs[np.argsort(owners[at[runs]], kind="stable")]
        clients = owners[at[runs]]
        rows = ragged_arange(starts[runs], lengths[runs], np)[1]
        first = np.flatnonzero(np.concatenate(([True], clients[1:] != clients[:-1])))[: len(runs)]
        cuts = np.append(0, np.cumsum(lengths[runs]))[np.append(first, len(runs))].tolist()
        links = map(self._links.__getitem__, clients[first].tolist())
        return _Slices(
            (qids[rows], oids[rows], signs[rows]), list(zip(links, cuts, cuts[1:]))
        )

    def _owners(self) -> tuple:
        """The qid -> client table as ``(qids ascending, clients)`` int64
        columns, with the bindings made since the last read merged in:
        the latest binding of a qid wins, and an unbinding drops it."""
        if self._rebound:
            rebound, self._rebound = self._rebound, []
            bound, owners = self._owner_columns
            qids = np.concatenate((bound, [qid for qid, _ in rebound]), dtype=np.int64)
            owners = np.concatenate((owners, [c or 0 for _, c in rebound]), dtype=np.int64)
            live = np.concatenate((np.ones(len(bound), bool), [c is not None for _, c in rebound]))
            latest = len(qids) - 1 - np.unique(qids[::-1], return_index=True)[1]
            latest = latest[live[latest]]
            self._owner_columns = qids[latest], owners[latest]
        return self._owner_columns

    def _ship(self, slices: _Slices) -> tuple[int, UpdateBatch]:
        """Deliver ``slices``, each through its link's one door, then do
        the bookkeeping every delivery owes once for all of them; returns
        the number of updates attempted and the batch of those delivered.
        Evaluation cycles and wakeup recovery both ship here, so the lag
        behind :meth:`delivered_answer`, the freshness attribution and
        the flight recorder cannot disagree about what a link accepted.
        """
        qids, oids, signs = (np.asarray(column, dtype=np.int64) for column in slices.columns)
        recorder, mailed, refused = self.recorder, self._mailed, []
        for link, slice_qids, slice_oids, slice_signs, start in slices:
            if not len(slice_qids):
                continue
            verdicts = link.deliver_updates(slice_qids, slice_oids, slice_signs)
            if verdicts is None or verdicts.any():
                mailed.add(link.client_id)
            if verdicts is not None:
                refused.append((start, verdicts))
            if recorder.enabled:
                rows = (column[start : start + len(slice_qids)].tolist() for column in (qids, oids, signs))
                oks = repeat(True) if verdicts is None else verdicts.tolist()
                for qid, oid, sign, ok in zip(*rows, oks):
                    recorder.record("downlink", qid=qid, oid=oid, sign=sign, ok=ok)
        kept = None
        if refused:
            kept = np.ones(len(qids), dtype=bool)
            for start, verdicts in refused:
                kept[start : start + len(verdicts)] = verdicts
        self._settle_lag(qids, oids, signs, kept)
        attempted = len(qids)
        if kept is not None:
            qids, oids, signs = qids[kept], oids[kept], signs[kept]
        self.freshness.observe_delivered_rows(qids, oids, signs)
        return attempted, UpdateBatch(qids, oids, signs)

    def _settle_lag(self, qids, oids, signs, kept) -> None:
        """Bring the lag up to date with a shipment, ``kept`` the mask of
        the rows delivered (``None``: all), row by row over the queries
        that lag or had a row refused: a delivered update discards its
        oid from its query's lag and a refused one toggles it."""
        lag = self._lag
        lagging = set(lag) if kept is None else {*lag, *qids[~kept].tolist()}
        if not lagging:
            return
        rows = np.flatnonzero(np.isin(qids, np.fromiter(lagging, np.int64, len(lagging))))
        oks = repeat(True) if kept is None else kept[rows].tolist()
        for qid, oid, sign, ok in zip(qids[rows].tolist(), oids[rows].tolist(), signs[rows].tolist(), oks):
            held = lag.get(qid, set())
            if ok:
                held.discard(oid)
            else:
                self.freshness.observe_undelivered(qid, oid, sign)
                held ^= {oid}
            if held:
                lag[qid] = held
            else:
                lag.pop(qid, None)

    def savings_ratio(self) -> float:
        """Cumulative incremental bytes as a fraction of the complete
        answers a snapshot server would have shipped instead.

        0.0 before the first cycle and over cycles with no registered
        queries (zero complete-answer bytes): an empty denominator
        means "nothing to save yet", never a ``ZeroDivisionError``.
        """
        complete = self._m_complete_bytes.value
        if complete == 0:
            return 0.0
        return self._m_incremental_bytes.value / complete

    def freshness_vs_savings(self) -> dict[str, object]:
        """The paper's bandwidth savings paired with the staleness its
        laziness costs — one JSON-ready snapshot.

        The incremental protocol's whole case is this trade: Figure 5's
        byte savings are only meaningful alongside how stale the
        committed answers are allowed to get (throttled clients sit at
        the tail of the commit-stage distribution).
        """
        return {
            "savings_ratio": self.savings_ratio(),
            "incremental_bytes": int(self._m_incremental_bytes.value),
            "complete_bytes": int(self._m_complete_bytes.value),
            "staleness": self.freshness.snapshot(),
        }

    def complete_answer_bytes(self) -> int:
        """Bytes a snapshot server would ship: every full answer, every cycle."""
        return self._answer_totals()[0]

    def _answer_totals(self) -> tuple[int, int]:
        """``(complete-answer bytes, answer members)`` over all queries:
        a full answer's size is linear in its member count, so the total
        is arithmetic on the query count and the members."""
        sizes = self.engine.answer_sizes()
        members = int(sizes.sum())
        per_member = full_answer_bytes(1) - full_answer_bytes(0)
        return len(sizes) * full_answer_bytes(0) + members * per_member, members

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_client(self, client_id: int) -> None:
        if client_id not in self._links:
            raise KeyError(f"unknown client {client_id}")

    def _bind(self, qid: int, client_id: int) -> None:
        self._owner[qid] = client_id
        self._rebound.append((qid, client_id))
        self._queries_of_client[client_id].add(qid)
        # A checkpoint-adopted query starts from its committed answer
        # (the client held it before the restart); a fresh one from ∅.
        self._seed_lag(qid)

    def _seed_lag(self, qid: int) -> None:
        """Lag ``qid`` for a client that holds its committed answer."""
        held = np.setxor1d(
            self.engine.answer_arrays((qid,))[0],
            self.commits.committed_oids(qid),
            assume_unique=True,
        )
        if len(held):
            self._lag[qid] = set(held.tolist())
        else:
            self._lag.pop(qid, None)

    def _commit(self, qids, via: str, notify: bool = False) -> None:
        """Commit each of ``qids``' delivered answer, in order — one read
        of the delivered answers and one freshness attribution for the
        run — then, with ``notify``, tell the observers qid by qid."""
        commit = self.commits.commit
        for qid, held in zip(qids, self.delivered_answers(qids)):
            commit(qid, held)
        self.freshness.observe_committed(qids)
        if self.recorder.enabled:
            for qid in qids:
                self.recorder.record("commit", qid=qid, via=via)
        if notify and self._observers:
            for qid in qids:
                for observer in self._observers:
                    observer.on_commit(qid)

    def _require_binding(self, qid: int) -> None:
        if qid not in self._owner:
            raise KeyError(f"unknown query {qid}")
