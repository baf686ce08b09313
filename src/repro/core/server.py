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
  becomes persistent and is stored in a repository server").

The server never observes link state when sending — updates to a
disconnected client are simply lost, which is exactly why the commit
protocol exists.  Commits happen only on uplink evidence: any message
from a moving query, an explicit commit message from a stationary one,
or the completion of a wakeup resynchronisation.

Nor does the server walk its clients: a cycle costs what was reported
and what changed.  The links with a byte budget to reset are listed at
registration, and the clients whose link accepted mail are noted as it
ships (:meth:`LocationAwareServer.take_mailed`) — the only links a
transport has to flush.

**Commit invariant (committed ⊆ delivered).**  The committed-answer
repository must never get *ahead* of what a client actually received:
a committed answer the client does not hold poisons every future
recovery diff (the server diffs against a base the client never
reached, so stale members are never retracted).  The server therefore
tracks, per query, the answer state proven delivered — the committed
base plus every update ``link.deliver`` accepted since — and commits
only that.  A throttled or re-dropped recovery update simply leaves
the query behind the live answer; the next wakeup re-sends the missing
delta, and repeated wakeups converge because each one advances the
committed base by whatever did fit.  The
:class:`repro.check.ConsistencyOracle` enforces this invariant under
the :mod:`repro.faults` chaos schedules.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, repeat

from repro.core.commit import CommittedAnswerStore
from repro.core.engine import DEFAULT_WORLD, IncrementalEngine
from repro.core.state import QueryKind
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect, Velocity
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


#: Owner of an update whose query has no binding (unregistered in the
#: same batch); sorts before every client id.
_NO_OWNER = float("-inf")


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


@dataclass(slots=True)
class _QueryBinding:
    """Server-side metadata for one registered query."""

    qid: int
    client_id: int
    moving: bool = False


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
        pipeline: str = "columnar",
        recorder: FlightRecorder | None = None,
    ):
        """``engine`` lets a restarted server adopt a checkpoint-restored
        engine instead of starting empty; bind its queries to clients
        with :meth:`adopt_query`.

        ``pipeline`` picks the constructed engine's evaluation path
        (ignored when ``engine`` is supplied): ``"columnar"``, the
        production path, or ``"per-object"``, the reference.

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
                pipeline=pipeline,
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
        self._bindings: dict[int, _QueryBinding] = {}
        self._queries_of_client: dict[int, set[int]] = {}
        # Per-query answer state proven delivered to the owning client:
        # the committed base plus every update deliver() accepted since.
        # This — never the live engine answer — is what commits record.
        self._delivered_answers: dict[int, set[int]] = {}
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

    def _gate(self, kind: str, method, args: tuple) -> bool:
        """Apply the installed uplink fault gate; True means "process
        now".  The ``receive_*`` methods test ``uplink_gate is not
        None`` inline first, so an ungated uplink never pays this call."""
        if self.uplink_gate(kind):
            return True
        self._delayed_uplinks.append((method, args))
        return False

    def _replay_delayed_uplinks(self) -> None:
        """Deliver uplinks a fault schedule delayed into this cycle.

        Replays bypass the gate — a delayed message arrives at the next
        cycle boundary, it is not re-rolled into oblivion.
        """
        if not self._delayed_uplinks:
            return
        pending, self._delayed_uplinks = self._delayed_uplinks, []
        gate, self.uplink_gate = self.uplink_gate, None
        try:
            for method, args in pending:
                method(*args)
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
        return self._bindings[qid].client_id

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
        """Ingest a location report, persisting the superseded location."""
        if self.uplink_gate is not None and not self._gate(
            "object_report",
            self.receive_object_report,
            (oid, location, t, velocity),
        ):
            return
        self.stats.record_uplink(ObjectReportMessage)
        if self.recorder.enabled:
            self.recorder.record("uplink_report", oid=oid, t=t)
        if self.history is not None:
            previous = self.engine.objects.get(oid)
            if previous is not None:
                self.history.append(
                    LocationRecord(
                        oid, previous.location, previous.velocity, previous.t
                    )
                )
        self.engine.report_object(oid, location, t, velocity)

    def receive_object_reports(self, oids, xs, ys, vxs, vys, ts) -> bool:
        """Ingest a run of location reports given as aligned lists —
        what :meth:`receive_object_report` row by row would leave
        behind, accounted once.  True when the run went to the engine
        as columns (then a non-finite coordinate refuses the whole
        call, nothing accounted).

        An uplink gate, an armed flight recorder and a history
        repository are per message by contract — each may defer, record
        or persist one report — so with any of them installed the rows
        go through :meth:`receive_object_report` one by one.
        """
        if (
            self.uplink_gate is not None
            or self.recorder.enabled
            or self.history is not None
        ):
            for oid, x, y, vx, vy, t in zip(oids, xs, ys, vxs, vys, ts):
                self.receive_object_report(
                    oid,
                    Point(x, y),
                    t,
                    Velocity(vx, vy) if vx or vy else Velocity.ZERO,
                )
            return False
        self.engine.report_objects(oids, xs, ys, vxs, vys, ts)
        self.stats.record_uplinks(ObjectReportMessage, len(oids))
        return True

    def remove_object(self, oid: int) -> None:
        """An object leaves the system — an uplink message like any
        report, and accounted as one (8 identifier bytes)."""
        if self.uplink_gate is not None and not self._gate(
            "object_removal", self.remove_object, (oid,)
        ):
            return
        self.stats.record_uplink(ObjectRemovalMessage)
        if self.recorder.enabled:
            self.recorder.record("uplink_removal", oid=oid)
        self.engine.remove_object(oid)

    # ------------------------------------------------------------------
    # Uplink: query registration and movement
    # ------------------------------------------------------------------

    def register_range_query(
        self, client_id: int, qid: int, region: Rect, t: float = 0.0
    ) -> None:
        self.engine.register_range_query(qid, region, t)
        self._bind(qid, client_id)

    def register_knn_query(
        self, client_id: int, qid: int, center: Point, k: int, t: float = 0.0
    ) -> None:
        self.engine.register_knn_query(qid, center, k, t)
        self._bind(qid, client_id)

    def register_predictive_query(
        self, client_id: int, qid: int, region: Rect, horizon: float, t: float = 0.0
    ) -> None:
        self.engine.register_predictive_query(qid, region, horizon, t)
        self._bind(qid, client_id)

    def receive_range_query_move(self, qid: int, region: Rect, t: float) -> None:
        """A moving range query reports its new region.

        Receiving anything from a moving query commits its latest answer
        — the uplink proves the client is connected and has received
        everything sent so far (clients always wake up before resuming
        uplink after an outage).  A move of the wrong kind for its query
        is refused (``ValueError``) before any gate could defer it into
        the next cycle.
        """
        self.engine.check_kind(qid, QueryKind.RANGE)
        if self.uplink_gate is not None and not self._gate(
            "query_move", self.receive_range_query_move, (qid, region, t)
        ):
            return
        self.stats.record_uplink(QueryRegionMessage)
        if self.recorder.enabled:
            self.recorder.record("uplink_move", qid=qid, query="range", t=t)
        self.engine.move_range_query(qid, region, t)
        self._commit_on_uplink(qid)

    def receive_knn_query_move(self, qid: int, center: Point, t: float) -> None:
        """A moving k-NN query reports its new center (a
        :class:`~repro.net.KnnMoveMessage` — 32 bytes on the wire, not
        a degenerate zero-area rectangle shoehorned into the 48-byte
        range-move encoding)."""
        self.engine.check_kind(qid, QueryKind.KNN)
        if self.uplink_gate is not None and not self._gate(
            "query_move", self.receive_knn_query_move, (qid, center, t)
        ):
            return
        self.stats.record_uplink(KnnMoveMessage)
        if self.recorder.enabled:
            self.recorder.record("uplink_move", qid=qid, query="knn", t=t)
        self.engine.move_knn_query(qid, center, t)
        self._commit_on_uplink(qid)

    def receive_predictive_query_move(
        self, qid: int, region: Rect, t: float
    ) -> None:
        self.engine.check_kind(qid, QueryKind.PREDICTIVE_RANGE)
        if self.uplink_gate is not None and not self._gate(
            "query_move", self.receive_predictive_query_move, (qid, region, t)
        ):
            return
        self.stats.record_uplink(QueryRegionMessage)
        if self.recorder.enabled:
            self.recorder.record(
                "uplink_move", qid=qid, query="predictive", t=t
            )
        self.engine.move_predictive_query(qid, region, t)
        self._commit_on_uplink(qid)

    def receive_commit(self, qid: int) -> None:
        """Explicit commit from a stationary query's client.

        Commits the *delivered* answer state, not the live engine
        answer: the client is acknowledging what it holds, and what it
        holds is exactly the updates the link accepted.  The two only
        differ when downlink messages were dropped (throttling, an
        unnoticed outage) — precisely when committing the live answer
        would violate the commit invariant.
        """
        if self.uplink_gate is not None and not self._gate(
            "commit", self.receive_commit, (qid,)
        ):
            return
        self.stats.record_uplink(CommitMessage)
        self._require_binding(qid)
        self.commits.commit(qid, frozenset(self._delivered_answers[qid]))
        self.freshness.observe_committed(qid)
        self.recorder.record("commit", qid=qid, via="explicit")
        self._notify("on_commit", qid)

    def adopt_query(self, qid: int, client_id: int) -> None:
        """Bind an engine query that already exists (restored from a
        checkpoint) to its owning client."""
        if qid not in self.engine.queries:
            raise KeyError(f"engine has no query {qid}")
        self._bind(qid, client_id)

    def unregister_query(self, qid: int) -> None:
        binding = self._bindings.pop(qid, None)
        if binding is None:
            raise KeyError(f"unknown query {qid}")
        self._queries_of_client[binding.client_id].discard(qid)
        self._delivered_answers.pop(qid, None)
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

        Returns the updates delivered (an
        :class:`~repro.core.updates.UpdateBatch`), for observability.
        """
        self.stats.record_uplink(WakeupMessage)
        self._m_wakeups.inc()
        self.recorder.record("wakeup_begin", client=client_id)
        link = self._links[client_id]
        link.reconnect()
        if isinstance(link, ThrottledLink):
            # The recovery response gets a fresh cycle's worth of budget.
            link.new_cycle()
        self._notify("on_wakeup_begin", client_id)
        sent = UpdateBatch()
        with self.tracer.span("recovery"):
            for qid in sorted(self._queries_of_client[client_id]):
                # The client rolled back to the committed answer; every
                # delivered update moves this base toward the live one.
                self._delivered_answers[qid] = set(
                    self.commits.committed_answer(qid)
                )
                delta = self.commits.recovery_updates(
                    qid, self.engine.answer_of(qid), into=UpdateBatch()
                )
                sent.extend(
                    self._ship([(link, delta.qids, delta.oids, delta.signs)])[1]
                )
                self.commits.commit(
                    qid, frozenset(self._delivered_answers[qid])
                )
                self.freshness.observe_committed(qid)
                self.recorder.record("commit", qid=qid, via="wakeup")
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
        wakeup uplink is recorded in :class:`NetworkStats`, a throttled
        link gets a fresh cycle budget, the flight recorder sees
        ``wakeup_begin``/``wakeup_end``, and every full-answer member
        is attributed in the freshness tracker — so the ablation
        compares recovery strategies, not bookkeeping asymmetries.  A
        full answer the link rejects leaves the query uncommitted; the
        next recovery attempt retries it.
        """
        self.stats.record_uplink(WakeupMessage)
        self._m_wakeups.inc()
        self.recorder.record("wakeup_begin", client=client_id, via="naive")
        link = self._links[client_id]
        link.reconnect()
        if isinstance(link, ThrottledLink):
            link.new_cycle()
        self._notify("on_wakeup_begin", client_id)
        freshness = self.freshness
        total = 0
        recovered = 0
        for qid in sorted(self._queries_of_client[client_id]):
            answer = self.engine.answer_of(qid)
            message = FullAnswerMessage(qid, answer)
            if link.deliver(message):
                self._mailed.add(client_id)
                total += message.size_bytes
                recovered += 1
                # A delivered full answer lands every member at once;
                # attribute each one exactly as the incremental path
                # attributes its recovery updates.
                freshness.observe_delivered_many(
                    repeat(qid), answer, repeat(1)
                )
                self._delivered_answers[qid] = set(answer)
                self.commits.commit(qid, answer)
                freshness.observe_committed(qid)
                self.recorder.record("commit", qid=qid, via="naive_recovery")
            else:
                for oid in answer:
                    freshness.observe_undelivered(qid, oid, 1)
        self._notify("on_wakeup_end", client_id)
        self.recorder.record(
            "wakeup_end", client=client_id, via="naive", recovered=recovered
        )
        return total

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
        with self.tracer.span("cycle", histogram=self._m_cycle_seconds):
            for link in self._throttled:
                link.new_cycle()
            updates = self.engine.evaluate(now)
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

    def _client_slices(self, updates):
        """Split an update stream into one column slice per owning
        client: ``(link, qids, oids, signs)``, stream order kept within
        each slice.

        One **stable** sort by owning client groups the whole batch —
        links are independent FIFO channels with per-link cycle
        budgets, so per-link delivery outcomes (and the commit and
        freshness bookkeeping derived from them) do not depend on how
        the clients' slices interleave.  Updates of queries
        unregistered in this same batch have no owner and are skipped.
        """
        qids, oids, signs = updates.qids, updates.oids, updates.signs
        bindings = self._bindings
        owner_of = {
            qid: bindings[qid].client_id if qid in bindings else _NO_OWNER
            for qid in set(qids)
        }
        owners = [owner_of[qid] for qid in qids]
        order = sorted(range(len(owners)), key=owners.__getitem__)
        qids = [qids[i] for i in order]
        oids = [oids[i] for i in order]
        signs = [signs[i] for i in order]
        links = self._links
        stop = 0
        for client_id, count in sorted(Counter(owners).items()):
            start, stop = stop, stop + count
            if client_id in links:
                yield (
                    links[client_id],
                    qids[start:stop],
                    oids[start:stop],
                    signs[start:stop],
                )

    def _ship(self, slices) -> tuple[int, UpdateBatch]:
        """Deliver ``(link, qids, oids, signs)`` column slices and do
        the bookkeeping every delivery owes; returns the number of
        updates attempted and the batch of those delivered.

        The one ship routine: evaluation cycles and wakeup recovery
        both come through here, so the delivered-answer view, the
        freshness attribution and the flight recorder cannot disagree
        about what a link accepted.
        """
        attempted = 0
        delivered = UpdateBatch()
        recorder = self.recorder
        for link, qids, oids, signs in slices:
            if not qids:
                continue
            attempted += len(qids)
            verdicts = link.deliver_updates(qids, oids, signs)
            if verdicts is None or True in verdicts:
                self._mailed.add(link.client_id)
            if recorder.enabled:
                for qid, oid, sign, ok in zip(
                    qids, oids, signs, verdicts or repeat(True)
                ):
                    recorder.record(
                        "downlink", qid=qid, oid=oid, sign=sign, ok=ok
                    )
            if verdicts is not None:
                for qid, oid, sign, ok in zip(qids, oids, signs, verdicts):
                    if not ok:
                        self.freshness.observe_undelivered(qid, oid, sign)
                qids = compress(qids, verdicts)
                oids = compress(oids, verdicts)
                signs = compress(signs, verdicts)
            delivered.extend_columns(qids, oids, signs)
        # Advance the proven-delivered view so the next uplink-triggered
        # commit records what the client actually holds.
        answers = self._delivered_answers
        run_qid = None
        for qid, oid, sign in delivered.tuples():
            if qid != run_qid:
                run_qid = qid
                answer = answers[qid]
            if sign == 1:
                answer.add(oid)
            else:
                answer.discard(oid)
        self.freshness.observe_delivered_many(
            delivered.qids, delivered.oids, delivered.signs
        )
        return attempted, delivered

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
        """``(complete-answer bytes, answer members)`` over all queries."""
        sizes = [len(query.answer) for query in self.engine.queries.values()]
        return sum(map(full_answer_bytes, sizes)), sum(sizes)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _bind(self, qid: int, client_id: int) -> None:
        if client_id not in self._links:
            raise KeyError(f"unknown client {client_id}")
        self._bindings[qid] = _QueryBinding(qid, client_id)
        self._queries_of_client[client_id].add(qid)
        # A checkpoint-adopted query starts from its committed answer
        # (the client held it before the restart); a fresh one from ∅.
        self._delivered_answers[qid] = set(self.commits.committed_answer(qid))

    def _commit_on_uplink(self, qid: int) -> None:
        self._require_binding(qid)
        self._bindings[qid].moving = True
        self.commits.commit(qid, frozenset(self._delivered_answers[qid]))
        self.freshness.observe_committed(qid)
        self.recorder.record("commit", qid=qid, via="uplink")
        self._notify("on_commit", qid)

    def _require_binding(self, qid: int) -> None:
        if qid not in self._bindings:
            raise KeyError(f"unknown query {qid}")
