"""The shared, incremental continuous-query engine.

This is the paper's contribution (Section 3): one uniform grid holds
both objects and queries ("queries are indexed in the same way as data");
location reports and query movements are *buffered* and evaluated in
bulk; each evaluation emits only positive/negative updates relative to
the previously reported answers.

Incrementality per query kind:

* **Range** — when a query's region moves from ``A_old`` to ``A_new``,
  answer members outside ``A_new`` produce negative updates, and only
  the difference area ``A_new - A_old`` is searched for positives ("the
  area A_new ∩ A_old does not need to be reevaluated where the query
  result of this area is already reported").  Object moves touch only
  the queries sharing a grid cell with the object's old or new position.
* **k-NN** — maintained as the smallest circle containing the k nearest
  objects.  Object movement marks a k-NN query dirty only when the move
  touches the circle's grid footprint (or the object was an answer
  member); dirty queries are re-solved with an expanding ring search
  around their center and the *answer difference* is emitted.
* **Predictive range** — objects carrying velocity vectors occupy the
  grid footprint of their predicted trajectory; a predictive
  query's answer is the set of objects whose extrapolated motion enters
  its region within the query's horizon.  Because the horizon window
  slides with evaluation time, predictive answers must be re-filtered
  from the query's (small) candidate cell set — but only when either
  the candidate set changed (report churn in the footprint cells) or
  the sliding window actually reached the next membership flip time.

Bulk evaluation runs as the **columnar pipeline** (the paper's
Section 3 point: buffered updates are evaluated as a grid-partition
spatial join, not one at a time).  The batch's object reports are
grouped by their (old home cell → new home cell) transition — one per
report, whatever its velocity; a predictive object's swept footprint is
cell churn only — and joined against the range queries listed in those
cells as batch array kernels over struct-of-arrays object and query
state (:mod:`repro.columnar`, on numpy).  An object's store row is the
only record of it — ``engine.objects`` is a read-only mapping that
materialises an :class:`ObjectState` per access, and the grid index
holds queries only on this path — and a query's ``answer`` set is the
only record of its answer.  The *query* side of a cycle is
columnar too: a batch's range-query registrations and moves, every dirty
k-NN query and every predictive refresh run as array passes over a
home-cell CSR of the object store (:meth:`ColumnarEvaluator.fill_ranges`,
``move_ranges``, ``knn_ranked``, ``predictive_refresh``); only a
flip-due predictive query walks its verdicts in Python, to schedule its
next flip.
``engine_query_moves_total{path}``, ``engine_knn_repairs_total{path}``
and ``engine_predictive_refreshes_total{path}`` say which ran.

``pipeline="per-object"`` is the reference: one report at a time, each
applied to its :class:`ObjectState` — the paper's object entry ``(OID,
loc, t, QList)``, whose ``answered`` set only this path keeps — placed in
the grid index's object buckets and re-deriving its candidate queries
from the grid, with the scalar ``_move_range`` / ring-search
``knn_search`` / ``_refresh_one_predictive`` routines for the query side
and every predictive query refreshed every cycle.  It is short on
purpose; the columnar pipeline must leave every query with the same
multiset of ``(oid, sign)`` updates per evaluation and the same answers (the lock-step state machine in
``tests/core/test_lockstep.py`` holds it to that).

Every phase of ``evaluate()`` is wall-clock timed: each phase runs
inside a :class:`repro.obs.Tracer` span (exported to Chrome trace JSON)
whose duration also accumulates into the engine's
``engine_phase_seconds_total{phase=...}`` counters on its
:class:`repro.obs.MetricsRegistry`.  The public ``stats`` property
still returns the familiar :class:`EngineStats` dataclass — now a
snapshot view over those registry instruments.

The engine is single-threaded and in-memory by design: persistence is
layered on by :class:`repro.core.server.LocationAwareServer` through the
storage package, and transport by :mod:`repro.net`.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.columnar import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    BatchIngest,
    ColumnarEvaluator,
    ColumnarObjectStore,
    ColumnarQueryStore,
)
from repro.core.knn import knn_search
from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    QueryState,
    RangeQueryState,
)
from repro.core.updates import UpdateBatch
from repro.geometry import LinearMotion, Point, Rect, Velocity
from repro.grid import Grid, GridIndex
from repro.obs import (
    NULL_FRESHNESS,
    NULL_RECORDER,
    FlightRecorder,
    FreshnessTracker,
    MetricsRegistry,
    Tracer,
)

DEFAULT_WORLD = Rect(0.0, 0.0, 1.0, 1.0)

#: Identifiers live in int64 columns.
_INT64_BOUND = 1 << 63


def _check_query_input(qid: int, *values: float) -> None:
    """Refuse, at buffer time, a query id, time or coordinate the batch
    kernels cannot hold: one such value in the buffer would otherwise
    fail the whole evaluation for every client."""
    if not -_INT64_BOUND <= qid < _INT64_BOUND:
        raise ValueError(f"query id {qid} is outside int64")
    for value in values:
        if not math.isfinite(value):
            raise ValueError(
                f"query {qid} has a non-finite time or coordinate: {values}"
            )


def _check_motion(oid: int, t: float, vx: float, vy: float) -> None:
    """Refuse, at buffer time, a report time or velocity no trajectory
    can be extrapolated from (a finite but absurd one is accepted)."""
    if not (math.isfinite(t) and math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError(
            f"object {oid} reported a non-finite time or velocity: "
            f"t={t}, v=({vx}, {vy})"
        )


#: The evaluation phases, in execution order.  Keys of
#: ``EngineStats.phase_seconds`` after the first evaluation.
EVALUATION_PHASES = (
    "unregistrations",
    "removals",
    "registrations",
    "query_moves",
    "object_reports",
    "knn_repair",
    "predictive_refresh",
)


@dataclass(slots=True)
class EngineStats:
    """A snapshot of the engine's work counters.

    The integer fields are *work* measures: how many buffered inputs
    each evaluation consumed and how much repair they triggered.
    ``phase_seconds`` adds wall-clock observability: cumulative seconds
    spent in each evaluation phase (keys are ``EVALUATION_PHASES``),
    populated from the first ``evaluate()`` on.  The benchmarks use both
    to explain where time goes; operators would use them to spot hot
    queries and mis-sized grids.

    The live values are registry instruments (``engine_*`` counters on
    :attr:`IncrementalEngine.registry`); :attr:`IncrementalEngine.stats`
    materialises this dataclass from them on every read, so the familiar
    surface survives while exporters see the same numbers.
    """

    evaluations: int = 0
    object_reports: int = 0
    object_removals: int = 0
    query_registrations: int = 0
    query_moves: int = 0
    query_unregistrations: int = 0
    knn_repairs: int = 0
    updates_emitted: int = 0
    phase_seconds: dict[str, float] = field(default_factory=dict)


class StoreObjects(Mapping):
    """``engine.objects`` under ``pipeline="columnar"``: a read-only
    ``oid -> ObjectState`` mapping over the object store, whose row is
    the only record of an object.  Each access materialises a fresh
    state (its QList empty: the production path keeps answers only) for
    the readers that want one — the oracle's brute force, checkpoints,
    the server's history door and tests; the engine itself reads rows."""

    __slots__ = ("_store",)

    def __init__(self, store: ColumnarObjectStore) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, oid) -> bool:
        return oid in self._store

    def __iter__(self):
        return iter(self._store.oids.tolist())

    def __getitem__(self, oid: int) -> ObjectState:
        store = self._store
        row = store.row_of(oid)
        vx = store.vxs[row]
        vy = store.vys[row]
        return ObjectState(
            oid,
            Point(store.xs[row], store.ys[row]),
            Velocity(vx, vy) if vx or vy else Velocity.ZERO,
            store.ts[row],
        )


class IncrementalEngine:
    """Shared execution + incremental evaluation over one grid.

    Parameters
    ----------
    world:
        The rectangle all locations live in (paper: the unit square).
    grid_size:
        N for the N x N uniform grid.
    prediction_horizon:
        How far (seconds) object trajectories are extrapolated when
        indexing predictive objects.  Every predictive query's horizon
        must fit inside it.
    pipeline:
        ``"columnar"`` (default) is the production path: buffered
        reports are ingested, joined and emitted as batch array kernels
        over struct-of-arrays mirrors of object and query state
        (:mod:`repro.columnar`), and the query side of a cycle runs as
        array passes too.  ``"per-object"`` is the reference path that
        walks one report at a time; per evaluation it emits the same
        multiset of updates per query (the order within a phase may
        differ) and leaves the same answers.
    registry:
        The :class:`~repro.obs.MetricsRegistry` carrying the engine's
        counters, phase-second series, and grid-occupancy samples.
        Defaults to a private registry per engine (isolated stats);
        inject one — e.g. :func:`repro.obs.default_registry` — to
        aggregate several components into one exporter.  Pass
        :data:`repro.obs.NULL_REGISTRY` to turn metrics off.
    tracer:
        The :class:`~repro.obs.Tracer` receiving one span per
        evaluation phase.  Defaults to a private bounded tracer; the
        server shares it so cycle/downlink spans nest around the
        engine's.  Pass a :class:`repro.obs.NullTracer` to disable
        trace recording (phase-second counters keep working).
    """

    def __init__(
        self,
        world: Rect = DEFAULT_WORLD,
        grid_size: int = 64,
        prediction_horizon: float = 60.0,
        pipeline: str = "columnar",
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        freshness: "FreshnessTracker | None" = None,
        recorder: "FlightRecorder | None" = None,
    ):
        if prediction_horizon < 0:
            raise ValueError(
                f"prediction_horizon must be >= 0, got {prediction_horizon}"
            )
        if pipeline not in ("columnar", "per-object"):
            raise ValueError(
                f"pipeline must be 'columnar' or 'per-object', got {pipeline!r}"
            )
        self.grid = Grid(world, grid_size)
        self.index = GridIndex(self.grid)
        self.prediction_horizon = prediction_horizon
        self.pipeline = pipeline
        self.now = 0.0
        self.queries: dict[int, QueryState] = {}
        # Buffered inputs, applied in bulk by evaluate().  A report is
        # kept as its floats (x, y, vx, vy, t).
        self._pending_reports: dict[
            int, tuple[float, float, float, float, float]
        ] = {}
        self._pending_removals: set[int] = set()
        # Keyed by qid (arrival order kept): every registration checks
        # the buffer for a duplicate, so a list scan would be O(Q²).
        self._pending_registrations: dict[int, QueryState] = {}
        self._pending_moves: dict[int, tuple[object, float]] = {}
        self._pending_unregistrations: set[int] = set()
        # k-NN queries holding fewer than k objects must watch for any
        # population growth, not just movement near their circle.
        self._underfull_knn: set[int] = set()
        # Registered predictive query ids — the refresh phase consults
        # this instead of scanning every query of every kind.
        self._predictive_qids: set[int] = set()
        # Struct-of-arrays state (repro.columnar).  The query store is
        # written under both pipelines — registrations and moves cost a
        # few array writes, and check_invariants holds its rows to the
        # query states either way.  The object store, batch ingest and
        # the evaluator exist only under pipeline="columnar", where the
        # store is the objects' only home.
        self._qstore = ColumnarQueryStore()
        self._knn_qids: set[int] = set()
        self._ostore: ColumnarObjectStore | None = None
        self.objects: dict[int, ObjectState] | StoreObjects = {}
        self._columnar_evaluator: ColumnarEvaluator | None = None
        self._batch_ingest: BatchIngest | None = None
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # Freshness follows the registry's on/off state unless injected:
        # a NULL_REGISTRY engine must stay on the no-op path end to end
        # (the telemetry overhead gate compares exactly these two modes).
        if freshness is not None:
            self.freshness = freshness
        elif self.registry.enabled:
            self.freshness = FreshnessTracker(self.registry)
        else:
            self.freshness = NULL_FRESHNESS
        # The flight recorder is armed explicitly (chaos harness, tests);
        # default is the no-op ring.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        counter = self.registry.counter
        self._m_evaluations = counter("engine_evaluations_total")
        self._m_object_reports = counter("engine_object_reports_total")
        self._m_object_removals = counter("engine_object_removals_total")
        self._m_query_registrations = counter("engine_query_registrations_total")
        self._m_query_moves = counter("engine_query_moves_total")
        self._m_query_unregistrations = counter(
            "engine_query_unregistrations_total"
        )
        self._m_knn_repairs = counter("engine_knn_repairs_total")
        self._m_updates_emitted = counter("engine_updates_emitted_total")
        self._phase_counters = {
            name: counter("engine_phase_seconds_total", labels={"phase": name})
            for name in EVALUATION_PHASES
        }
        self._m_objects = self.registry.gauge("engine_objects")
        self._m_queries = self.registry.gauge("engine_queries")
        if pipeline == "columnar":
            self._ostore = ColumnarObjectStore()
            self.objects = StoreObjects(self._ostore)
            self._columnar_evaluator = ColumnarEvaluator(
                self.grid,
                self.index,
                self._ostore,
                self._qstore,
                self.queries,
                self._knn_qids,
                self.registry,
                self.tracer,
            )
            self._batch_ingest = BatchIngest(self)
        self._m_ingest_seconds = counter("engine_ingest_seconds_total")
        # Which path the query-side phases took, partitioning the
        # unlabelled totals: "batch" = an evaluator array pass (a k-NN
        # or predictive *move* only marks its query for one), "scalar" =
        # the per-query reference routine — everything under per-object;
        # under columnar, only a predictive query whose flip time came
        # due (its verdicts come from an array pass; scheduling its next
        # flip is scalar).
        self._m_query_move_paths, self._m_knn_repair_paths, self._m_refresh_paths = (
            {p: counter(f"engine_{name}_total", labels={"path": p}) for p in ("batch", "scalar")}
            for name in ("query_moves", "knn_repairs", "predictive_refreshes")
        )  # fmt: skip

    # ------------------------------------------------------------------
    # Ingestion (buffered)
    # ------------------------------------------------------------------

    def report_object(
        self,
        oid: int,
        location: Point,
        t: float,
        velocity: Velocity = Velocity.ZERO,
    ) -> None:
        """Buffer a location report.  The last report per object wins
        within a batch (the server evaluates every T seconds; a device
        reporting twice within one period supersedes itself).

        Locations are clamped into the service area (the grid's world):
        the engine guarantees completeness only for in-world geometry,
        so out-of-world drift is pulled back to the boundary — and a
        non-finite coordinate, which no boundary is near, is refused, as
        is a non-finite time or velocity (``ValueError`` naming the
        oid, nothing buffered).  The buffer keeps the report's
        coordinates, not the caller's objects.
        """
        x = location.x
        y = location.y
        world = self.grid.world
        if not (world.min_x <= x <= world.max_x and world.min_y <= y <= world.max_y):
            # NaN fails every comparison, so it lands here too.
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(
                    f"object {oid} reported a non-finite location {location}"
                )
            x = min(max(x, world.min_x), world.max_x)
            y = min(max(y, world.min_y), world.max_y)
        vx = velocity.vx
        vy = velocity.vy
        # One sum settles the common case; NaN and inf survive it, and
        # a finite sum that overflows is settled exactly.
        if not math.isfinite(t + vx + vy):
            _check_motion(oid, t, vx, vy)
        self._pending_removals.discard(oid)
        self._pending_reports[oid] = (x, y, vx, vy, t)
        self.freshness.stamp_report(oid)

    def report_objects(self, oids, xs, ys, vxs, vys, ts) -> None:
        """Buffer a run of reports given as aligned lists (ints for
        ``oids``, floats for the rest): what a loop of
        :meth:`report_object` over the rows would buffer, into the same
        dict — last report wins, an oid keeps the place of its first
        report, a buffered removal is cancelled.

        The whole call is refused, with nothing buffered, when any
        coordinate, time or velocity is non-finite; rows are clamped
        only when a bound says one lies outside the world.
        """
        if not oids:
            return
        # A NaN or an infinity always survives a sum, so a finite sum
        # clears the whole column in one pass; a finite column can only
        # fail it by overflowing, which the exact pass then settles.
        if not (math.isfinite(sum(xs)) and math.isfinite(sum(ys))):
            for oid, x, y in zip(oids, xs, ys):
                if not (math.isfinite(x) and math.isfinite(y)):
                    raise ValueError(
                        f"object {oid} reported a non-finite location "
                        f"{Point(x, y)}"
                    )
        if not math.isfinite(sum(ts) + sum(vxs) + sum(vys)):
            for oid, t, vx, vy in zip(oids, ts, vxs, vys):
                _check_motion(oid, t, vx, vy)
        world = self.grid.world
        if not (
            world.min_x <= min(xs)
            and max(xs) <= world.max_x
            and world.min_y <= min(ys)
            and max(ys) <= world.max_y
        ):
            xs = [min(max(x, world.min_x), world.max_x) for x in xs]
            ys = [min(max(y, world.min_y), world.max_y) for y in ys]
        if self._pending_removals:
            self._pending_removals.difference_update(oids)
        self._pending_reports.update(zip(oids, zip(xs, ys, vxs, vys, ts)))
        self.freshness.stamp_reports(oids)

    def remove_object(self, oid: int) -> None:
        """Buffer an object's departure from the system.

        The object must be tracked or have a report buffered in this
        batch; removing an unknown id raises a ``KeyError`` naming it
        immediately (nothing is buffered), so a caller's id-management
        bug surfaces at the call site instead of as a silent no-op or
        an opaque index lookup failure later.
        """
        if oid not in self.objects and oid not in self._pending_reports:
            raise KeyError(f"cannot remove unknown object {oid}")
        self._pending_reports.pop(oid, None)
        self._pending_removals.add(oid)
        # The departure is this object's last provenance event: the
        # negative updates it triggers are attributed to it.
        self.freshness.stamp_report(oid)

    def register_range_query(self, qid: int, region: Rect, t: float = 0.0) -> None:
        """Register a continuous range query (stationary until moved).

        Regions are clipped to the service area — queries are answered
        over the world the server indexes, so the portion of a region
        hanging off the map can never hold an answer object.
        """
        self._check_fresh_qid(qid)
        _check_query_input(
            qid, t, region.min_x, region.min_y, region.max_x, region.max_y
        )
        region = self.grid.world.clip_or_pin(region)
        self._pending_registrations[qid] = RangeQueryState(qid, region, t)

    def register_knn_query(
        self, qid: int, center: Point, k: int, t: float = 0.0
    ) -> None:
        """Register a continuous k-NN query anchored at ``center``."""
        self._check_fresh_qid(qid)
        _check_query_input(qid, t, center.x, center.y)
        if k <= 0:
            raise ValueError(f"k must be positive, got {k}")
        self._pending_registrations[qid] = KnnQueryState(qid, center, k, t)

    def register_predictive_query(
        self, qid: int, region: Rect, horizon: float, t: float = 0.0
    ) -> None:
        """Register a predictive range query looking ``horizon`` s ahead."""
        self._check_fresh_qid(qid)
        _check_query_input(
            qid, t, region.min_x, region.min_y, region.max_x, region.max_y
        )
        if not 0 < horizon <= self.prediction_horizon:
            raise ValueError(
                f"query horizon {horizon} must be in "
                f"(0, {self.prediction_horizon}]"
            )
        region = self.grid.world.clip_or_pin(region)
        self._pending_registrations[qid] = PredictiveQueryState(
            qid, region, horizon, t
        )

    def move_range_query(self, qid: int, region: Rect, t: float) -> None:
        """Buffer a moving range query's new region (service-area clipped)."""
        self.check_kind(qid, QueryKind.RANGE)
        _check_query_input(
            qid, t, region.min_x, region.min_y, region.max_x, region.max_y
        )
        self._pending_moves[qid] = (self.grid.world.clip_or_pin(region), t)

    def move_knn_query(self, qid: int, center: Point, t: float) -> None:
        """Buffer a moving k-NN query's new focal point."""
        self.check_kind(qid, QueryKind.KNN)
        _check_query_input(qid, t, center.x, center.y)
        self._pending_moves[qid] = (center, t)

    def move_predictive_query(self, qid: int, region: Rect, t: float) -> None:
        """Buffer a moving predictive query's new region (clipped)."""
        self.check_kind(qid, QueryKind.PREDICTIVE_RANGE)
        _check_query_input(
            qid, t, region.min_x, region.min_y, region.max_x, region.max_y
        )
        self._pending_moves[qid] = (self.grid.world.clip_or_pin(region), t)

    def kind_of(self, qid: int) -> QueryKind | None:
        """The kind of a query that is registered or, in this batch,
        about to be; ``None`` for an unknown qid."""
        query = self._pending_registrations.get(qid) or self.queries.get(qid)
        return None if query is None else query.kind

    def check_kind(self, qid: int, kind: QueryKind) -> None:
        """Refuse a ``kind`` move of a query known to be of another kind:
        ``ValueError`` naming the qid and both kinds, nothing buffered.
        The ``move_*`` doors run it first; an edge that may defer a move
        runs it before deferring.  An unknown qid passes — ``evaluate``
        then refuses the move with its ``KeyError``."""
        known = self.kind_of(qid)
        if known is not None and known is not kind:
            raise ValueError(
                f"query {qid} is a {known.value} query, not a {kind.value} query"
            )

    def unregister_query(self, qid: int) -> None:
        """Buffer a query's removal; no further updates will be emitted.

        Unregistering a query that was registered earlier in the *same*
        batch cancels the pending registration (arrival order wins),
        and unregistering a qid whose only trace is a buffered move
        cancels that move — the documented recovery path after
        ``evaluate()`` rejects a move targeting an unknown query.  A
        qid with no registration, pending registration, or pending
        move raises a ``KeyError`` naming it, with every buffer left
        intact.
        """
        if self._pending_registrations.pop(qid, None) is not None:
            self._pending_moves.pop(qid, None)
            return
        if qid in self.queries:
            self._pending_moves.pop(qid, None)
            self._pending_unregistrations.add(qid)
            return
        if self._pending_moves.pop(qid, None) is None:
            raise KeyError(f"cannot unregister unknown query {qid}")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def stats(self) -> EngineStats:
        """The registry-backed work counters as an :class:`EngineStats`
        snapshot (the pre-telemetry public surface, unchanged)."""
        evaluations = int(self._m_evaluations.value)
        phase_seconds: dict[str, float] = {}
        if evaluations:
            phase_seconds = {
                name: c.value for name, c in self._phase_counters.items()
            }
        return EngineStats(
            evaluations=evaluations,
            object_reports=int(self._m_object_reports.value),
            object_removals=int(self._m_object_removals.value),
            query_registrations=int(self._m_query_registrations.value),
            query_moves=int(self._m_query_moves.value),
            query_unregistrations=int(self._m_query_unregistrations.value),
            knn_repairs=int(self._m_knn_repairs.value),
            updates_emitted=int(self._m_updates_emitted.value),
            phase_seconds=phase_seconds,
        )

    @property
    def object_count(self) -> int:
        return len(self.objects)

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def answer_of(self, qid: int) -> frozenset[int]:
        """The current (last evaluated) answer set of ``qid``."""
        return frozenset(self.queries[qid].answer)

    def complete_answers(self) -> dict[int, frozenset[int]]:
        """Every query's full answer — what a snapshot server retransmits."""
        return {qid: frozenset(q.answer) for qid, q in self.queries.items()}

    # ------------------------------------------------------------------
    # Bulk evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> UpdateBatch:
        """Apply all buffered input and return the incremental updates.

        Phases: unregistrations, object removals, new-query first-time
        answers, query moves, object moves, k-NN repair, predictive
        window refresh.  Applying the returned updates in order to the
        previously reported answers reproduces the current answers
        exactly (tested property).

        The return value is an :class:`~repro.core.updates.UpdateBatch`
        — sequence-shaped: iterate, index, and compare it like a list.

        All buffered input is validated *before* any phase mutates state
        (a buffered move of an unknown query raises ``KeyError`` here,
        with the engine left exactly as it was — buffers included — so a
        bad move can never half-apply a batch).
        """
        if now is None:
            now = self.now
        if now < self.now:
            raise ValueError(f"time went backwards: {now} < {self.now}")
        self._validate_pending_moves()
        self.now = now

        recorder = self.recorder
        recorder.advance_cycle()
        recorder.record(
            "evaluate_begin",
            now=now,
            reports=len(self._pending_reports),
            removals=len(self._pending_removals),
            registrations=len(self._pending_registrations),
            moves=len(self._pending_moves),
        )
        self._m_evaluations.inc()
        self._m_object_reports.inc(len(self._pending_reports))
        self._m_object_removals.inc(len(self._pending_removals))
        self._m_query_registrations.inc(len(self._pending_registrations))
        self._m_query_moves.inc(len(self._pending_moves))
        self._m_query_unregistrations.inc(len(self._pending_unregistrations))

        updates = UpdateBatch()
        knn_dirty: set[int] = set(self._underfull_knn)
        # Cells whose object population (or a resident's motion state)
        # changed this evaluation — drives the predictive refresh.
        churned_cells: set[int] = set()
        # Predictive queries that must refresh regardless of cell churn
        # (registered or moved this batch).
        dirty_predictive: set[int] = set()
        columnar = self._columnar_evaluator is not None
        tracer = self.tracer
        span = tracer.span
        phase_counters = self._phase_counters

        with span("evaluate"):
            with span("unregistrations", phase_counters["unregistrations"]):
                self._apply_unregistrations(knn_dirty)
            with span("removals", phase_counters["removals"]):
                self._apply_removals(updates, knn_dirty, churned_cells)
            with span("registrations", phase_counters["registrations"]):
                self._apply_registrations(updates, knn_dirty, dirty_predictive)
            with span("query_moves", phase_counters["query_moves"]):
                self._apply_query_moves(updates, knn_dirty, dirty_predictive)
            with span("object_reports", phase_counters["object_reports"]):
                if columnar:
                    self._apply_object_reports_columnar(
                        updates, knn_dirty, churned_cells
                    )
                else:
                    self._apply_object_reports(updates, knn_dirty)
            with span("knn_repair", phase_counters["knn_repair"]):
                self._repair_knn(knn_dirty, updates)
            with span(
                "predictive_refresh", phase_counters["predictive_refresh"]
            ):
                if columnar:
                    self._refresh_predictive_columnar(
                        updates, churned_cells, dirty_predictive
                    )
                else:
                    self._refresh_predictive(updates)
            with span("occupancy_sample"):
                self._sample_occupancy()
        self._m_updates_emitted.inc(len(updates))
        self._m_objects.set(self.object_count)
        self._m_queries.set(len(self.queries))
        self.freshness.end_cycle()
        recorder.record(
            "evaluate_end",
            now=now,
            updates=len(updates),
            objects=self.object_count,
            queries=len(self.queries),
        )
        return updates

    def _validate_pending_moves(self) -> None:
        """Reject buffered moves that cannot resolve to a query.

        Runs before any phase mutates state: a move is valid if its
        target is currently registered (and not about to be
        unregistered in this same batch) or is registered earlier in
        this batch.  Raising here leaves every buffer intact, so the
        caller can drop the bad move (``unregister_query``) and
        re-evaluate.
        """
        if not self._pending_moves:
            return
        for qid in self._pending_moves:
            if qid in self.queries and qid not in self._pending_unregistrations:
                continue
            if qid not in self._pending_registrations:
                raise KeyError(f"cannot move unknown query {qid}")

    # ------------------------------------------------------------------
    # Phase 1-2: departures
    # ------------------------------------------------------------------

    def _apply_unregistrations(self, knn_dirty: set[int]) -> None:
        for qid in sorted(self._pending_unregistrations):
            query = self.queries.pop(qid, None)
            if query is None:
                continue
            self.index.remove_query(qid)
            self._qstore.remove(qid)
            self._knn_qids.discard(qid)
            self._underfull_knn.discard(qid)
            self._predictive_qids.discard(qid)
            knn_dirty.discard(qid)
            if self._ostore is None:  # the reference's QLists
                for oid in query.answer:
                    self.objects[oid].answered.discard(qid)
            self.freshness.forget_query(qid)
        self._pending_unregistrations.clear()

    def _apply_removals(
        self, updates, knn_dirty: set[int], churned_cells: set[int]
    ) -> None:
        """Drop the departing objects; each answer holding one emits a
        negative, per removed oid ascending, then qid ascending.  The
        reference reads the holders off each object's QList; the
        production path, which keeps answers only, intersects every
        registered answer with the removed oids — paid only in a cycle
        with removals."""
        removed = [oid for oid in sorted(self._pending_removals) if oid in self.objects]
        self._pending_removals.clear()
        if not removed:
            return
        if self._batch_ingest is None:
            holders = {oid: sorted(self.objects.pop(oid).answered) for oid in removed}
            for oid in removed:
                self.index.remove_object(oid)
        else:
            gone = set(removed)
            holders = {oid: [] for oid in removed}
            for qid in sorted(self.queries):
                for oid in self.queries[qid].answer & gone:
                    holders[oid].append(qid)
            self._batch_ingest.remove(removed, churned_cells)
        for oid in removed:
            for qid in holders[oid]:
                query = self.queries[qid]
                query.answer.discard(oid)
                updates.push(qid, oid, -1)
                if query.kind is QueryKind.KNN:
                    knn_dirty.add(qid)

    # ------------------------------------------------------------------
    # Phase 3: first-time answers for new queries
    # ------------------------------------------------------------------

    def _apply_registrations(
        self,
        updates,
        knn_dirty: set[int],
        dirty_predictive: set[int],
    ) -> None:
        qstore = self._qstore
        evaluator = self._columnar_evaluator
        range_fills: list[RangeQueryState] = []
        for query in self._pending_registrations.values():
            self.queries[query.qid] = query
            if query.kind is QueryKind.RANGE:
                region = query.region
                qstore.put(
                    query.qid,
                    KIND_RANGE,
                    region.min_x,
                    region.min_y,
                    region.max_x,
                    region.max_y,
                )
                self.index.place_query_region(query.qid, region)
                if evaluator is None:
                    self._fill_range_answer(query, updates)
                else:
                    range_fills.append(query)
            elif query.kind is QueryKind.KNN:
                qstore.put(query.qid, KIND_KNN)
                self._knn_qids.add(query.qid)
                # Placed at its center first; _repair_knn computes the
                # first-time answer and widens the footprint to the circle.
                self.index.place_query(
                    query.qid,
                    frozenset((self.grid.cell_of(query.center),)),
                )
                knn_dirty.add(query.qid)
            else:
                # Predictive: footprint now, answer in the refresh phase.
                qstore.put(query.qid, KIND_PREDICTIVE)
                self.index.place_query_region(query.qid, query.region)
                self._predictive_qids.add(query.qid)
                dirty_predictive.add(query.qid)
        # Only range registrations emit in this phase, so filling them
        # together after the loop keeps the stream in arrival order.
        if range_fills:
            evaluator.fill_ranges(range_fills, updates)
        self._pending_registrations.clear()

    def _fill_range_answer(self, query: RangeQueryState, updates) -> None:
        for oid in sorted(self.index.objects_overlapping(query.region)):
            state = self.objects[oid]
            if query.region.contains_point(state.location):
                query.answer.add(oid)
                state.answered.add(query.qid)
                updates.push(query.qid, oid, 1)

    # ------------------------------------------------------------------
    # Phase 4: query movement
    # ------------------------------------------------------------------

    def _apply_query_moves(
        self,
        updates,
        knn_dirty: set[int],
        dirty_predictive: set[int],
    ) -> None:
        # Only range moves emit in this phase, so taking them together
        # after the loop keeps the stream in arrival order.
        range_moves: list[tuple[RangeQueryState, Rect]] = []
        evaluator = self._columnar_evaluator
        path = "scalar" if evaluator is None else "batch"
        self._m_query_move_paths[path].inc(len(self._pending_moves))
        for qid, (payload, t) in self._pending_moves.items():
            query = self.queries.get(qid)
            if query is None:
                # Unreachable after _validate_pending_moves; kept as a
                # defensive invariant.
                raise KeyError(f"cannot move unknown query {qid}")
            query.t = t
            if query.kind is QueryKind.RANGE:
                if evaluator is None:
                    self._move_range(query, payload, updates)  # type: ignore[arg-type]
                else:
                    range_moves.append((query, payload))  # type: ignore[arg-type]
            elif query.kind is QueryKind.KNN:
                query.center = payload  # type: ignore[assignment]
                knn_dirty.add(qid)
            else:
                # Predictive regions re-filter in the refresh phase; only
                # the footprint needs to move now.
                query.region = payload  # type: ignore[assignment]
                self.index.place_query_region(qid, payload)  # type: ignore[arg-type]
                dirty_predictive.add(qid)
        if range_moves:
            evaluator.move_ranges(range_moves, updates)
        self._pending_moves.clear()

    def _move_range(
        self, query: RangeQueryState, new_region: Rect, updates
    ) -> None:
        old_region = query.region
        query.region = new_region

        # Negative updates: answer members in A_old - A_new.
        for oid in sorted(query.answer):
            if not new_region.contains_point(self.objects[oid].location):
                query.answer.discard(oid)
                self.objects[oid].answered.discard(query.qid)
                updates.push(query.qid, oid, -1)

        # Positive updates: search only A_new - A_old.
        for piece in new_region.difference(old_region):
            for oid in sorted(self.index.objects_overlapping(piece)):
                if oid in query.answer:
                    continue
                state = self.objects[oid]
                if piece.contains_point(state.location):
                    query.answer.add(oid)
                    state.answered.add(query.qid)
                    updates.push(query.qid, oid, 1)

        self.index.place_query_region(query.qid, new_region)
        self._qstore.put(
            query.qid,
            KIND_RANGE,
            new_region.min_x,
            new_region.min_y,
            new_region.max_x,
            new_region.max_y,
        )

    # ------------------------------------------------------------------
    # Phase 5: object movement
    # ------------------------------------------------------------------

    def _apply_object_reports(self, updates, knn_dirty: set[int]) -> None:
        """Reference path: one report at a time (``pipeline="per-object"``).

        Re-derives the colocated candidate query set for every single
        object — the semantic baseline the columnar pipeline is tested
        against.
        """
        for oid, (x, y, vx, vy, t) in self._pending_reports.items():
            location = Point(x, y)
            velocity = Velocity(vx, vy) if vx or vy else Velocity.ZERO
            state = self.objects.get(oid)
            if state is None:
                state = ObjectState(oid, location, velocity, t)
                self.objects[oid] = state
                old_cells: frozenset[int] = frozenset()
            else:
                old_cells = self.index.object_cells(oid)
                state.location = location
                state.velocity = velocity
                state.t = t
            self.index.place_object(oid, self._object_footprint(state))

            candidates = set(self.index.queries_colocated_with_object(oid))
            for cell in old_cells:
                candidates |= self.index.queries_in_cell(cell)
            candidates |= state.answered

            for qid in sorted(candidates):
                query = self.queries[qid]
                if query.kind is QueryKind.RANGE:
                    self._update_range_membership(query, state, updates)
                elif query.kind is QueryKind.KNN:
                    knn_dirty.add(qid)
                # Predictive membership is settled by the refresh phase.
        self._pending_reports.clear()

    def _apply_object_reports_columnar(
        self, updates, knn_dirty: set[int], churned_cells: set[int]
    ) -> None:
        """Columnar pipeline: batch ingest groups the buffer into
        home-cell transition cohorts (phase 5a), then the evaluator joins
        every cohort against its cells' range queries in one kernel pass
        and emits the changed pairs cohort by cohort (phase 5b)."""
        if not self._pending_reports:
            return
        with self.tracer.span("report_ingest", self._m_ingest_seconds):
            columns = self._batch_ingest.group(self._pending_reports, churned_cells)
        emitted_before = len(updates)
        self._columnar_evaluator.run_columns(columns, updates, knn_dirty)
        self.recorder.record(
            "columnar_batch",
            cohorts=len(columns),
            emitted=len(updates) - emitted_before,
        )

    def _update_range_membership(
        self, query: RangeQueryState, state: ObjectState, updates
    ) -> None:
        inside = query.region.contains_point(state.location)
        was_member = state.oid in query.answer
        if inside and not was_member:
            query.answer.add(state.oid)
            state.answered.add(query.qid)
            updates.push(query.qid, state.oid, 1)
        elif not inside and was_member:
            query.answer.discard(state.oid)
            state.answered.discard(query.qid)
            updates.push(query.qid, state.oid, -1)

    def _object_footprint(self, state: ObjectState) -> frozenset[int]:
        if state.is_predictive and self.prediction_horizon > 0:
            rect = state.motion().bounding_rect_until(
                state.t + self.prediction_horizon
            )
            cells = self.grid.cells_overlapping_set(rect)
            if cells:
                return cells
            # The whole predicted trajectory lies outside the world
            # (the object drifted off the map): clamp to the nearest
            # cell so the object keeps a deterministic home.
        return frozenset((self.grid.cell_of(state.location),))

    # ------------------------------------------------------------------
    # Phase 6: k-NN repair
    # ------------------------------------------------------------------

    def _repair_knn(self, knn_dirty: set[int], updates) -> None:
        queries = self.queries
        dirty = [
            query
            for query in map(queries.get, sorted(knn_dirty))
            if query is not None and query.kind is QueryKind.KNN
        ]
        if not dirty:
            return
        self._m_knn_repairs.inc(len(dirty))
        # The columnar path searches every dirty query together; the
        # reference runs the ring search per query.  Emission stays in
        # qid order.
        evaluator = self._columnar_evaluator
        if evaluator is None:
            self._m_knn_repair_paths["scalar"].inc(len(dirty))
            for query in dirty:
                ranked = knn_search(self.index, self.objects, query.center, query.k)
                self._solve_knn(query, updates, ranked)
        else:
            self._m_knn_repair_paths["batch"].inc(len(dirty))
            for query, ranked in zip(dirty, evaluator.knn_ranked(dirty)):
                self._solve_knn(query, updates, ranked)

    def _solve_knn(
        self, query: KnnQueryState, updates, ranked: list[tuple[float, int]]
    ) -> None:
        """Install a dirty k-NN query's re-solved ``ranked`` answer and
        emit the answer difference.

        The search is bounded by the k-th distance, so the work stays
        local to the circle — the shared-grid analogue of the paper's
        "evict the furthest / admit the entrant" circle maintenance,
        with the search doubling as the replacement lookup when members
        depart.
        """
        qid = query.qid
        new_answer = {oid for __, oid in ranked}
        left = sorted(query.answer - new_answer)
        joined = sorted(new_answer - query.answer)
        for oid in left:
            query.answer.discard(oid)
            updates.push(qid, oid, -1)
        for oid in joined:
            query.answer.add(oid)
            updates.push(qid, oid, 1)
        if self._ostore is None:  # the reference's QLists
            for oid in left:
                self.objects[oid].answered.discard(qid)
            for oid in joined:
                self.objects[oid].answered.add(qid)

        query.radius = ranked[-1][0] if ranked else 0.0
        footprint = self.grid.cells_overlapping_set(
            query.circle().bounding_rect()
        )
        if not footprint:  # center outside the world: clamp to home cell
            footprint = frozenset((self.grid.cell_of(query.center),))
        self.index.place_query(query.qid, footprint)

        if len(query.answer) < query.k:
            self._underfull_knn.add(query.qid)
        else:
            self._underfull_knn.discard(query.qid)

    # ------------------------------------------------------------------
    # Phase 7: predictive window refresh
    # ------------------------------------------------------------------

    def _refresh_predictive(self, updates) -> None:
        """Reference path: re-filter every predictive query, every cycle,
        over the objects its grid-index footprint holds."""
        index = self.index
        objects = self.objects
        for qid, query in self.queries.items():
            if query.kind is not QueryKind.PREDICTIVE_RANGE:
                continue
            self._m_refresh_paths["scalar"].inc()
            candidates = set(query.answer)
            for cell in index.query_cells(qid):
                candidates.update(index.objects_in_cell(cell))
            ordered = sorted(candidates)
            flags = [self._predicted_in_region(query, objects[oid]) for oid in ordered]
            self._refresh_one_predictive(query, updates, ordered, flags)

    def _refresh_predictive_columnar(
        self,
        updates,
        churned_cells: set[int],
        dirty_predictive: set[int],
    ) -> None:
        """Refresh only predictive queries that can actually change.

        A predictive answer depends on (a) the query's region/horizon,
        (b) the states of its candidate objects, and (c) the evaluation
        time (the horizon window slides).  (a) is covered by
        ``dirty_predictive`` (registered/moved this batch), (b) by cell
        churn — every candidate's footprint intersects the query's
        footprint, so any candidate change churns a footprint cell —
        and (c) by the ``next_flip`` event time computed during the
        previous refresh: the earliest time the sliding window can flip
        some candidate's membership.  Anything else is provably a
        no-op and is skipped.
        """
        predictive_qids = self._predictive_qids
        if not predictive_qids:
            return
        need = dirty_predictive
        if churned_cells:
            footprint_of = self.index.query_cells
            need.update(
                qid
                for qid in predictive_qids
                if not churned_cells.isdisjoint(footprint_of(qid))
            )
        now = self.now
        queries = self.queries
        ordered = sorted(predictive_qids)
        # Churn-driven refreshes: under sustained churn a flip schedule
        # would be recomputed every cycle and never consulted, so don't
        # pay for one — the first quiet evaluation refreshes once more
        # (next_flip == -inf) and computes the schedule then.  On the
        # array path they all run as one pass; emission stays in qid
        # order, interleaved with the flip-due queries.
        churned = [queries[qid] for qid in ordered if qid in need]
        due = [
            queries[qid]
            for qid in ordered
            if qid not in need and queries[qid].next_flip <= now
        ]
        # The two kinds touch disjoint queries, so one pass serves both
        # before the qid-ordered emission below.
        if not churned and not due:
            return
        refreshed, verdicts = map(
            iter,
            self._columnar_evaluator.predictive_refresh(
                churned, due, now, self.prediction_horizon
            ),
        )
        paths = self._m_refresh_paths
        for qid in ordered:
            query = queries[qid]
            if qid in need:
                paths["batch"].inc()
                oids, signs = next(refreshed)
                updates.extend_columns([qid] * len(oids), oids, signs)
                query.next_flip = float("-inf")
            elif query.next_flip <= now:
                paths["scalar"].inc()
                ordered, flags = next(verdicts)
                self._refresh_one_predictive(query, updates, ordered, flags)
                query.next_flip = self._next_flip(query, ordered, flags)

    def _refresh_one_predictive(
        self, query: PredictiveQueryState, updates, ordered, flags
    ) -> None:
        """Apply one predictive query's membership ``flags`` over its
        candidates ``ordered`` (ascending oids) and emit the changes."""
        qid = query.qid
        answer = query.answer
        for oid, inside in zip(ordered, flags):
            if inside == (oid in answer):
                continue
            if inside:
                answer.add(oid)
                updates.push(qid, oid, 1)
            else:
                answer.discard(oid)
                updates.push(qid, oid, -1)
            if self._ostore is None:  # the reference's QLists
                if inside:
                    self.objects[oid].answered.add(qid)
                else:
                    self.objects[oid].answered.discard(qid)

    def _next_flip(self, query: PredictiveQueryState, ordered, flags) -> float:
        """The columnar path's flip schedule for a just-refreshed
        predictive query: the earliest :meth:`_membership_flip_time` of
        its candidates, read from their store rows."""
        ostore = self._ostore
        rows = [ostore.row_of(oid) for oid in ordered]
        next_flip = math.inf
        for x, y, vx, vy, t, inside in zip(
            *(column.tolist() for column in ostore.motion_at(rows)[:5]), flags
        ):
            motion = LinearMotion(Point(x, y), Velocity(vx, vy), t)
            next_flip = min(next_flip, self._membership_flip_time(query, motion, inside))
        if math.isinf(next_flip):
            return next_flip
        # Small relative safety margin: the flip time is derived from
        # one trajectory clipping over the full trusted span, while
        # membership itself is recomputed per-window; the margin absorbs
        # any floating-point disagreement between the two so a refresh
        # can only ever fire early, never late.
        return next_flip - 1e-9 * (1.0 + abs(next_flip))

    def _membership_flip_time(
        self, query: PredictiveQueryState, motion: LinearMotion, inside: bool
    ) -> float:
        """The earliest evaluation time at which the membership in
        ``query`` of an object reported as ``motion`` can change with
        *no further reports* — i.e. purely because the horizon window
        ``[now, now + horizon]`` slides.

        For linear motion inside a convex region the in-region times
        form one interval ``[enters, leaves]`` (within the object's
        trusted extrapolation span).  A current member stays a member
        until the window start passes ``leaves``; a non-member becomes
        one when the window end reaches ``enters``.  ``inf`` means the
        membership can never change without churn.
        """
        span_start = max(self.now, motion.t0)
        span_end = motion.t0 + self.prediction_horizon
        if span_end < span_start:
            # The trusted extrapolation span is entirely in the past:
            # membership is False and stays False until a new report.
            return math.inf
        reach = motion.position_at(span_end)
        if not (math.isfinite(reach.x) and math.isfinite(reach.y)):
            # A finite but absurd velocity overflows: the windowed check
            # works on inf arithmetic no flip time can predict, so
            # refresh every evaluation.
            return -math.inf
        interval = motion.time_in_rect(query.region, span_start, span_end)
        if interval is None:
            # Never in the region within the trusted span.  If the
            # windowed check nevertheless said "inside" (conceivable
            # only through floating-point disagreement), stay safe by
            # refreshing every evaluation.
            return -math.inf if inside else math.inf
        enters, leaves = interval
        if inside:
            return leaves
        return enters - query.horizon

    def _predicted_in_region(
        self, query: PredictiveQueryState, state: ObjectState
    ) -> bool:
        """Will ``state`` be inside the query region within its horizon?

        The window is ``[now, now + horizon]`` clamped to start no
        earlier than the object's report time (we cannot extrapolate
        backwards) and to end no later than the object's trusted
        extrapolation span.
        """
        start = max(self.now, state.t)
        end = min(self.now + query.horizon, state.t + self.prediction_horizon)
        if end < start:
            return False
        return state.motion().time_in_rect(query.region, start, end) is not None

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _sample_occupancy(self) -> None:
        """Grid occupancy: the production path counts its store's
        ``cells`` column (objects per home cell), the reference its index
        buckets (a moving object in every cell of its swept footprint)."""
        ostore = self._ostore
        if not self.registry.enabled:
            return
        self.index.sample_occupancy(
            self.registry,
            (
                self.index.object_counts()
                if ostore is None
                else ostore.cell_counts(self.grid.cell_count)
            ),
            len(self.objects),
        )

    def _check_fresh_qid(self, qid: int) -> None:
        if qid in self.queries or qid in self._pending_registrations:
            raise KeyError(f"query {qid} is already registered")

    def check_invariants(self) -> None:
        """Verify the object/query membership bookkeeping (tests only)."""
        queries = self.queries
        ostore = self._ostore
        for qid in queries:
            assert self.index.contains_query(qid)
        if ostore is None:
            # The reference keeps both directions: QList <-> answer.
            for oid, state in self.objects.items():
                assert self.index.contains_object(oid)
                for qid in state.answered:
                    assert oid in queries[qid].answer, (oid, qid)
            for qid, query in queries.items():
                for oid in query.answer:
                    assert qid in self.objects[oid].answered, (qid, oid)
        else:
            # A store row is the only record of an object: every answer
            # member is one, the grid index holds queries only, and both
            # report doors clamped every stored location into the world
            # (so the cells listing a range query find all its members).
            for qid, query in queries.items():
                for oid in query.answer:
                    assert oid in ostore, (qid, oid)
            assert self.index.object_count == 0
            xs, ys = ostore.xy_views()
            world = self.grid.world
            assert (
                (world.min_x <= xs) & (xs <= world.max_x)
                & (world.min_y <= ys) & (ys <= world.max_y)
            ).all()  # fmt: skip
            assert list(ostore.cells) == [
                self.grid.cell_of(Point(x, y)) for x, y in zip(ostore.xs, ostore.ys)
            ]
        for qid in self._predictive_qids:
            assert queries[qid].kind is QueryKind.PREDICTIVE_RANGE
        # The query store's rows stay coherent with the query states.
        qstore = self._qstore
        assert len(qstore) == len(queries)
        assert self._knn_qids == {
            qid for qid, query in queries.items() if query.kind is QueryKind.KNN
        }
        for qid, query in queries.items():
            kind, min_x, min_y, max_x, max_y = qstore.descriptor(qid)
            if query.kind is QueryKind.RANGE:
                region = query.region
                assert kind == KIND_RANGE and (min_x, min_y, max_x, max_y) == (
                    region.min_x,
                    region.min_y,
                    region.max_x,
                    region.max_y,
                ), qid
            elif query.kind is QueryKind.KNN:
                assert kind == KIND_KNN, qid
            else:
                assert kind == KIND_PREDICTIVE, qid
        if self._columnar_evaluator is not None:
            self._columnar_evaluator.check_invariants()
