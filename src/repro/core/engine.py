"""The shared, incremental continuous-query engine.

This is the paper's contribution (Section 3): one uniform grid holds
both objects and queries ("queries are indexed in the same way as data");
location reports and query movements are *buffered* and evaluated in
bulk; each evaluation emits only positive/negative updates relative to
the previously reported answers.  The grid is arithmetic on both sides,
not a structure: an object's cell is its store row's ``cells`` column,
and a query's cells — its *footprint* — are a pure function of its
geometry (the region; a k-NN query's centre and radius), computed where
they are read.

Incrementality per query kind:

* **Range** — object moves touch only the queries whose footprint
  holds the object's old or new cell, and of those only the ones whose
  membership flipped emit.  A query registered or moved in a batch is
  re-answered from the objects under its new footprint, and the diff
  against its standing answer is emitted.
* **k-NN** — maintained as the smallest circle containing the k nearest
  objects.  Object movement marks a k-NN query dirty only when the move
  touches the circle's grid footprint (or the object was an answer
  member), and a query holding fewer than k objects is dirty every
  evaluation; dirty queries are re-solved together, each search bounded
  by a distance k objects lie within, and the *answer difference* is
  emitted.
* **Predictive range** — objects carrying velocity vectors occupy the
  grid footprint of their predicted trajectory; a predictive
  query's answer is the set of objects whose extrapolated motion enters
  its region within the query's horizon.  Because the horizon window
  slides with evaluation time, every predictive query is re-filtered
  from its (small) candidate cell set in every evaluation — all of
  them in one array pass — and only the changed predictions are
  emitted.

Bulk evaluation runs as one **columnar pipeline** (the paper's
Section 3 point: buffered updates are evaluated as a grid-partition
spatial join, not one at a time) over struct-of-arrays object and query
state (:mod:`repro.columnar`, on numpy).  An object's store row is the
only record of it, and a query's query-store row — kind, geometry,
``t`` and answer set — the only record of it: ``engine.objects`` and
``engine.queries`` are read-only mappings that materialise an
:class:`ObjectState` or a query state per access, and the engine itself
reads and writes rows.

Phases 3 and 4 only write query rows.  Phase 5 is **one range pass**
after ingest, against the batch's final query bounds and final object
positions (:meth:`ColumnarEvaluator.evaluate_ranges`): a range query
registered or moved in the batch is re-answered with one gather and
emits the diff against its standing answer (∅ for a new query), and
every other range query meets the batch's reports in the per-report
join — each reported object against the range queries listed in its
old and new home cells, one kernel pass.  The two cover disjoint
queries and classify every pair once, at the end state, so an
evaluation emits, per query, its *net* change: the diff between its
answer before and after the evaluation, each ``(qid, oid)`` pair at
most once (the paper's ``(Q, +A)`` means "A entered the answer of Q"),
with nothing to net.  Dirty k-NN queries and every predictive query are
array passes over a home-cell CSR of the object store too
(``knn_ranked``, ``predictive_refresh``).

Its reference is brute force: :class:`repro.check.reference.ReferenceEngine`
re-derives every answer from scratch and emits each query's diff.  Fed
the same calls, the two must leave every query with the same multiset
of ``(oid, sign)`` updates per evaluation and the same answers (the
lock-step state machine in ``tests/core/test_lockstep.py`` holds them
to that).

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

import numpy as np

from repro.columnar import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarEvaluator,
    ColumnarObjectStore,
    ColumnarQueryStore,
    ingest_reports,
)
from repro.columnar.store import ROW_MASK, key_rows
from repro.core.commit import NO_OIDS
from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    QueryState,
    RangeQueryState,
)
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect, Velocity
from repro.grid import Grid
from repro.obs import (
    NULL_FRESHNESS,
    NULL_RECORDER,
    FlightRecorder,
    FreshnessTracker,
    MetricsRegistry,
    Tracer,
)

DEFAULT_WORLD = Rect(0.0, 0.0, 1.0, 1.0)

#: Upper bounds for the cell-occupancy histogram (objects per cell).
OCCUPANCY_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0
)

#: How many of the hottest cells the occupancy gauges rank.
HOT_CELLS = 5

#: Identifiers live in int64 columns.
_INT64_BOUND = 1 << 63

#: The query kind of each query-store ``kinds`` code.
_KIND_OF_CODE = {KIND_RANGE: QueryKind.RANGE, KIND_KNN: QueryKind.KNN,
                 KIND_PREDICTIVE: QueryKind.PREDICTIVE_RANGE}  # fmt: skip


#: The largest answer :meth:`IncrementalEngine.answer_arrays` gathers in
#: Python rather than numpy: timed one answer at a time, the two cost
#: the same at three to four members, numpy's fixed cost losing below.
_SMALL_ANSWER = 4


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


def _check_motion(
    oid: int, x: float, y: float, t: float, vx: float, vy: float, horizon: float
) -> None:
    """Refuse, at buffer time, a report no trajectory can be extrapolated
    from: a non-finite time or velocity, or one that carries the
    (clamped) location past the largest float within the prediction
    horizon — measured over ``(t + horizon) - t``, the span the engine's
    footprint and membership arithmetic extrapolate over, so that
    arithmetic stays finite."""
    if not (math.isfinite(t) and math.isfinite(vx) and math.isfinite(vy)):
        raise ValueError(
            f"object {oid} reported a non-finite time or velocity: "
            f"t={t}, v=({vx}, {vy})"
        )
    span = (t + horizon) - t
    if not (math.isfinite(x + vx * span) and math.isfinite(y + vy * span)):
        raise ValueError(
            f"object {oid} reported a trajectory that overflows within the "
            f"prediction horizon: ({x}, {y}) at v=({vx}, {vy})"
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
    "occupancy_sample",
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


class _StoreView(Mapping):
    """A read-only ``id -> state`` mapping over a columnar store, whose
    row is the only record of what it maps.  Each access materialises a
    fresh state for the readers that want one — the oracle, checkpoints,
    the server's history door and tests; the engine itself reads rows."""

    __slots__ = ("_store",)

    def __init__(self, store) -> None:
        self._store = store

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, ident) -> bool:
        return ident in self._store


class StoreObjects(_StoreView):
    """``engine.objects``: ``oid -> ObjectState`` over the object store."""

    __slots__ = ()

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


class StoreQueries(_StoreView):
    """``engine.queries``: ``qid -> QueryState`` over the query store; a
    state's ``answer`` is a frozenset of the row's answer, materialised
    per access."""

    __slots__ = ("_oids",)

    def __init__(self, store, ostore) -> None:
        super().__init__(store)
        self._oids = ostore.oids

    def __iter__(self):
        return iter(self._store.qids.tolist())

    def __getitem__(self, qid: int) -> QueryState:
        store = self._store
        row = store.row_of(qid)
        kind = store.kinds[row]
        t = store.ts[row]
        answer = frozenset(
            np.frombuffer(self._oids, dtype=np.int64)[store.answer_rows(row)].tolist()
        )
        if kind == KIND_KNN:
            center = Point(store.cxs[row], store.cys[row])
            return KnnQueryState(qid, center, store.ks[row], t, store.radii[row], answer)
        region = store.region_at(row)
        if kind == KIND_RANGE:
            return RangeQueryState(qid, region, t, answer)
        return PredictiveQueryState(qid, region, store.horizons[row], t, answer)


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
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        freshness: "FreshnessTracker | None" = None,
        recorder: "FlightRecorder | None" = None,
    ):
        if prediction_horizon < 0:
            raise ValueError(
                f"prediction_horizon must be >= 0, got {prediction_horizon}"
            )
        self.grid = Grid(world, grid_size)
        self.prediction_horizon = prediction_horizon
        self.now = 0.0
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
        # Struct-of-arrays state (repro.columnar): the object store is
        # the objects' only home, the query store the queries'.
        self._qstore = ColumnarQueryStore()
        self._ostore = ColumnarObjectStore()
        self.objects = StoreObjects(self._ostore)
        self.queries = StoreQueries(self._qstore, self._ostore)
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
        self._columnar_evaluator = ColumnarEvaluator(
            self.grid,
            self._ostore,
            self._qstore,
            self.registry,
            self.tracer,
        )
        self._m_ingest_seconds = counter("engine_ingest_seconds_total")
        self._m_predictive_refreshes = counter("engine_predictive_refreshes_total")

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
        is a non-finite time or velocity, one that carries the clamped
        location past the largest float within the prediction horizon,
        or an oid outside int64 (``ValueError`` naming the oid, nothing
        buffered).  The buffer keeps the report's coordinates, not the
        caller's objects.
        """
        if not -(1 << 63) <= oid < 1 << 63:  # _INT64_BOUND, as folded constants
            raise ValueError(f"object id {oid} is outside int64")
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
        # One sum of the reach settles the common case; NaN and inf
        # survive it, and a finite sum that overflows is settled exactly.
        span = (t + self.prediction_horizon) - t
        if not math.isfinite((x + vx * span) + (y + vy * span)):
            _check_motion(oid, x, y, t, vx, vy, self.prediction_horizon)
        if self._pending_removals:
            self._pending_removals.discard(oid)
        self._pending_reports[oid] = (x, y, vx, vy, t)

    def report_objects(self, oids, xs, ys, vxs, vys, ts) -> None:
        """Buffer a run of reports given as aligned lists (ints for
        ``oids``, floats for the rest): what a loop of
        :meth:`report_object` over the rows would buffer, into the same
        dict — last report wins, an oid keeps the place of its first
        report, a buffered removal is cancelled — or nothing, the whole
        call refused, when any row would be refused
        (:meth:`checked_reports`, then :meth:`buffer_reports`)."""
        if oids:
            self.buffer_reports(oids, *self.checked_reports(oids, xs, ys, vxs, vys, ts), vxs, vys, ts)

    def buffer_reports(self, oids, xs, ys, vxs, vys, ts) -> None:
        """Buffer a run :meth:`checked_reports` passed, with the
        ``(xs, ys)`` it returned."""
        if self._pending_removals:
            self._pending_removals.difference_update(oids)
        self._pending_reports.update(zip(oids, zip(xs, ys, vxs, vys, ts)))

    def latest_report(self, oid: int) -> tuple | None:
        """``(x, y, vx, vy, t)`` of ``oid``'s latest report, buffered or
        else stored; ``None`` for an object neither holds."""
        store = self._ostore
        if oid in self._pending_reports or oid not in store:
            return self._pending_reports.get(oid)
        row = store.row_of(oid)
        return store.xs[row], store.ys[row], store.vxs[row], store.vys[row], store.ts[row]

    def checked_reports(self, oids, xs, ys, vxs, vys, ts) -> tuple:
        """The ``(xs, ys)`` :meth:`report_objects` buffers for a non-empty
        run (clamped only when a bound says a row lies outside the
        world); ``ValueError`` naming a row :meth:`report_object` would
        refuse."""
        if not (-_INT64_BOUND <= min(oids) and max(oids) < _INT64_BOUND):
            for oid in oids:
                if not -_INT64_BOUND <= oid < _INT64_BOUND:
                    raise ValueError(f"object id {oid} is outside int64")
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
        world = self.grid.world
        if not (
            world.min_x <= min(xs)
            and max(xs) <= world.max_x
            and world.min_y <= min(ys)
            and max(ys) <= world.max_y
        ):
            xs = [min(max(x, world.min_x), world.max_x) for x in xs]
            ys = [min(max(y, world.min_y), world.max_y) for y in ys]
        # Finite columns bound every row's reach: ``(t + H) - t`` rounds
        # to at most 2H, and a clamped location lies within the world.
        horizon = self.prediction_horizon
        if not (
            math.isfinite(sum(ts) + sum(vxs) + sum(vys))
            and math.isfinite(
                max(map(abs, (world.min_x, world.min_y, world.max_x, world.max_y)))
                + max(max(vxs), -min(vxs), max(vys), -min(vys)) * (2 * horizon)
            )
        ):
            for oid, x, y, t, vx, vy in zip(oids, xs, ys, ts, vxs, vys):
                _check_motion(oid, x, y, t, vx, vy, horizon)
        return xs, ys

    def remove_object(self, oid: int) -> tuple | None:
        """Buffer an object's departure from the system; returns the
        ``(x, y, vx, vy, t)`` report it cancelled, if one was buffered.

        The object must be tracked or have a report buffered in this
        batch; removing an unknown id raises a ``KeyError`` naming it
        immediately (nothing is buffered), so a caller's id-management
        bug surfaces at the call site instead of as a silent no-op or
        an opaque index lookup failure later.
        """
        if not self.knows_object(oid):
            raise KeyError(f"cannot remove unknown object {oid}")
        cancelled = self._pending_reports.pop(oid, None)
        self._pending_removals.add(oid)
        # The departure is this object's last provenance event: the
        # negative updates it triggers are attributed to it.
        self.freshness.stamp_report(oid)
        return cancelled

    def knows_object(self, oid: int) -> bool:
        """True when ``oid`` is tracked or has a report buffered."""
        return oid in self.objects or oid in self._pending_reports

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
        if not 0 < k < _INT64_BOUND:
            raise ValueError(f"k must be positive and within int64, got {k}")
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
        self.check_move(qid, QueryKind.RANGE, region, t)
        self.buffer_move(qid, QueryKind.RANGE, region, t)

    def move_knn_query(self, qid: int, center: Point, t: float) -> None:
        """Buffer a moving k-NN query's new focal point."""
        self.check_move(qid, QueryKind.KNN, center, t)
        self.buffer_move(qid, QueryKind.KNN, center, t)

    def move_predictive_query(self, qid: int, region: Rect, t: float) -> None:
        """Buffer a moving predictive query's new region (clipped)."""
        self.check_move(qid, QueryKind.PREDICTIVE_RANGE, region, t)
        self.buffer_move(qid, QueryKind.PREDICTIVE_RANGE, region, t)

    def kind_of(self, qid: int) -> QueryKind | None:
        """The kind of a query that is registered or, in this batch,
        about to be; ``None`` for an unknown qid."""
        if qid in self._pending_registrations:
            return self._pending_registrations[qid].kind
        qstore = self._qstore
        return _KIND_OF_CODE[qstore.kinds[qstore.row_of(qid)]] if qid in qstore else None

    def check_move(self, qid: int, kind: QueryKind, target, t: float) -> None:
        """The move doors' one judge: refuse a ``kind`` move of ``qid``
        to ``target`` (a region, or a k-NN centre) at ``t`` when the
        query is known to be of another kind, or when a value is one
        the batch kernels cannot hold — ``ValueError``, nothing
        buffered.  The ``move_*`` doors run it before
        :meth:`buffer_move`; an edge that may defer a move runs it
        before deferring.  An unknown qid passes — ``evaluate`` then
        refuses the move with its ``KeyError`` (the server refuses it
        first: it checks the query's binding too)."""
        known = self.kind_of(qid)
        if known is not None and known is not kind:
            raise ValueError(
                f"query {qid} is a {known.value} query, not a {kind.value} query"
            )
        if kind is QueryKind.KNN:
            _check_query_input(qid, t, target.x, target.y)
        else:
            _check_query_input(
                qid, t, target.min_x, target.min_y, target.max_x, target.max_y
            )

    def buffer_move(self, qid: int, kind: QueryKind, target, t: float) -> None:
        """Buffer a move :meth:`check_move` passed; a region is clipped
        to the service area."""
        if kind is not QueryKind.KNN:
            target = self.grid.world.clip_or_pin(target)
        self._pending_moves[qid] = (target, t)

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
        if qid in self._qstore:
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
        return len(self._qstore)

    def answer_of(self, qid: int) -> frozenset[int]:
        """The current (last evaluated) answer set of ``qid``."""
        return frozenset(self.answer_array(qid).tolist())

    def answer_array(self, qid: int):
        """``qid``'s current answer as a sorted int64 array of oids."""
        rows = self._qstore.answer_rows(self._qstore.row_of(qid))
        oids = np.frombuffer(self._ostore.oids, dtype=np.int64)[rows]
        oids.sort()
        return oids

    def answer_arrays(self, qids) -> list:
        """:meth:`answer_array` for a run of queries (empty for a query
        not evaluated yet), read off the key array's cut.  An answer of
        at most :data:`_SMALL_ANSWER` members is gathered in Python,
        which costs it less than a numpy pass's fixed overhead."""
        qstore, oids = self._qstore, self._ostore.oids
        keys, out = qstore.keys, []
        for qid in qids:
            start, stop = qstore.run_span(qstore.row_of(qid)) if qid in qstore else (0, 0)
            if stop - start > _SMALL_ANSWER:
                answer = np.frombuffer(oids, dtype=np.int64)[keys[start:stop] & ROW_MASK]
                answer.sort()
            elif stop > start:
                members = [oids[key & ROW_MASK] for key in keys[start:stop].tolist()]
                answer = np.array(sorted(members), np.int64)
            else:
                answer = NO_OIDS
            out.append(answer)
        return out

    def answer_sizes(self):
        """Every query's answer size, in no particular order (int64)."""
        return self._qstore.answer_sizes()

    def complete_answers(self) -> dict[int, frozenset[int]]:
        """Every query's full answer — what a snapshot server retransmits."""
        qstore = self._qstore
        oids = np.frombuffer(self._ostore.oids, dtype=np.int64)[key_rows(qstore.keys)[1]].tolist()
        starts = qstore.run_starts().tolist()
        return {
            qid: frozenset(oids[lo:hi])
            for qid, lo, hi in zip(qstore.qids.tolist(), starts, starts[1:])
        }

    # ------------------------------------------------------------------
    # Bulk evaluation
    # ------------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> UpdateBatch:
        """Apply all buffered input and return the incremental updates.

        Phases: unregistrations, object removals, query registrations,
        query moves, object reports and the range pass, k-NN repair,
        predictive window refresh, occupancy sample.  The returned
        updates are each query's net change over the whole evaluation
        — the diff between its answer before (∅ for a query registered
        in the batch) and after, no ``(qid, oid)`` pair twice — so
        applying them in any order to the previously reported answers
        reproduces the current answers exactly (tested property).

        The return value is an :class:`~repro.core.updates.UpdateBatch`
        of int64 columns — sequence-shaped: iterate, index, and compare
        it like a list.

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
        # k-NN queries holding fewer than k objects must watch for any
        # population growth, not just movement near their circle.
        # Answers change only inside evaluate(), so this is what the
        # previous evaluation left.
        qstore = self._qstore
        knn = qstore.rows_of(KIND_KNN)
        underfull = knn[qstore.answer_sizes()[knn] < np.frombuffer(qstore.ks, dtype=np.int64)[knn]]
        knn_dirty: set[int] = set(np.frombuffer(qstore.qids, dtype=np.int64)[underfull].tolist())
        tracer = self.tracer
        span = tracer.span
        phase_counters = self._phase_counters

        with span("evaluate"):
            with span("unregistrations", phase_counters["unregistrations"]):
                self._apply_unregistrations(knn_dirty)
            with span("removals", phase_counters["removals"]):
                self._apply_removals(updates, knn_dirty)
            # Phases 3-4 write the store rows of the range queries they
            # touch; phase 5 re-answers those at the batch's end state.
            touched: list[int] = []
            with span("registrations", phase_counters["registrations"]):
                self._apply_registrations(touched, knn_dirty)
            with span("query_moves", phase_counters["query_moves"]):
                self._apply_query_moves(touched, knn_dirty)
            with span("object_reports", phase_counters["object_reports"]):
                self._apply_object_reports(updates, touched, knn_dirty)
            with span("knn_repair", phase_counters["knn_repair"]):
                self._repair_knn(knn_dirty, updates)
            with span(
                "predictive_refresh", phase_counters["predictive_refresh"]
            ):
                self._refresh_predictive(updates)
            with span("occupancy_sample", phase_counters["occupancy_sample"]):
                self._sample_occupancy()
            updates.columns()  # each phase appended one chunk: join them once
        self._m_updates_emitted.inc(len(updates))
        self._m_objects.set(self.object_count)
        self._m_queries.set(self.query_count)
        self.freshness.end_cycle()
        recorder.record(
            "evaluate_end",
            now=now,
            updates=len(updates),
            objects=self.object_count,
            queries=self.query_count,
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
        for qid in self._pending_moves:
            if qid in self._qstore and qid not in self._pending_unregistrations:
                continue
            if qid not in self._pending_registrations:
                raise KeyError(f"cannot move unknown query {qid}")

    # ------------------------------------------------------------------
    # Phase 1-2: departures
    # ------------------------------------------------------------------

    def _apply_unregistrations(self, knn_dirty: set[int]) -> None:
        # unregister_query buffers registered qids only.
        for qid in sorted(self._pending_unregistrations):
            self._qstore.remove(qid)
            knn_dirty.discard(qid)
            self.freshness.forget_query(qid)
        self._pending_unregistrations.clear()

    def _apply_removals(self, updates, knn_dirty: set[int]) -> None:
        """Drop the departing objects; each answer holding one emits a
        negative.  The swap-removes move object rows, so the answer keys
        follow them in one pass over all of them — paid only in a cycle
        with removals — and the negatives leave per query: qid
        ascending, then oid."""
        departing = sorted(self._pending_removals)
        self._pending_removals.clear()
        # A removal whose report never reached the store (reported and
        # removed in one batch) leaves its stamp here too.
        self.freshness.forget(departing)
        ostore = self._ostore
        removed = [oid for oid in departing if oid in ostore]
        if not removed:
            return
        oids = np.frombuffer(ostore.oids, dtype=np.int64).copy()
        qstore = self._qstore
        dropped = qstore.relabel_objects(ostore.remove_many(removed))
        qrows, orows = key_rows(dropped)
        qids = np.frombuffer(qstore.qids, dtype=np.int64)[qrows]
        held = oids[orows]
        order = np.lexsort((held, qids))
        updates.extend_columns(qids[order], held[order], np.full(len(held), -1))
        knn_dirty.update(qids[np.frombuffer(qstore.kinds, dtype=np.int8)[qrows] == KIND_KNN].tolist())

    # ------------------------------------------------------------------
    # Phase 3: registrations
    # ------------------------------------------------------------------

    def _apply_registrations(self, touched: list[int], knn_dirty: set[int]) -> None:
        qstore = self._qstore
        for query in self._pending_registrations.values():
            qid = query.qid
            if query.kind is QueryKind.KNN:
                # Radius 0 until _repair_knn computes the first-time
                # answer and widens the circle.
                center = query.center
                qstore.add(
                    qid, KIND_KNN, cx=center.x, cy=center.y, k=query.k, t=query.t
                )
                knn_dirty.add(qid)
                continue
            region = query.region
            bounds = (region.min_x, region.min_y, region.max_x, region.max_y)
            if query.kind is QueryKind.RANGE:
                touched.append(qstore.add(qid, KIND_RANGE, *bounds, t=query.t))
            else:
                # Predictive: answer in the refresh phase.
                qstore.add(
                    qid, KIND_PREDICTIVE, *bounds, horizon=query.horizon, t=query.t
                )
        self._pending_registrations.clear()

    # ------------------------------------------------------------------
    # Phase 4: query movement
    # ------------------------------------------------------------------

    def _apply_query_moves(self, touched: list[int], knn_dirty: set[int]) -> None:
        """Write every buffered move into its query's store row: a k-NN
        centre, or a region — in one scatter for all of them.  A k-NN
        query is re-solved in phase 6, a predictive one re-filtered in
        phase 7, and a range query re-answered in phase 5."""
        qstore = self._qstore
        rows: list[int] = []
        regions: list[Rect] = []
        for qid, (payload, t) in self._pending_moves.items():
            # _validate_pending_moves vouched for every qid.
            row = qstore.row_of(qid)
            qstore.ts[row] = t
            kind = qstore.kinds[row]
            if kind == KIND_KNN:
                qstore.cxs[row] = payload.x  # type: ignore[union-attr]
                qstore.cys[row] = payload.y  # type: ignore[union-attr]
                knn_dirty.add(qid)
                continue
            rows.append(row)
            regions.append(payload)  # type: ignore[arg-type]
            if kind == KIND_RANGE:
                touched.append(row)
        if rows:
            bounds = [(r.min_x, r.min_y, r.max_x, r.max_y) for r in regions]
            qstore.move_bounds(np.array(rows), *np.array(bounds).T)
        self._pending_moves.clear()

    # ------------------------------------------------------------------
    # Phase 5: the range pass
    # ------------------------------------------------------------------

    def _apply_object_reports(self, updates, touched: list[int], knn_dirty: set[int]) -> None:
        """Batch ingest writes the report buffer into the object store
        (phase 5a); then one range pass at the batch's end state
        re-answers the ``touched`` range queries and joins the reports
        against every other one (phase 5b)."""
        reports = None
        if self._pending_reports:
            with self.tracer.span("report_ingest", self._m_ingest_seconds):
                reports = ingest_reports(self._pending_reports, self.grid, self._ostore)
                self.freshness.stamp_reports(reports.oids)
        elif not touched:
            return
        emitted_before = len(updates)
        self._columnar_evaluator.evaluate_ranges(updates, touched, reports, knn_dirty)
        self.recorder.record(
            "columnar_batch",
            reports=0 if reports is None else len(reports.oids),
            emitted=len(updates) - emitted_before,
        )

    # ------------------------------------------------------------------
    # Phase 6: k-NN repair
    # ------------------------------------------------------------------

    def _repair_knn(self, knn_dirty: set[int], updates) -> None:
        # Every qid in it is a registered k-NN query's: unregistrations
        # discard theirs.
        dirty = list(map(self._qstore.row_of, sorted(knn_dirty)))
        if not dirty:
            return
        self._m_knn_repairs.inc(len(dirty))
        # Every dirty query is searched together, each bounded by a
        # distance k objects lie within — the shared-grid analogue of
        # the paper's "evict the furthest / admit the entrant" circle
        # maintenance — and its answer difference installed and emitted
        # in qid order.
        evaluator = self._columnar_evaluator
        dirty = np.array(dirty)
        pos, rows, distances = evaluator.knn_search(dirty)
        evaluator.install(updates, dirty, pos, rows)
        # The radius is the k-th (or last) ranked distance, 0 for none.
        counts = np.bincount(pos, minlength=len(dirty))
        radii = np.zeros(len(dirty))
        radii[counts > 0] = distances[np.cumsum(counts)[counts > 0] - 1]
        np.frombuffer(self._qstore.radii, dtype=np.float64)[dirty] = radii

    # ------------------------------------------------------------------
    # Phase 7: predictive window refresh
    # ------------------------------------------------------------------

    def _refresh_predictive(self, updates) -> None:
        """Re-filter every predictive query in one array pass.

        A predictive answer depends on the query's region and horizon,
        its candidates' states and the evaluation time — the horizon
        window slides — so every registered query is re-answered each
        evaluation, as the reference does; only the changed memberships
        are emitted, per query in qid order.
        """
        qstore = self._qstore
        rows = qstore.rows_of(KIND_PREDICTIVE)
        if not len(rows):
            return
        self._m_predictive_refreshes.inc(len(rows))
        qids, oids, signs = self._columnar_evaluator.predictive_refresh(
            rows, self.now, self.prediction_horizon
        )
        updates.extend_columns(qids, oids, signs)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _sample_occupancy(self) -> None:
        """Record the grid's occupancy shape into the registry.

        Observes every occupied home cell's object count (the store's
        ``cells`` column counted) into the ``grid_cell_occupancy``
        histogram (cumulative across samples — one per evaluation),
        refreshes the ``grid_populated_cells`` (cells holding an object
        or under a query's footprint) / ``grid_indexed_objects`` /
        ``grid_indexed_queries`` gauges, and publishes the
        :data:`HOT_CELLS` hottest cells as
        ``grid_hot_cell_occupancy{rank=...}`` plus the matching
        ``grid_hot_cell_id{rank=...}`` (ties go to the lower cell id) —
        the operator's view of skew (a mis-sized grid shows up as a few
        enormous cells).  Skipped entirely under a disabled (null)
        registry.
        """
        registry = self.registry
        if not registry.enabled:
            return
        counts = self._ostore.cell_counts(self.grid.cell_count)
        cells = np.flatnonzero(counts)
        sizes = counts[cells]
        histogram = registry.histogram(
            "grid_cell_occupancy", buckets=OCCUPANCY_BUCKETS
        )
        for n, times in zip(*np.unique(sizes, return_counts=True)):
            histogram.observe_n(int(n), int(times))
        hottest = np.lexsort((cells, -sizes))[:HOT_CELLS]
        covered = self._columnar_evaluator.footprint_cover()
        registry.gauge("grid_populated_cells").set(
            int(np.count_nonzero(counts + covered))
        )
        registry.gauge("grid_indexed_objects").set(len(self.objects))
        registry.gauge("grid_indexed_queries").set(self.query_count)
        for rank in range(HOT_CELLS):
            labels = {"rank": str(rank)}
            if rank < len(hottest):
                n, cell = int(sizes[hottest[rank]]), int(cells[hottest[rank]])
            else:  # ranks beyond today's occupied count show no stale cell
                n, cell = 0, -1
            registry.gauge("grid_hot_cell_occupancy", labels=labels).set(n)
            registry.gauge("grid_hot_cell_id", labels=labels).set(cell)

    def _check_fresh_qid(self, qid: int) -> None:
        if qid in self._qstore or qid in self._pending_registrations:
            raise KeyError(f"query {qid} is already registered")

    def check_invariants(self) -> None:
        """Verify the object/query membership bookkeeping (tests only)."""
        ostore = self._ostore
        # Answer keys are strictly ascending (a sorted set) and name live
        # rows: every answer member is a store row, and both report
        # doors clamped every stored location into the world (so the
        # cells listing a range query find all its members).
        keys = self._qstore.keys
        qrows, orows = key_rows(keys)
        assert keys.dtype == np.int64 and bool((keys[1:] > keys[:-1]).all())
        assert bool((qrows >= 0).all() and (qrows < len(self._qstore)).all())
        assert bool((orows < len(ostore)).all())
        xs, ys = ostore.xy_views()
        world = self.grid.world
        assert (
            (world.min_x <= xs) & (xs <= world.max_x)
            & (world.min_y <= ys) & (ys <= world.max_y)
        ).all()  # fmt: skip
        assert list(ostore.cells) == [
            self.grid.cell_of(Point(x, y)) for x, y in zip(ostore.xs, ostore.ys)
        ]
        self._columnar_evaluator.check_invariants()
