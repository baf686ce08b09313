"""The brute-force reference engine, and "the true answer" written once.

:class:`ReferenceEngine` has the production engine's doors and buffers
their calls the plain way; ``evaluate(now)`` then applies the whole
batch — unregistrations, removals, registrations, query moves, reports
— re-derives every answer from scratch over the result
(:func:`true_answer`), and emits per query the diff between its answer
before and after the evaluation (a query registered in the batch
starts from ∅): each query's net change, every ``(qid, oid)`` pair at
most once.

There is no index, no incremental bookkeeping and no validation: the
lock-step tests call the production engine first, so the reference only
sees calls the production engine accepted.  The answer functions below
are module-level so the consistency oracle's snapshot check uses the
same definitions.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    QueryState,
    RangeQueryState,
)
from repro.core.updates import UpdateBatch, diff_answers
from repro.geometry import Point, Rect, Velocity

Objects = Mapping[int, ObjectState]


def range_answer(region: Rect, objects: Objects) -> frozenset[int]:
    """The objects inside ``region`` (boundary included)."""
    return frozenset(
        oid for oid, state in objects.items() if region.contains_point(state.location)
    )


def knn_answer(center: Point, k: int, objects: Objects) -> list[tuple[float, int]]:
    """The ``k`` nearest objects to ``center`` as ``(distance, oid)``,
    ascending, ties broken by oid; fewer when the population is smaller."""
    ranked = sorted((state.location.distance_to(center), oid) for oid, state in objects.items())
    return ranked[:k]


def predicted_in_region(
    query: PredictiveQueryState, state: ObjectState, now: float, prediction_horizon: float
) -> bool:
    """Will ``state`` be inside the query region within its horizon?

    The window is ``[now, now + horizon]`` clamped to start no earlier
    than the object's report time (a trajectory is not extrapolated
    backwards) and to end no later than the object's trusted
    extrapolation span, ``prediction_horizon`` past its report.
    """
    start = max(now, state.t)
    end = min(now + query.horizon, state.t + prediction_horizon)
    if end < start:
        return False
    return state.motion().time_in_rect(query.region, start, end) is not None


def predictive_answer(
    query: PredictiveQueryState, objects: Objects, now: float, prediction_horizon: float
) -> frozenset[int]:
    """The objects :func:`predicted_in_region` of ``query`` at ``now``."""
    return frozenset(
        oid
        for oid, state in objects.items()
        if predicted_in_region(query, state, now, prediction_horizon)
    )


def true_answer(
    query: QueryState, objects: Objects, now: float, prediction_horizon: float
) -> frozenset[int]:
    """``query``'s answer over ``objects`` at ``now``, from scratch."""
    if query.kind is QueryKind.RANGE:
        return range_answer(query.region, objects)
    if query.kind is QueryKind.KNN:
        return frozenset(oid for _, oid in knn_answer(query.center, query.k, objects))
    return predictive_answer(query, objects, now, prediction_horizon)


class ReferenceEngine:
    """Every answer re-derived from scratch at every evaluation."""

    def __init__(self, world: Rect, prediction_horizon: float) -> None:
        self.world = world
        self.prediction_horizon = prediction_horizon
        self.now = 0.0
        self.objects: dict[int, ObjectState] = {}
        self.queries: dict[int, QueryState] = {}
        self._reports: dict[int, ObjectState] = {}
        self._removals: set[int] = set()
        self._registrations: dict[int, QueryState] = {}
        self._moves: dict[int, tuple[object, float]] = {}
        self._unregistrations: set[int] = set()

    # -- doors -----------------------------------------------------------

    def report_object(self, oid, location, t, velocity=Velocity.ZERO) -> None:
        self._removals.discard(oid)
        self._reports[oid] = ObjectState(oid, self.world.clamp_point(location), velocity, t)

    def report_objects(self, oids, xs, ys, vxs, vys, ts) -> None:
        for oid, x, y, vx, vy, t in zip(oids, xs, ys, vxs, vys, ts):
            self.report_object(oid, Point(x, y), t, Velocity(vx, vy))

    def remove_object(self, oid) -> None:
        self._reports.pop(oid, None)
        self._removals.add(oid)

    def register_range_query(self, qid, region, t=0.0) -> None:
        self._registrations[qid] = RangeQueryState(qid, self.world.clip_or_pin(region), t)

    def register_knn_query(self, qid, center, k, t=0.0) -> None:
        self._registrations[qid] = KnnQueryState(qid, center, k, t)

    def register_predictive_query(self, qid, region, horizon, t=0.0) -> None:
        region = self.world.clip_or_pin(region)
        self._registrations[qid] = PredictiveQueryState(qid, region, horizon, t)

    def move_range_query(self, qid, region, t) -> None:
        self._moves[qid] = (self.world.clip_or_pin(region), t)

    def move_knn_query(self, qid, center, t) -> None:
        self._moves[qid] = (center, t)

    def move_predictive_query(self, qid, region, t) -> None:
        self._moves[qid] = (self.world.clip_or_pin(region), t)

    def unregister_query(self, qid) -> None:
        self._moves.pop(qid, None)
        if self._registrations.pop(qid, None) is None and qid in self.queries:
            self._unregistrations.add(qid)

    # -- answers ---------------------------------------------------------

    def answer_of(self, qid: int) -> frozenset[int]:
        return frozenset(self.queries[qid].answer)

    def complete_answers(self) -> dict[int, frozenset[int]]:
        return {qid: frozenset(query.answer) for qid, query in self.queries.items()}

    def evaluate(self, now: float | None = None) -> UpdateBatch:
        self.now = self.now if now is None else now
        queries = self.queries
        objects = self.objects
        before = self.complete_answers()
        for qid in self._unregistrations:
            del queries[qid]
        for oid in self._removals:
            objects.pop(oid, None)
        for query in self._registrations.values():
            queries[query.qid] = query
        for qid, (payload, t) in self._moves.items():
            query = queries[qid]
            query.t = t
            if query.kind is QueryKind.KNN:
                query.center = payload
            else:
                query.region = payload
        objects.update(self._reports)

        updates = UpdateBatch()
        for qid in sorted(queries):
            query = queries[qid]
            query.answer = set(true_answer(query, objects, self.now, self.prediction_horizon))
            diff_answers(qid, before.get(qid, frozenset()), query.answer, updates)

        self._reports = {}
        self._removals = set()
        self._registrations = {}
        self._moves = {}
        self._unregistrations = set()
        return updates
