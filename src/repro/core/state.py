"""Server-side state for objects and queries.

These mirror the paper's entry layouts: an object entry ``(OID, loc, t,
QList)`` where ``QList`` is "the list of the queries that O is
satisfying", and a query entry ``(QID, region, t, OList)`` where
``OList`` is the answer set.  Both directions of the object/query
membership relation are the per-object reference's: it keeps an
``ObjectState`` per object, with its ``answered`` QList, and prunes
candidates and removals by degree.  The production (columnar) path keeps
answers only — an object is its row in the object store, and
``ObjectState`` is materialised from that row on access for readers
that want one.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geometry import Circle, LinearMotion, Point, Rect, Velocity


class QueryKind(enum.Enum):
    """The continuous query types the framework supports."""

    RANGE = "range"
    KNN = "knn"
    PREDICTIVE_RANGE = "predictive"


@dataclass(slots=True)
class ObjectState:
    """One tracked object: current location, motion, reverse answer list."""

    oid: int
    location: Point
    velocity: Velocity
    t: float
    answered: set[int] = field(default_factory=set)

    @property
    def is_predictive(self) -> bool:
        """Predictive objects reported a non-zero velocity vector."""
        return not self.velocity.is_zero()

    def motion(self) -> LinearMotion:
        return LinearMotion(self.location, self.velocity, self.t)


@dataclass(slots=True)
class RangeQueryState:
    """A (possibly moving) rectangular range query."""

    qid: int
    region: Rect
    t: float
    answer: set[int] = field(default_factory=set)

    kind = QueryKind.RANGE


@dataclass(slots=True)
class KnnQueryState:
    """A continuous k-NN query maintained as an adaptive circular range.

    ``radius`` is the distance to the current k-th nearest neighbour
    (the paper's "smallest circular region that contains the k nearest
    objects"); it grows and shrinks as the answer changes.
    """

    qid: int
    center: Point
    k: int
    t: float
    radius: float = 0.0
    answer: set[int] = field(default_factory=set)

    kind = QueryKind.KNN

    def circle(self) -> Circle:
        return Circle(self.center, self.radius)


@dataclass(slots=True)
class PredictiveQueryState:
    """A predictive range query: who will be in ``region`` within ``horizon``
    seconds of the current evaluation time?

    ``next_flip`` is derived scheduling state maintained by the engine's
    columnar pipeline: the earliest evaluation time at which some
    candidate object's predicted membership can change *purely because
    the horizon window slid forward* (no report churn).  Until that
    time, a refresh without churn in the query's footprint cells is
    provably a no-op and is skipped.  ``-inf`` means "not yet computed:
    always refresh".
    """

    qid: int
    region: Rect
    horizon: float
    t: float
    answer: set[int] = field(default_factory=set)
    next_flip: float = float("-inf")

    kind = QueryKind.PREDICTIVE_RANGE


QueryState = RangeQueryState | KnnQueryState | PredictiveQueryState
