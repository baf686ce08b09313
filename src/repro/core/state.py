"""Server-side state for objects and queries.

These follow the paper's entry layouts: a query entry ``(QID, region,
t, OList)`` where ``OList`` is the answer set, and an object entry
``(OID, loc, t)`` — without the paper's ``QList``, "the list of the
queries that O is satisfying": the answers are the only record of
membership.  The engine keeps an object as its row in the object store
and materialises an ``ObjectState`` from that row on access, for
readers that want one; the brute-force reference keeps them outright.
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
    """One tracked object: its last reported location, velocity and time."""

    oid: int
    location: Point
    velocity: Velocity
    t: float

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

    ``next_flip`` is derived scheduling state maintained by the engine:
    the earliest evaluation time at which some candidate object's
    predicted membership can change *purely because the horizon window
    slid forward* (no report churn).  Until that time, a refresh
    without churn in the query's footprint cells is provably a no-op
    and is skipped.  ``-inf`` means "not yet computed:
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
