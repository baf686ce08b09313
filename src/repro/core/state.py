"""Server-side state for objects and queries.

These follow the paper's entry layouts: a query entry ``(QID, region,
t, OList)`` where ``OList`` is the answer set, and an object entry
``(OID, loc, t)`` — without the paper's ``QList``, "the list of the
queries that O is satisfying": the answers are the only record of
membership.  The engine keeps each object and each query as its row in
a columnar store (a query's answer as a run of the store's sorted answer
keys) and materialises these states from the rows on access, the answer
as a frozenset, for readers that want one; the
brute-force reference keeps them outright, and the engine buffers a
registration as one until it writes the row.
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
    seconds of the current evaluation time?  Every evaluation re-answers
    it against the slid window."""

    qid: int
    region: Rect
    horizon: float
    t: float
    answer: set[int] = field(default_factory=set)

    kind = QueryKind.PREDICTIVE_RANGE


QueryState = RangeQueryState | KnnQueryState | PredictiveQueryState
