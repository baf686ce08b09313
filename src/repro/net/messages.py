"""Wire messages and their sizes.

Sizes follow the fixed-width encodings of :mod:`repro.storage.records`:
identifiers are 8 bytes, coordinates and timestamps are 8-byte doubles.
An incremental update tuple ``(Q, +/-A)`` is 17 bytes (two identifiers
plus a sign byte); a complete answer is 16 bytes of header plus 8 bytes
per member object — the quantities behind Figure 5's KB axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.geometry import Point, Rect, Velocity

_ID_BYTES = 8
_FLOAT_BYTES = 8
_SIGN_BYTES = 1


class Message:
    """Base class so links can treat all traffic uniformly.

    Fixed-width kinds carry ``size_bytes`` as a class constant, so bulk
    accounting (``n × UpdateMessage.size_bytes``, one uplink per kind)
    needs no instance.
    """

    @property
    def size_bytes(self) -> int:
        raise NotImplementedError


def full_answer_bytes(members: int) -> int:
    """Wire size of a complete answer of ``members`` objects."""
    return 2 * _ID_BYTES + members * _ID_BYTES


@dataclass(frozen=True, slots=True)
class UpdateMessage(Message):
    """A positive (``sign=+1``) or negative (``sign=-1``) update tuple."""

    qid: int
    oid: int
    sign: int

    size_bytes: ClassVar[int] = 2 * _ID_BYTES + _SIGN_BYTES

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")


@dataclass(frozen=True, slots=True)
class FullAnswerMessage(Message):
    """A complete answer retransmission (what snapshot servers send)."""

    qid: int
    oids: frozenset[int]

    @property
    def size_bytes(self) -> int:
        return full_answer_bytes(len(self.oids))


@dataclass(frozen=True, slots=True)
class ObjectReportMessage(Message):
    """Uplink: an object reports its location (and optional velocity)."""

    oid: int
    location: Point
    velocity: Velocity
    t: float

    size_bytes: ClassVar[int] = _ID_BYTES + 5 * _FLOAT_BYTES


@dataclass(frozen=True, slots=True)
class QueryRegionMessage(Message):
    """Uplink: a moving query reports its new region."""

    qid: int
    region: Rect
    t: float

    size_bytes: ClassVar[int] = _ID_BYTES + 5 * _FLOAT_BYTES


@dataclass(frozen=True, slots=True)
class KnnMoveMessage(Message):
    """Uplink: a moving k-NN query reports its new focal point.

    A k-NN move carries a center and a timestamp — not a rectangle —
    so its wire cost is 3 doubles plus the identifier, not the 5-double
    :class:`QueryRegionMessage` a range move pays.  (``k`` itself never
    changes after registration and is not re-sent.)
    """

    qid: int
    center: Point
    t: float

    size_bytes: ClassVar[int] = _ID_BYTES + 3 * _FLOAT_BYTES


@dataclass(frozen=True, slots=True)
class ObjectRemovalMessage(Message):
    """Uplink: an object announces it is leaving the system."""

    oid: int

    size_bytes: ClassVar[int] = _ID_BYTES


@dataclass(frozen=True, slots=True)
class WakeupMessage(Message):
    """Uplink: an out-of-sync client announces it reconnected."""

    client_id: int

    size_bytes: ClassVar[int] = _ID_BYTES


@dataclass(frozen=True, slots=True)
class CommitMessage(Message):
    """Uplink: a stationary query acknowledges its current answer."""

    qid: int

    size_bytes: ClassVar[int] = _ID_BYTES
