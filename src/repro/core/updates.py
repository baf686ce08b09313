"""Positive and negative updates — the engine's only output language.

"A positive update of the form (Q, +A) indicates that object A needs to
be added to the answer set of query Q.  Similarly, a negative update of
the form (Q, -A) indicates that object A is no longer part of the answer
set of query Q."

Two representations carry that language:

* :class:`Update` — one materialised ``(qid, oid, sign)`` triple, the
  element type every consumer ultimately sees.
* :class:`UpdateBatch` — the same stream as three parallel int64 columns
  (struct of arrays).  This is what ``evaluate()`` returns: each engine
  phase appends one numpy chunk and never allocates an :class:`Update`
  or a Python int per change; reading builds the ints once, on demand,
  so code written against ``list[Update]`` — golden tests, the oracle,
  examples — keeps working unchanged, in the same order, with the same
  values.
"""

from __future__ import annotations

import numpy as np

_NO_ROWS = np.empty(0, dtype=np.int64)


class Update:
    """One incremental answer change for query ``qid``.

    ``sign`` is ``+1`` (object entered the answer) or ``-1`` (object
    left it).  A client that applies a batch of updates *in order* to its
    stored answer set ends with the server's answer set.

    Value semantics: two updates are equal (and hash equal) iff their
    ``(qid, oid, sign)`` triples match.  Instances are immutable by
    convention — this is a hand-rolled slots class rather than a frozen
    dataclass because consumers may materialise one per emitted change
    (hundreds of thousands per bulk round), and the frozen-dataclass
    ``object.__setattr__`` path more than triples construction cost on
    the hottest line of the emitter.
    """

    __slots__ = ("qid", "oid", "sign")

    def __init__(self, qid: int, oid: int, sign: int) -> None:
        if sign != 1 and sign != -1:
            raise ValueError(f"sign must be +1 or -1, got {sign}")
        self.qid = qid
        self.oid = oid
        self.sign = sign

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Update:
            return (
                self.qid == other.qid
                and self.oid == other.oid
                and self.sign == other.sign
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.qid, self.oid, self.sign))

    def __repr__(self) -> str:
        return f"Update(qid={self.qid}, oid={self.oid}, sign={self.sign})"

    @property
    def is_positive(self) -> bool:
        return self.sign == 1

    @classmethod
    def positive(cls, qid: int, oid: int) -> "Update":
        return cls(qid, oid, 1)

    @classmethod
    def negative(cls, qid: int, oid: int) -> "Update":
        return cls(qid, oid, -1)

    def __str__(self) -> str:  # matches the paper's (Q, +A) notation
        sign = "+" if self.sign == 1 else "-"
        return f"(Q{self.qid}, {sign}p{self.oid})"


class UpdateBatch:
    """An update stream as three parallel int64 columns (struct of arrays).

    Producers append chunks: ``extend_columns(qids, oids, signs)`` one
    aligned chunk (the emitters' numpy arrays, kept as they are), and
    ``push`` / ``extend`` rows one at a time into a Python tail chunk
    (recovery deltas, the reference engine).  :meth:`columns` joins the
    chunks into three int64 arrays once.  Reading is sequence-shaped:
    ``len``, iteration, indexing, ``==`` (element-wise against any
    list/tuple of updates, so ``evaluate(now) == []`` keeps working) and
    the ``qids`` / ``oids`` / ``signs`` lists build Python ints on first
    read and keep them until the next append.  FIFO order is the column
    order — :meth:`to_list` then :meth:`from_updates` is the identity
    (tested property).
    """

    __slots__ = ("_chunks", "_tail", "_len", "_columns", "_lists")

    def __init__(self, qids=None, oids=None, signs=None) -> None:
        self._chunks: list[tuple] = []
        self._tail: tuple[list, list, list] | None = None
        self._len = 0
        self._columns = self._lists = None
        if qids is not None:
            self.extend_columns(qids, oids, signs)

    @classmethod
    def from_updates(cls, updates) -> "UpdateBatch":
        """Rebuild a batch from any iterable of updates (order kept)."""
        batch = cls()
        batch.extend(updates)
        return batch

    # ------------------------------------------------------------------
    # Emission API
    # ------------------------------------------------------------------

    def push(self, qid: int, oid: int, sign: int) -> None:
        """Append one change without materialising an :class:`Update`."""
        tail = self._tail
        if tail is None:
            tail = self._tail = ([], [], [])
            self._chunks.append(tail)
        tail[0].append(qid)
        tail[1].append(oid)
        tail[2].append(sign)
        self._len += 1
        self._columns = self._lists = None

    def extend_columns(self, qids, oids, signs) -> None:
        """Append one aligned chunk of columns (arrays or int sequences)."""
        chunk = tuple(np.asarray(column, dtype=np.int64) for column in (qids, oids, signs))
        if not (len(chunk[0]) == len(chunk[1]) == len(chunk[2])):
            raise ValueError("column lengths differ: " + "/".join(str(len(c)) for c in chunk))
        self._chunks.append(chunk)
        self._tail = None
        self._len += len(chunk[0])
        self._columns = self._lists = None

    def extend(self, updates) -> None:
        if isinstance(updates, UpdateBatch):
            self.extend_columns(*updates.columns())
            return
        for update in updates:
            self.push(update.qid, update.oid, update.sign)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def columns(self) -> tuple:
        """The stream as ``(qids, oids, signs)`` int64 arrays, the chunks
        joined once (one chunk is returned as it is)."""
        if self._columns is None:
            chunks = self._chunks
            if len(chunks) == 1 and chunks[0] is not self._tail:
                self._columns = chunks[0]
            else:
                self._columns = tuple(
                    np.concatenate([chunk[i] for chunk in chunks] or [_NO_ROWS], dtype=np.int64)
                    for i in range(3)
                )
                self._chunks, self._tail = [self._columns], None
        return self._columns

    def _listed(self) -> tuple[list, list, list]:
        if self._lists is None:
            self._lists = tuple(column.tolist() for column in self.columns())
        return self._lists

    qids = property(lambda self: self._listed()[0])
    oids = property(lambda self: self._listed()[1])
    signs = property(lambda self: self._listed()[2])

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return map(Update, *self._listed())

    def __getitem__(self, index):
        if isinstance(index, slice):
            return UpdateBatch(*(column[index] for column in self.columns()))
        return Update(*(column[index] for column in self._listed()))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpdateBatch):
            return self._listed() == other._listed()
        if isinstance(other, (list, tuple)):
            if len(other) != self._len:
                return False
            return all(mine == theirs for mine, theirs in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))

    def tuples(self):
        """Iterate the raw ``(qid, oid, sign)`` triples, no :class:`Update` built."""
        return zip(*self._listed())

    def to_list(self) -> list[Update]:
        """Materialise the whole stream as ``list[Update]``."""
        return list(self)


def diff_answers(
    qid: int, old: set[int], new: set[int], into: UpdateBatch | None = None
) -> "list[Update] | UpdateBatch":
    """The update stream turning answer ``old`` into answer ``new``.

    Negative updates come first (deterministically sorted), then
    positives — the order the out-of-sync recovery path sends them in.
    Pass ``into`` to append the delta onto an existing
    :class:`UpdateBatch` (returned) instead of materialising a list.
    """
    if into is not None:
        for oid in sorted(old - new):
            into.push(qid, oid, -1)
        for oid in sorted(new - old):
            into.push(qid, oid, 1)
        return into
    negatives = [Update.negative(qid, oid) for oid in sorted(old - new)]
    positives = [Update.positive(qid, oid) for oid in sorted(new - old)]
    return negatives + positives


def apply_updates(answer: set[int], updates) -> set[int]:
    """Apply a batch of updates (any queries mixed) to one answer set.

    The caller filters to a single query's updates; this helper is the
    client-side application rule and the test oracle for consistency.
    Accepts a ``list[Update]`` or an :class:`UpdateBatch`.
    """
    result = set(answer)
    for update in updates:
        if update.is_positive:
            result.add(update.oid)
        else:
            result.discard(update.oid)
    return result
