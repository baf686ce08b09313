"""Committed answers and out-of-sync client recovery (paper Section 3.3).

A committed answer is one "it is guaranteed that the client has
received".  The server keeps, per query, the last committed answer
alongside the live answer; when an out-of-sync client wakes up, the
server "compares the latest answer for the query with the committed
answer, and sends the difference of the answer in the form of positive
and negative updates" — typically far cheaper than retransmitting the
whole answer.

Commit triggers follow the paper: any uplink message from a *moving*
query implicitly commits its latest delivered answer (the message proves
the client is alive and connected), while *stationary* queries commit
only via an explicit commit message, sent "at the convenient times of
the clients".
"""

from __future__ import annotations

import numpy as np

from repro.core.updates import Update, diff_answers

#: The empty answer (read-only, shared).
NO_OIDS = np.empty(0, dtype=np.int64)
NO_OIDS.flags.writeable = False


def sorted_oids(answer):
    """``answer`` as a sorted int64 array of oids: a sorted int64 array
    (what the server hands over) as it is, any other iterable sorted."""
    if isinstance(answer, np.ndarray):
        return answer
    return np.array(sorted(answer), dtype=np.int64)


class CommittedAnswerStore:
    """The repository of committed query answers, each held as a sorted
    int64 array of oids."""

    def __init__(self) -> None:
        self._committed: dict[int, np.ndarray] = {}

    def committed_oids(self, qid: int):
        """The last committed answer as a sorted int64 array (empty
        before any commit)."""
        return self._committed.get(qid, NO_OIDS)

    def committed_answer(self, qid: int) -> frozenset[int]:
        """The last committed answer as a set (empty before any commit)."""
        return frozenset(self.committed_oids(qid).tolist())

    def commit(self, qid: int, answer) -> None:
        """Mark ``answer`` (a sorted int64 array, or any iterable of
        oids) as guaranteed-received for ``qid``."""
        self._committed[qid] = sorted_oids(answer)

    def forget(self, qid: int) -> None:
        """Drop state for an unregistered query."""
        self._committed.pop(qid, None)

    def recovery_updates(self, qid: int, current_answer, into=None) -> "list[Update] | object":
        """The +/- delta bringing a reconnecting client up to date.

        The client's stored answer equals the committed answer (every
        delivered-and-acknowledged update is folded into a commit), so
        the difference against the server's current answer (a sorted
        int64 array, or any iterable of oids) is exactly what the client
        is missing.  ``into`` (an :class:`~repro.core.updates.UpdateBatch`)
        is forwarded to :func:`diff_answers` so the server's recovery
        path stays on the columnar stream representation.
        """
        return diff_answers(
            qid,
            set(self.committed_oids(qid).tolist()),
            set(sorted_oids(current_answer).tolist()),
            into=into,
        )

    def tracked_queries(self) -> set[int]:
        return set(self._committed)
