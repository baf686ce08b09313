"""The cross-path contract, in one place.

The columnar engine is the production path and the per-object engine
its reference.  Fed the same calls, after every evaluation:

* each query's *multiset* of ``(oid, sign)`` updates is the same on
  both (the order within a phase may differ);
* on each, every update flips its query's membership — ``+o`` only
  when ``o`` is out of the answer, ``-o`` only when it is in — folded in
  stream order from the answers before the evaluation (the server's
  delivered-answer lag relies on it);
* every query's answer is the same on both;
* ``check_invariants()`` is clean on both;
* the columnar engine's grid index holds no object, and none of its
  k-NN solves left the array pass.

:class:`EnginePair` drives the two engines and asserts exactly that.
"""

from __future__ import annotations

from collections import Counter

from repro.core import IncrementalEngine


def assert_flips(before: dict[int, frozenset[int]], updates) -> None:
    """Every update flips its query's membership, folded in stream order
    from ``before`` (a query missing from it starts at ∅)."""
    answers = {qid: set(answer) for qid, answer in before.items()}
    for qid, oid, sign in updates.tuples():
        answer = answers.setdefault(qid, set())
        assert (oid in answer) == (sign == -1), f"query {qid}: {sign:+d} of {oid}"
        answer ^= {oid}


def per_query(updates) -> dict[int, Counter]:
    """Each query's updates as a multiset of ``(oid, sign)``."""
    out: dict[int, Counter] = {}
    for qid, oid, sign in updates.tuples():
        out.setdefault(qid, Counter())[oid, sign] += 1
    return out


class EnginePair:
    """A columnar engine and a per-object engine fed the same calls."""

    def __init__(self, **kwargs):
        self.columnar = IncrementalEngine(pipeline="columnar", **kwargs)
        self.reference = IncrementalEngine(pipeline="per-object", **kwargs)
        self.engines = (self.columnar, self.reference)

    def all(self, method: str, *args) -> None:
        for engine in self.engines:
            getattr(engine, method)(*args)

    def evaluate(self, now: float):
        """Evaluate both, hold them to the contract, and return the
        columnar stream."""
        before = [engine.complete_answers() for engine in self.engines]
        got = self.columnar.evaluate(now)
        want = self.reference.evaluate(now)
        assert_flips(before[0], got)
        assert_flips(before[1], want)
        assert per_query(got) == per_query(want), f"update multisets at {now}"
        for qid in self.reference.queries:
            assert self.columnar.answer_of(qid) == self.reference.answer_of(qid), qid
        assert self.columnar.complete_answers() == self.reference.complete_answers()
        for engine in self.engines:
            engine.check_invariants()
        assert self.columnar.index.object_count == 0
        assert not self.columnar.registry.value_of(
            "engine_knn_repairs_total", {"path": "scalar"}
        )
        return got
