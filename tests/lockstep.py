"""The production engine against the brute-force reference, in one place.

Fed the same calls — the production engine first, so the reference only
sees what the production engine accepted — after every evaluation:

* each query's *multiset* of ``(oid, sign)`` updates is the same on
  both (the order within a phase may differ);
* on each, no ``(qid, oid)`` pair appears twice in one evaluation's
  stream: a query's updates are its net change over the evaluation;
* on each, every update flips its query's membership — ``+o`` only
  when ``o`` is out of the answer, ``-o`` only when it is in — folded in
  stream order from the answers before the evaluation (the server's
  delivered-answer lag relies on it);
* every query's answer is the same on both;
* every query's state is the same on both — qid, kind, region or
  centre, ``k``, horizon and ``t`` — the production engine's read from
  its query-store row through ``engine.queries``;
* the production engine's ``check_invariants()`` is clean.

:class:`EnginePair` drives the two engines and asserts exactly that.
"""

from __future__ import annotations

from collections import Counter

from repro.check.reference import ReferenceEngine
from repro.core import DEFAULT_WORLD, IncrementalEngine
from repro.core.state import QueryKind


def assert_flips(before: dict[int, frozenset[int]], updates) -> None:
    """Every update flips its query's membership, folded in stream order
    from ``before`` (a query missing from it starts at ∅)."""
    answers = {qid: set(answer) for qid, answer in before.items()}
    for qid, oid, sign in updates.tuples():
        answer = answers.setdefault(qid, set())
        assert (oid in answer) == (sign == -1), f"query {qid}: {sign:+d} of {oid}"
        answer ^= {oid}


def assert_no_repeats(updates) -> None:
    """No ``(qid, oid)`` pair appears twice in one evaluation's stream."""
    pairs = Counter(zip(updates.qids, updates.oids))
    repeated = [pair for pair, n in pairs.items() if n > 1]
    assert not repeated, f"pairs emitted twice: {repeated[:5]}"


def query_geometry(query) -> tuple:
    """What a query state says besides its answer (and a k-NN query's
    radius, which the reference does not keep)."""
    if query.kind is QueryKind.KNN:
        shape = (query.center, query.k)
    elif query.kind is QueryKind.RANGE:
        shape = (query.region,)
    else:
        shape = (query.region, query.horizon)
    return (query.qid, query.kind, *shape, query.t)


def per_query(updates) -> dict[int, Counter]:
    """Each query's updates as a multiset of ``(oid, sign)``."""
    out: dict[int, Counter] = {}
    for qid, oid, sign in updates.tuples():
        out.setdefault(qid, Counter())[oid, sign] += 1
    return out


class EnginePair:
    """A production engine and the brute-force reference fed the same
    calls; ``kwargs`` are the production engine's constructor keywords."""

    def __init__(self, **kwargs):
        self.production = IncrementalEngine(**kwargs)
        self.reference = ReferenceEngine(
            kwargs.get("world", DEFAULT_WORLD), self.production.prediction_horizon
        )
        self.engines = (self.production, self.reference)

    def all(self, method: str, *args) -> None:
        for engine in self.engines:
            getattr(engine, method)(*args)

    def evaluate(self, now: float):
        """Evaluate both, hold them to the contract, and return the
        production stream."""
        before = [engine.complete_answers() for engine in self.engines]
        got = self.production.evaluate(now)
        want = self.reference.evaluate(now)
        for engine_before, stream in zip(before, (got, want)):
            assert_no_repeats(stream)
            assert_flips(engine_before, stream)
        assert per_query(got) == per_query(want), f"update multisets at {now}"
        assert self.production.complete_answers() == self.reference.complete_answers()
        assert {qid: query_geometry(q) for qid, q in self.production.queries.items()} == {
            qid: query_geometry(q) for qid, q in self.reference.queries.items()
        }, f"query states at {now}"
        self.production.check_invariants()
        return got
