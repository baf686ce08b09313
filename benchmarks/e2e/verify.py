"""Answer checks, run after the clock stops.

The paper's contract is per query: the client's folded ``+/-`` stream
equals the true answer.  Three references, cheapest first:

* the program's own current answer (``engine.answer_of`` in-process,
  ``query_answer`` replies on the wire) — catches a lost, duplicated or
  misrouted update;
* a numpy brute force over the *generator's* last reported positions —
  catches the engine and its own answer agreeing on a wrong set;
* ``engine.check_invariants()`` where the engine is in reach.
"""

from __future__ import annotations

import random

RANGE_SAMPLE = 256
KNN_SAMPLE = 32
WIRE_ANSWER_SAMPLE = 256
_DISTANCE_TOLERANCE = 1e-12


class Fold:
    """Per-query answer sets folded from the delivered ``+/-`` stream."""

    def __init__(self) -> None:
        self.answers: dict[int, set[int]] = {}
        #: An update that cannot apply (retracting a non-member, adding
        #: a member) means the stream itself is wrong.
        self.bad_updates: list[str] = []

    def apply(self, qid: int, oid: int, sign: int) -> None:
        answer = self.answers.setdefault(qid, set())
        if sign > 0:
            if oid in answer:
                self._bad(f"qid {qid}: +{oid} already a member")
            answer.add(oid)
        else:
            if oid not in answer:
                self._bad(f"qid {qid}: -{oid} not a member")
            answer.discard(oid)

    def _bad(self, text: str) -> None:
        if len(self.bad_updates) < 10:
            self.bad_updates.append(text)

    def answer(self, qid: int) -> set[int]:
        return self.answers.get(qid, set())


class Tally:
    """Failures counted against attempts: ops sent plus answers checked."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def ops(self, sent: int, refused: int) -> None:
        self.attempted += sent
        if refused:
            self.fail(f"{refused} of {sent} ops refused", count=refused)

    def checks(self, checked: int, mismatches: list[str]) -> None:
        self.attempted += checked
        for text in mismatches:
            self.fail(text)

    def bad_stream(self, fold: Fold) -> None:
        for text in fold.bad_updates:
            self.fail(text)

    def fail(self, text: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(text)

    def result(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
        }


def _describe(qid: int, held: set[int], truth: set[int], against: str) -> str:
    return (
        f"qid {qid} vs {against}: missing {sorted(truth - held)[:5]} "
        f"extra {sorted(held - truth)[:5]}"
    )


def against_program(fold: Fold, qids, answer_of) -> tuple[int, list[str]]:
    """Compare folded answers with the program's own; returns
    ``(checked, mismatch descriptions)``."""
    mismatches = []
    checked = 0
    for qid in qids:
        truth = set(answer_of(qid))
        checked += 1
        if fold.answer(qid) != truth:
            mismatches.append(_describe(qid, fold.answer(qid), truth, "program"))
    return checked, mismatches


def against_brute_force(np, fold: Fold, workload) -> tuple[int, list[str]]:
    """Sampled range and k-NN queries against a scan of the generator's
    own positions (closed rectangles, like ``Rect.contains_point``).

    k-NN answers are compared as sorted distance lists, so two objects
    at the same distance cannot make the check flap."""
    rng = random.Random(workload.seed)
    xs = np.asarray(workload.xs)
    ys = np.asarray(workload.ys)
    by_kind: dict[str, list[int]] = {"range": [], "knn": []}
    for qid, spec in workload.queries.items():
        if spec[0] in by_kind:
            by_kind[spec[0]].append(qid)
    mismatches = []
    checked = 0
    ranges = by_kind["range"]
    for qid in rng.sample(ranges, min(RANGE_SAMPLE, len(ranges))):
        _, minx, miny, maxx, maxy = workload.queries[qid]
        inside = (xs >= minx) & (xs <= maxx) & (ys >= miny) & (ys <= maxy)
        truth = set(np.flatnonzero(inside).tolist())
        checked += 1
        if fold.answer(qid) != truth:
            mismatches.append(
                _describe(qid, fold.answer(qid), truth, "brute force")
            )
    knns = by_kind["knn"]
    for qid in rng.sample(knns, min(KNN_SAMPLE, len(knns))):
        _, cx, cy, k, _ = workload.queries[qid]
        distances = np.hypot(xs - cx, ys - cy)
        truth = np.sort(distances)[:k]
        held = np.sort(distances[sorted(fold.answer(qid))])
        checked += 1
        if len(held) != len(truth) or not np.allclose(
            held, truth, rtol=0.0, atol=_DISTANCE_TOLERANCE
        ):
            mismatches.append(
                f"qid {qid} vs brute force: k-NN distances "
                f"{held[:3].tolist()}… != {truth[:3].tolist()}…"
            )
    return checked, mismatches
