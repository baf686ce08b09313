"""Kernel contract tests: the classifier against a straight-line
reimplementation of its contract.

Plans here are built by hand from randomized stores (no engine in the
loop), so the tests pin the kernel contract itself: changed pairs only
as public qid/oid lists (stores use non-identity ids so the row→id
mapping is genuinely exercised), flat serial pair order, NaN old
coordinates classified as "was a member of nothing".
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.columnar import (
    ColumnarObjectStore,
    ColumnarQueryStore,
    KIND_RANGE,
    PairPlan,
    classify_transitions,
)
from tests.columnar.test_store import report


def plan_of(cohorts) -> PairPlan:
    """A plan from ``(entry rows, member rows)`` per cohort."""
    return PairPlan(
        np.array([row for ents, _ in cohorts for row in ents], dtype=np.int32),
        np.array([len(ents) for ents, _ in cohorts], dtype=np.int64),
        np.array([row for _, rows in cohorts for row in rows], dtype=np.int32),
        np.array([len(rows) for _, rows in cohorts], dtype=np.int64),
    )


def build_random_batch(seed: int, cohorts: int = 12):
    """Random stores plus a random ragged plan over them."""
    rng = random.Random(seed)
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    n_objects = rng.randint(5, 60)
    n_queries = rng.randint(3, 30)
    for i in range(n_objects):
        oid = 1000 + 3 * i  # row i, but a distinct public id
        report(ostore, oid, rng.random(), rng.random())
        if rng.random() < 0.8:
            # Second report: old coords become the first location.
            report(ostore, oid, rng.random(), rng.random(), t=1.0)
    for i in range(n_queries):
        qid = 500 + 7 * i
        x, y = rng.random() * 0.8, rng.random() * 0.8
        qstore.put(
            qid, KIND_RANGE, x, y, x + rng.random() * 0.4, y + rng.random() * 0.4
        )
    layout = []
    for _ in range(cohorts):
        # A cohort's entries are up to two cells' sorted lists, joined.
        ents = []
        for _ in range(rng.randint(0, 2)):
            ents += sorted(rng.sample(range(n_queries), rng.randint(1, n_queries)))
        members = sorted(rng.sample(range(n_objects), rng.randint(1, min(8, n_objects))))
        layout.append((ents, members))
    return layout, ostore, qstore


def reference_classify(layout, ostore, qstore):
    """Straight-line reimplementation of the contract, independent of
    the production kernel."""
    qids, oids, signs = [], [], []
    for ents, rows in layout:
        for erow in ents:
            lx, hx = qstore.min_xs[erow], qstore.max_xs[erow]
            ly, hy = qstore.min_ys[erow], qstore.max_ys[erow]
            for orow in rows:
                in_new = lx <= ostore.xs[orow] <= hx and ly <= ostore.ys[orow] <= hy
                in_old = (
                    lx <= ostore.old_xs[orow] <= hx
                    and ly <= ostore.old_ys[orow] <= hy
                )
                if in_new != in_old:
                    qids.append(qstore.qids[erow])
                    oids.append(ostore.oids[orow])
                    signs.append(1 if in_new else -1)
    return qids, oids, signs


@pytest.mark.parametrize("seed", range(20))
def test_numpy_backend_matches_reference(seed):
    layout, ostore, qstore = build_random_batch(seed)
    got = classify_transitions(plan_of(layout), ostore, qstore)
    assert list(got[:3]) == list(reference_classify(layout, ostore, qstore))


@pytest.mark.parametrize("seed", range(8))
def test_numpy_chunking_is_invisible(seed):
    layout, ostore, qstore = build_random_batch(seed, cohorts=20)
    whole = classify_transitions(plan_of(layout), ostore, qstore)
    tiny = classify_transitions(plan_of(layout), ostore, qstore, chunk_pairs=7)
    assert whole[:3] == tiny[:3]


def test_nan_old_coords_mean_member_of_nothing():
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    # Fresh object inside the query: NaN old coords -> pure enter.
    report(ostore, 1, 0.5, 0.5)
    assert math.isnan(ostore.old_xs[0])
    qstore.put(9, KIND_RANGE, 0.0, 0.0, 1.0, 1.0)
    qids, oids, signs, _ = classify_transitions(
        plan_of([([0], [0])]), ostore, qstore
    )
    assert (qids, oids, signs) == ([9], [1], [1])


def test_empty_plan():
    ostore = ColumnarObjectStore()
    report(ostore, 1, 0.5, 0.5)
    qstore = ColumnarQueryStore()
    qids, oids, signs, arrays = classify_transitions(
        plan_of([([], [0]), ([], [0])]), ostore, qstore
    )
    assert (qids, oids, signs, arrays) == ([], [], [], None)


def test_boundary_containment_is_closed():
    # Objects sitting exactly on a bound enter/stay: closed comparisons,
    # matching Rect.contains_point.
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    report(ostore, 1, 0.2, 0.2)  # old NaN
    report(ostore, 1, 0.4, 0.6, t=1.0)  # old = (0.2, 0.2)
    qstore.put(5, KIND_RANGE, 0.2, 0.2, 0.4, 0.6)
    # Old (0.2,0.2) on the min corner and new (0.4,0.6) on the max
    # corner are both inside: no transition.
    qids, _, _, arrays = classify_transitions(plan_of([([0], [0])]), ostore, qstore)
    assert (qids, arrays) == ([], None)
