"""Kernel contract tests: the classifier against a straight-line
reimplementation of its contract.

Plans here are built by hand from randomized stores (no engine in the
loop), so the tests pin the kernel contract itself: changed pairs only
as public qid/oid arrays (stores use non-identity ids so the row→id
mapping is genuinely exercised), grouped by query with negatives first,
each entry emitting only the sign its role allows, NaN old coordinates
classified as "was a member of nothing".
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.columnar import (
    ColumnarObjectStore,
    ColumnarQueryStore,
    KIND_RANGE,
    PairPlan,
    classify_transitions,
)
from tests.columnar.test_store import report


def plan_of(cohorts) -> PairPlan:
    """A plan from ``(entries, member rows)`` per cohort, an entry being
    ``(query row, role)``."""
    return PairPlan(
        np.array([row for ents, _ in cohorts for row, _ in ents], dtype=np.int32),
        np.array([role for ents, _ in cohorts for _, role in ents], dtype=np.int8),
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
        # A cohort's entries are one cell's sorted list, either sign, or
        # two cells' lists joined, the first minus-only, the second
        # plus-only.
        ents = []
        for role in ((), (0,), (-1, 1))[rng.randint(0, 2)]:
            rows = sorted(rng.sample(range(n_queries), rng.randint(1, n_queries)))
            ents += [(row, role) for row in rows]
        members = sorted(rng.sample(range(n_objects), rng.randint(1, min(8, n_objects))))
        layout.append((ents, members))
    return layout, ostore, qstore


def columns(joined):
    """The kernel's ``(qids, oids, signs)`` arrays as lists."""
    if joined is None:
        return [], [], []
    return tuple(column.tolist() for column in joined)


def reference_classify(layout, ostore, qstore):
    """Straight-line reimplementation of the contract, independent of
    the production kernel: every changed pair its entry's role allows,
    then one sort into query order, negatives first, object rows
    ascending (here ids grow with rows, so the ids sort the same way)."""
    qids, oids, signs = [], [], []
    for ents, rows in layout:
        for erow, role in ents:
            lx, hx = qstore.min_xs[erow], qstore.max_xs[erow]
            ly, hy = qstore.min_ys[erow], qstore.max_ys[erow]
            for orow in rows:
                in_new = lx <= ostore.xs[orow] <= hx and ly <= ostore.ys[orow] <= hy
                in_old = (
                    lx <= ostore.old_xs[orow] <= hx
                    and ly <= ostore.old_ys[orow] <= hy
                )
                sign = 1 if in_new else -1
                if in_new != in_old and role in (0, sign):
                    qids.append(qstore.qids[erow])
                    oids.append(ostore.oids[orow])
                    signs.append(sign)
    ordered = sorted(zip(qids, signs, oids))
    return (
        [qid for qid, _, _ in ordered],
        [oid for _, _, oid in ordered],
        [sign for _, sign, _ in ordered],
    )


@pytest.mark.parametrize("seed", range(20))
def test_numpy_backend_matches_reference(seed):
    layout, ostore, qstore = build_random_batch(seed)
    got = classify_transitions(plan_of(layout), ostore, qstore)
    assert columns(got) == reference_classify(layout, ostore, qstore)


@pytest.mark.parametrize("seed", range(8))
def test_numpy_chunking_is_invisible(seed):
    """Chunks of 7 pairs cut through a leading cohort's minus-only and
    plus-only segments (3 entries x 3 members: pairs 0-8 and 9-17)."""
    layout, ostore, qstore = build_random_batch(seed, cohorts=20)
    split = [(row, role) for role in (-1, 1) for row in range(3)], [0, 1, 2]
    layout = [split, *layout]
    whole = classify_transitions(plan_of(layout), ostore, qstore)
    tiny = classify_transitions(plan_of(layout), ostore, qstore, chunk_pairs=7)
    assert columns(whole) == columns(tiny)
    assert columns(tiny) == reference_classify(layout, ostore, qstore)


#: Coordinates on an eighths lattice (closed bounds hit exactly) or anywhere.
coords = st.one_of(st.sampled_from([i / 8 for i in range(9)]), st.floats(0.0, 1.0))


@st.composite
def batches(draw):
    """Random stores and a random plan over them, every entry's role
    drawn on its own."""
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    n_objects = draw(st.integers(1, 12))
    for i in range(n_objects):
        report(ostore, 1000 + 3 * i, draw(coords), draw(coords))
        if draw(st.booleans()):
            report(ostore, 1000 + 3 * i, draw(coords), draw(coords), t=1.0)
    n_queries = draw(st.integers(1, 8))
    for i in range(n_queries):
        x0, x1 = sorted((draw(coords), draw(coords)))
        y0, y1 = sorted((draw(coords), draw(coords)))
        qstore.put(500 + 7 * i, KIND_RANGE, x0, y0, x1, y1)
    entries = st.tuples(st.integers(0, n_queries - 1), st.sampled_from([-1, 0, 1]))
    members = st.lists(
        st.integers(0, n_objects - 1), min_size=1, max_size=6, unique=True
    ).map(sorted)
    layout = draw(st.lists(st.tuples(st.lists(entries, max_size=10), members), max_size=8))
    return layout, ostore, qstore


@given(batch=batches(), chunk_pairs=st.integers(1, 64))
def test_kernel_matches_reference_on_any_plan(batch, chunk_pairs):
    layout, ostore, qstore = batch
    got = classify_transitions(plan_of(layout), ostore, qstore, chunk_pairs=chunk_pairs)
    assert columns(got) == reference_classify(layout, ostore, qstore)


def test_a_pair_listed_under_both_roles_emits_once():
    """A cohort that changed cell lists a query in both cells' lists:
    the old cell's copy may only emit the leaver, the new cell's only
    the entrant."""
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    report(ostore, 1, 0.1, 0.1)
    report(ostore, 1, 0.9, 0.9, t=1.0)  # leaves
    report(ostore, 2, 0.9, 0.9)
    report(ostore, 2, 0.1, 0.1, t=1.0)  # enters
    qstore.put(9, KIND_RANGE, 0.0, 0.0, 0.5, 0.5)
    plan = plan_of([([(0, -1), (0, 1)], [0, 1])])
    joined = classify_transitions(plan, ostore, qstore)
    assert columns(joined) == ([9, 9], [1, 2], [-1, 1])


def test_nan_old_coords_mean_member_of_nothing():
    ostore = ColumnarObjectStore()
    qstore = ColumnarQueryStore()
    # Fresh object inside the query: NaN old coords -> pure enter.
    report(ostore, 1, 0.5, 0.5)
    assert math.isnan(ostore.old_xs[0])
    qstore.put(9, KIND_RANGE, 0.0, 0.0, 1.0, 1.0)
    joined = classify_transitions(plan_of([([(0, 0)], [0])]), ostore, qstore)
    assert columns(joined) == ([9], [1], [1])


def test_empty_plan():
    ostore = ColumnarObjectStore()
    report(ostore, 1, 0.5, 0.5)
    qstore = ColumnarQueryStore()
    assert classify_transitions(plan_of([([], [0]), ([], [0])]), ostore, qstore) is None


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
    assert classify_transitions(plan_of([([(0, 0)], [0])]), ostore, qstore) is None
