"""Batch kernels for the columnar evaluation core.

Report evaluation visits every (candidate query, cohort object) pair of
every transition cohort.  Instead of looping those pairs in Python, the
columnar pipeline runs two array passes over the whole batch:

1. **Cell-range join** — expand the batch's ragged (cohort → candidate
   entry rows × member object rows) structure into two flat pair-index
   arrays, cohort-major (cohort → partial-then-covering entries sorted
   by qid → objects sorted by oid).
2. **Membership classification** — one vectorized containment test per
   pair against the object's new and old coordinates.  ``enter`` is
   inside-new ∧ ¬inside-old (a positive update), ``leave`` the reverse
   (negative), ``still-inside``/``still-outside`` produce nothing.
   Prior membership is *recomputed geometrically from the old
   coordinates* rather than looked up: a range answer always equals
   the set of objects inside the region (the engine maintains exactly
   that invariant through every phase), and NaN old coordinates — new
   objects — test False against every bound.

Kernel contract::

    classify_transitions(plan, ostore, qstore) -> (qids, oids, signs) | None

three int64 arrays over the *changed* pairs only (``None`` when no pair
changed): the public query/object identifiers (store rows map to
identifiers with one vectorized gather over the id columns — never per
pair in Python) and +1/-1.  The pairs come **grouped by query**, each
query's negatives before its positives, each half ascending by object
row: one sort of packed ``(query row, sign, object row)`` keys, which
is the order the emitter streams and the grouping the answer toggle
applies.  The kernel classifies exactly the pairs the plan enumerates
— plan construction has already deduplicated candidate entries across
a cohort's two cells, so every changed pair maps one-to-one onto an
emitted update.

Pair-index arrays are materialised for the whole batch (int32: two
4-byte columns per pair) but the float work runs in
:data:`PAIR_CHUNK`-sized chunks so peak temporary memory stays bounded
regardless of batch size.
"""

from __future__ import annotations

import numpy as np

#: Pairs per float-kernel chunk (eight float64 temporaries per pair in
#: flight → ~70 MB peak at this setting).
PAIR_CHUNK = 1 << 20


class PairPlan:
    """The ragged join structure for one batch, cohort-major.

    * ``ent`` — the query-store rows of every cohort's candidate
      entries, concatenated; cohort ``i`` owns the next
      ``ent_counts[i]`` of them.
    * ``obj_rows`` — object-store rows of every cohort member, flat,
      cohort-major, sorted by oid within a cohort; cohort ``i`` owns the
      next ``obj_counts[i]`` of them.
    """

    __slots__ = ("ent", "ent_counts", "obj_rows", "obj_counts", "total_pairs")

    def __init__(self, ent, ent_counts, obj_rows, obj_counts) -> None:
        self.ent = ent
        self.ent_counts = ent_counts
        self.obj_rows = obj_rows
        self.obj_counts = obj_counts
        self.total_pairs = int((ent_counts * obj_counts).sum())

    @property
    def cohort_count(self) -> int:
        return len(self.ent_counts)


def classify_transitions(
    plan: PairPlan, ostore, qstore, chunk_pairs: int = PAIR_CHUNK
):
    """Run the join + membership classification for one batch (the
    contract above)."""
    n_cohorts = plan.cohort_count
    if plan.total_pairs == 0:
        return None

    ent_counts = np.asarray(plan.ent_counts, dtype=np.int64)
    obj_counts = np.asarray(plan.obj_counts, dtype=np.int64)
    pairs = ent_counts * obj_counts
    pair_start = np.zeros(n_cohorts + 1, dtype=np.int64)
    np.cumsum(pairs, out=pair_start[1:])
    total = int(pair_start[-1])
    # int32 pair indices halve the bandwidth of the expansion
    # temporaries; int64 only when a batch actually overflows them.
    idx = np.int32 if total < 2**31 else np.int64

    # --- the cell-range join: flat (query row, object row) pair arrays.
    ent = plan.ent
    obj = np.asarray(plan.obj_rows, dtype=np.int32)
    # Each candidate entry repeats once per cohort member, entry-major.
    qidx = np.repeat(ent, np.repeat(obj_counts, ent_counts))
    # Pair p of cohort c addresses member (p - pair_start[c]) % m[c].
    obj_start = np.zeros(n_cohorts, dtype=idx)
    np.cumsum(obj_counts[:-1].astype(idx), out=obj_start[1:])
    rel = np.arange(total, dtype=idx)
    rel -= np.repeat(pair_start[:-1].astype(idx), pairs)
    rel %= np.repeat(obj_counts.astype(idx), pairs)
    rel += np.repeat(obj_start, pairs)
    oidx = obj[rel]
    del rel

    xs, ys, old_xs, old_ys = ostore.coord_views()
    min_xs, min_ys, max_xs, max_ys = qstore.bounds_views()

    # Changed pairs as packed (query row, enters, object row) keys; rows
    # are below 2**31, so a key fits an int64.
    keys: list = []
    # NaN old coordinates (new objects) must compare False silently.
    with np.errstate(invalid="ignore"):
        for lo in range(0, total, chunk_pairs):
            hi = min(lo + chunk_pairs, total)
            q = qidx[lo:hi]
            o = oidx[lo:hi]
            lx = min_xs[q]
            hx = max_xs[q]
            ly = min_ys[q]
            hy = max_ys[q]
            px = xs[o]
            py = ys[o]
            in_new = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            px = old_xs[o]
            py = old_ys[o]
            in_old = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            changed = in_new != in_old
            pos = np.nonzero(changed)[0]
            if not len(pos):
                continue
            key = q[pos].astype(np.int64) << 32
            key |= in_new[pos].astype(np.int64) << 31
            key |= o[pos]
            keys.append(key)

    if not keys:
        return None
    keys = np.sort(np.concatenate(keys))
    # One vectorized gather over the id columns (array('q') buffers are
    # int64 in memory) turns store rows into public identifiers — the
    # emitter never touches a row index per pair.
    qid_col = np.frombuffer(qstore.qids, dtype=np.int64)
    oid_col = np.frombuffer(ostore.oids, dtype=np.int64)
    return (
        qid_col[keys >> 32],
        oid_col[keys & 0x7FFFFFFF],
        ((keys >> 30) & 2) - 1,
    )
