"""Batch kernels for the columnar evaluation core: the report join.

Report evaluation visits every (range query, reported object) pair the
grid puts together.  Instead of looping those pairs in Python, the
columnar pipeline runs two array passes over the whole batch:

1. **Per-report join** (:func:`join_reports`) — each reported object
   takes one or two segments of the grid-wide range CSR (per cell: the
   range queries partially overlapping it, then those covering it), and
   one ragged expansion turns the segments into two flat pair-index
   arrays, report-major, leaving out the queries the caller re-answers
   itself.
2. **Membership classification** (:func:`classify_pairs`) — one
   vectorized containment test per pair against the report's new and
   old coordinates.  ``enter`` is inside-new ∧ ¬inside-old (a positive
   update), ``leave`` the reverse (negative), ``still-inside`` /
   ``still-outside`` produce nothing.  Prior membership is *recomputed
   geometrically from the old coordinates* rather than looked up: a
   range answer always equals the set of objects inside the region (the
   engine maintains exactly that invariant through every phase), and
   NaN old coordinates — new objects — test False against every bound.

Every segment carries a *role*, the one sign its pairs may emit (0:
either).  A report that changed home cell takes its old cell's full
list as minus-only and its new cell's full list as plus-only: an object
inside a closed region is homed in a cell of the region's footprint, so
a positive can only come from the new cell's list and a negative only
from the old cell's.  A report that stayed put takes its cell's partial
list only — a covering query holds the object before and after — free
to emit either sign.  A changed pair whose role forbids its sign is
dropped, which makes a query listed in both cells emit at most once:
the join needs no dedup, and every kept pair maps one-to-one onto an
emitted update.

Kernel contract::

    classify_pairs(pairs, reports, qstore) -> (qids, oids, signs, keys) | None

four int64 arrays over the *changed* pairs whose role allows their
sign (``None`` when there is none): the public query/object
identifiers, +1/-1, and the pairs' answer keys (``query row << 32 |
object row``, what the query store holds).  The pairs come
**grouped by query**, each query's negatives before its positives, each
half in report order: one sort of packed ``(query row, sign, report)``
keys, which is the order the emitter streams and the grouping the
answer toggle applies.

Pair-index arrays are int32 (two 4-byte columns per pair, plus an int8
role) and the float work runs in :data:`PAIR_CHUNK`-sized chunks, so its
temporaries stay cache-sized regardless of batch size.
"""

from __future__ import annotations

import numpy as np

from repro.columnar.store import answer_keys
from repro.grid.cellmath import ragged_arange

#: Pairs per float-kernel chunk (eight float64 temporaries per pair in
#: flight → ~4 MB at this setting, small enough to stay in cache).
PAIR_CHUNK = 1 << 16


def join_reports(prev_cells, cells, csr_rows, offsets, skip):
    """The per-report join: ``(query rows, reports, roles)`` — int32,
    int32 and int8 arrays, one entry per (range query, report) pair —
    from the reports' old and new home cells (``-1`` old for a new
    object) and the range CSR ``rows[offsets[2c] : offsets[2c + 1]]``
    (cell ``c``'s partial rows) and ``rows[offsets[2c + 1] :
    offsets[2c + 2]]`` (its covering rows).  Pairs whose query row
    ``skip`` (one bool per query-store row) names are left out.

    Report ``i`` owns segments ``2i`` (its old cell's full list,
    minus-only; empty unless it changed cell) and ``2i + 1`` (its new
    cell's partial list, either sign, if it stayed put; else the full
    list, plus-only).  Skipped rows leave the CSR before the expansion,
    so no pair of theirs is ever made.
    """
    if skip.any():
        keep = ~skip[csr_rows]
        offsets = np.concatenate(([0], np.cumsum(keep)))[offsets]
        csr_rows = csr_rows[keep]
    count = len(cells)
    stayed = prev_cells == cells
    moved = ~stayed & (prev_cells >= 0)
    prev2 = np.where(moved, prev_cells, 0) * 2
    new2 = cells * 2
    seg_start = np.empty(2 * count, dtype=np.int64)
    seg_len = np.empty(2 * count, dtype=np.int64)
    seg_role = np.empty(2 * count, dtype=np.int8)
    seg_start[0::2] = offsets[prev2]
    seg_start[1::2] = offsets[new2]
    seg_len[0::2] = np.where(moved, offsets[prev2 + 2] - offsets[prev2], 0)
    seg_len[1::2] = offsets[np.where(stayed, new2 + 1, new2 + 2)] - offsets[new2]
    seg_role[0::2] = -1
    seg_role[1::2] = ~stayed
    # int32 pair indices halve the bandwidth of the expansion
    # temporaries; int64 only when a batch actually overflows them.
    idx = np.int32 if int(seg_len.sum()) < 2**31 else np.int64
    seg, at = ragged_arange(seg_start, seg_len, np, idx)
    seg >>= 1
    return csr_rows[at], seg, np.repeat(seg_role, seg_len)


def classify_pairs(pairs, reports, qstore, chunk_pairs: int = PAIR_CHUNK):
    """Classify every pair of :func:`join_reports` (the contract above);
    ``reports`` are the batch's :class:`~repro.columnar.ingest.Reports`
    columns."""
    qidx, ridx, roles = pairs
    total = len(qidx)
    min_xs, min_ys, max_xs, max_ys = qstore.bounds_views()
    xs, ys, prev_xs, prev_ys = reports.xs, reports.ys, reports.prev_xs, reports.prev_ys

    # Changed pairs as packed (query row, enters, report) keys; rows and
    # reports are below 2**31, so a key fits an int64.
    keys: list = []
    # NaN old coordinates (new objects) must compare False silently.
    with np.errstate(invalid="ignore"):
        for lo in range(0, total, chunk_pairs):
            hi = min(lo + chunk_pairs, total)
            q = qidx[lo:hi]
            r = ridx[lo:hi]
            lx = min_xs[q]
            hx = max_xs[q]
            ly = min_ys[q]
            hy = max_ys[q]
            px = xs[r]
            py = ys[r]
            in_new = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            px = prev_xs[r]
            py = prev_ys[r]
            in_old = (lx <= px) & (px <= hx) & (ly <= py) & (py <= hy)
            pos = np.flatnonzero(in_new != in_old)
            role = roles[lo:hi][pos]
            pos = pos[(role == 0) | ((role > 0) == in_new[pos])]
            if not len(pos):
                continue
            key = q[pos].astype(np.int64) << 32
            key |= in_new[pos].astype(np.int64) << 31
            key |= r[pos]
            keys.append(key)

    if not keys:
        return None
    keys = np.sort(np.concatenate(keys))
    # One vectorized gather over the qid column (an array('q') buffer is
    # int64 in memory) and the batch's oids turns keys into public
    # identifiers — the emitter never touches a row index per pair.
    qrows = keys >> 32
    report = keys & 0x7FFFFFFF
    return (
        np.frombuffer(qstore.qids, dtype=np.int64)[qrows],
        reports.oids[report],
        ((keys >> 30) & 2) - 1,
        answer_keys(qrows, reports.rows[report]),
    )
