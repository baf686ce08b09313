"""The columnar cohort evaluator: plan → kernel → ordered emission.

Engine phase 5b for ``pipeline="columnar"``.  Batch ingest hands over
the report buffer as :class:`~repro.columnar.ingest.CohortColumns` —
one cohort per home-cell transition ``(old home, new home)``, members
ascending by oid — and the evaluator joins them against the range
queries listed in their cells, classifies every pair's membership
transition in one kernel pass, and emits the changed pairs:

* pairs are laid out cohort-major, then old-cell entries before
  new-cell entries, each partial-before-covering and sorted by qid, then
  members sorted by oid — so the kernel's changed-pair positions are
  already in emission order;
* a query listed in both cells of a cohort that changed home cell joins
  once, from the old cell;
* stay-put cohorts join against partial entries only, and cohorts that
  changed home cell drop queries covering both cells — in either case a
  covering query provably yields ``in_old == in_new`` for every member,
  so the skipped pairs could never emit.

Candidate entries are cached **across evaluations**, keyed on
:attr:`ColumnarQueryStore.version`: they depend only on registered
range queries, so they survive arbitrarily many object-report batches
untouched.  The cache is one grid-wide CSR cut from the query store's
bound columns (:meth:`ColumnarEvaluator._range_csr`).  k-NN queries are
deliberately left out of it (their grid footprints are re-placed every
repair, which would otherwise thrash the cache); cohort k-NN
dirty-marking instead intersects live cell buckets with the engine's
registered-knn set, memoised per evaluation.  One more rule marks a
k-NN query dirty: it holds a reported object (one ``np.isin`` of the
k-NN answers against the batch's oids) — a member can leave a circle's
footprint from a cell edge, a few ulps outside the circle's rounded
bounding rectangle, and then neither of its cells lists the query.

Nothing here mirrors object or answer state: the object store's row is
the only record of an object, and ``query.answer`` the only record of
an answer, which the batch passes update in place.

The evaluator also runs the **query side** of a cycle — engine phases
3, 4, 6 and 7 — as array passes over the object store's home-cell CSR
(:class:`~repro.columnar.store.HomeCells`: a sort-by-cell permutation of
the ``cells`` column, a run of cells being one slice of it, cut at most
once per store state) and its one ragged gather ``(cell rects) ->
(rect position, store row)``:

* :meth:`~ColumnarEvaluator.fill_ranges` — every newly registered range
  query: the objects homed under its region and inside it;
* :meth:`~ColumnarEvaluator.move_ranges` — every moved range query:
  ``A_old - A_new`` and ``A_new - A_old`` from the objects homed under
  the two rectangles, ordered as ``Rect.difference``'s pieces;
* :meth:`~ColumnarEvaluator.knn_ranked` — every dirty k-NN query: its
  full answer, or a seed search of doubling cell squares, bounds the
  search square;
* :meth:`~ColumnarEvaluator.predictive_refresh` — every churn-driven
  and flip-due predictive query: one candidate pass, one slab test over
  per-pair bounds.

Each reproduces its scalar routine's stream exactly; the grid index
holds no object on this path, and nothing here asks it for one.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from repro.columnar.ingest import swept_cell_ranges
from repro.columnar.kernels import PairPlan, classify_transitions
from repro.columnar.store import KIND_RANGE
from repro.grid.cellmath import (
    cell_rect_set,
    point_cells_batch,
    ragged_arange,
    rect_cell_ranges_batch,
    rect_cell_strips_batch,
)

#: ``engine_columnar_batch_size`` histogram bounds: powers of four from
#: a single pair up to 16M pairs per batch.
BATCH_SIZE_BUCKETS: tuple[float, ...] = tuple(4.0**e for e in range(13))


def _in_sorted(sorted_keys, wanted):
    """Membership of each ``wanted`` key in an ascending key array."""
    if not len(sorted_keys):
        return np.zeros(len(wanted), dtype=bool)
    at = np.searchsorted(sorted_keys, wanted)
    at[at == len(sorted_keys)] = 0
    return sorted_keys[at] == wanted


class _DualCounter:
    """Feeds one span duration into two counters (phase + total)."""

    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def inc(self, value: float = 1.0) -> None:
        self.first.inc(value)
        self.second.inc(value)


class ColumnarEvaluator:
    """Batch evaluator bound to one engine's live structures.

    All references (``queries``, ``knn_qids``) alias the engine's own
    dict/set; the evaluator never rebinds them.
    Emission goes through the update stream's ``push`` /
    ``extend_columns`` contract, which keeps this package import-free
    of :mod:`repro.core` (the engine imports us).
    """

    def __init__(
        self,
        grid,
        index,
        ostore,
        qstore,
        queries,
        knn_qids,
        registry,
        tracer,
    ):
        self.grid = grid
        self.index = index
        self.ostore = ostore
        self.qstore = qstore
        self.queries = queries
        self.knn_qids = knn_qids
        self.tracer = tracer
        self._knn_memo: dict[int, tuple] = {}
        self._csr: tuple | None = None
        self._h_batch_size = registry.histogram(
            "engine_columnar_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        counter = registry.counter
        self._m_batches = counter("engine_columnar_batches_total")
        self._m_pairs = counter("engine_columnar_pairs_total")
        self._m_changes = counter("engine_columnar_changes_total")
        self._m_csr_rebuilds = counter("engine_range_csr_rebuilds_total")
        # Per-phase wall time of the batch pass (plan/join/emit) — the
        # benchmark reads the deltas to attribute a round's cost.
        self._phase_counters = {
            phase: counter(
                "engine_columnar_phase_seconds_total",
                labels={"phase": phase},
            )
            for phase in ("plan", "join", "emit")
        }
        # The emit span feeds both the per-phase breakdown and the
        # pipeline-neutral total the benchmark/CI gate reads.
        self._emit_span_counter = _DualCounter(
            self._phase_counters["emit"],
            counter("engine_emit_seconds_total"),
        )

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def run_columns(self, columns, updates, knn_dirty) -> None:
        """Evaluate one batch handed over as
        :class:`~repro.columnar.ingest.CohortColumns`: the plan is built
        from the columns with no per-cohort Python, the changed pairs
        are applied to the answers grouped by query, and the stream is
        spliced in as columns, in the kernel's (emission) order."""
        with self.tracer.span("columnar_plan", self._phase_counters["plan"]):
            plan = self._plan_columns(columns, knn_dirty)
        qids, oids, signs, arrays = self._join(plan)
        with self.tracer.span("columnar_emit", self._emit_span_counter):
            if arrays is not None:
                self._toggle_memberships(arrays[0], arrays[1])
            updates.extend_columns(qids, oids, signs)

    def _join(self, plan):
        self._m_batches.inc()
        self._m_pairs.inc(plan.total_pairs)
        self._h_batch_size.observe(plan.total_pairs)
        with self.tracer.span("columnar_join", self._phase_counters["join"]):
            joined = classify_transitions(plan, self.ostore, self.qstore)
        self._m_changes.inc(len(joined[0]))
        return joined

    def _toggle_memberships(self, qid_arr, oid_arr) -> None:
        """Apply a batch of changed ``(query, object)`` atoms (distinct,
        non-empty) to the live ``answer`` sets.

        Signs are not needed: a positive pair's object is provably
        absent from the answer and a negative pair's present (the very
        invariant that lets the kernels recompute prior membership
        geometrically), so toggling is exactly add-the-positives /
        remove-the-negatives.  One argsort yields contiguous per-query
        groups, each applied as a single C-speed symmetric difference.
        """
        queries = self.queries
        order = np.argsort(qid_arr)
        k_sorted = qid_arr[order]
        cuts = (np.flatnonzero(k_sorted[1:] != k_sorted[:-1]) + 1).tolist()
        payload = oid_arr[order].tolist()
        starts = [0, *cuts]
        for qid, s, e in zip(
            k_sorted[starts].tolist(), starts, [*cuts, len(payload)]
        ):
            queries[qid].answer.symmetric_difference_update(payload[s:e])

    # ------------------------------------------------------------------
    # Plan construction
    # ------------------------------------------------------------------

    def _plan_columns(self, columns, knn_dirty) -> PairPlan:
        """The :class:`PairPlan` of a batch of cohort columns, built
        with array passes only (the per-touched-*cell* work is the k-NN
        marking; a k-NN query holding a reported member is marked too):

        * candidate entries come from the grid-wide :meth:`_range_csr`
          (per cell: partial rows, then covering rows);
        * each cohort gathers two ragged segments from it — its old
          cell's full list if it changed home cell, then its new cell's
          partial rows if it stayed put, the full list otherwise;
        * the dedup is membership tests on the CSR's sorted ``(cell,
          covering, qid rank)`` keys: drop an old-cell entry that covers
          its cell and is a covering entry of the new cell (old and new
          location are both inside it); drop a new-cell entry the old
          cell lists (first occurrence wins).
        """
        self._knn_memo.clear()
        csr_rows, keys, offsets, stride = self._range_csr()
        old = columns.old
        new = columns.new
        n_cohorts = len(new)
        changed = (old >= 0) & (old != new)
        mark_knn = self._mark_knn
        for cell in np.unique(np.concatenate((old[changed], new))).tolist():
            mark_knn(cell, knn_dirty)
        if self.knn_qids:
            knn = list(self.knn_qids)
            answers = [self.queries[qid].answer for qid in knn]
            sizes = np.fromiter(map(len, answers), np.int64, count=len(knn))
            members = np.fromiter(
                chain.from_iterable(answers), np.int64, count=int(sizes.sum())
            )
            held = np.repeat(np.arange(len(knn)), sizes)[
                np.isin(members, columns.oids)
            ]
            knn_dirty.update(knn[i] for i in np.unique(held).tolist())

        # Two segments per cohort, interleaved [old, new, old, new, ...];
        # cell c's partial rows start at offsets[2c], its covering rows
        # at offsets[2c + 1].
        old2 = np.where(changed, old, new) * 2
        new2 = new * 2
        seg_start = np.empty(2 * n_cohorts, dtype=np.int64)
        seg_len = np.empty(2 * n_cohorts, dtype=np.int64)
        seg_start[0::2] = offsets[old2]
        seg_start[1::2] = offsets[new2]
        seg_len[0::2] = np.where(changed, offsets[old2 + 2] - offsets[old2], 0)
        seg_len[1::2] = (
            offsets[np.where(old == new, new2 + 1, new2 + 2)] - offsets[new2]
        )
        segment, at = ragged_arange(seg_start, seg_len, np)
        ent = csr_rows[at]
        ent_counts = seg_len[0::2] + seg_len[1::2]

        if len(at) and changed.any():
            cohort = segment >> 1
            probe = np.flatnonzero(changed[cohort])
            cohort_p = cohort[probe]
            from_old = (segment[probe] & 1) == 0
            at_p = at[probe]
            rank = keys[at_p] % stride
            # An entry is looked up under the cohort's *other* cell.
            other2 = np.where(from_old, new2[cohort_p], old2[cohort_p])
            as_covering = _in_sorted(keys, (other2 + 1) * stride + rank)
            drop = np.where(
                from_old,
                (at_p >= offsets[old2[cohort_p] + 1]) & as_covering,
                as_covering | _in_sorted(keys, other2 * stride + rank),
            )
            if drop.any():
                keep = np.ones(len(at), dtype=bool)
                keep[probe[drop]] = False
                ent = ent[keep]
                ent_counts = np.bincount(cohort[keep], minlength=n_cohorts)

        # Member rows, cohort-major: each cohort's slice of the
        # (transition, oid)-sorted order.
        _, members = ragged_arange(columns.start, columns.count, np)
        obj_rows = columns.rows[columns.order[members]].astype(np.int32)
        return PairPlan(ent, ent_counts, obj_rows, columns.count)

    def _footprint_ranges(self, min_xs, min_ys, max_xs, max_ys):
        """The grid footprints of a batch of query regions as a
        ``(4, m)`` array of inclusive cell ranges ``col_lo, col_hi,
        row_lo, row_hi`` — what ``GridIndex.place_query_region`` places:
        the cells under the region, or the cell nearest its centre when
        it lies wholly outside the world."""
        grid = self.grid
        *ranges, hit = rect_cell_ranges_batch(
            min_xs, min_ys, max_xs, max_ys, grid, np
        )
        ranges = np.stack(ranges)
        if not hit.all():
            centre = point_cells_batch(
                (min_xs + max_xs) / 2.0, (min_ys + max_ys) / 2.0, grid, np
            )
            col, row = centre % grid.n, centre // grid.n
            ranges = np.where(hit, ranges, np.stack((col, col, row, row)))
        return ranges

    def _range_csr(self):
        """The grid-wide CSR of range candidates ``(rows, keys, offsets,
        stride)``, cut from the query store's bound columns whenever its
        version changed.

        ``rows[offsets[2c] : offsets[2c + 1]]`` are the store rows of
        the range queries partially overlapping cell ``c`` and
        ``rows[offsets[2c + 1] : offsets[2c + 2]]`` of those covering
        it (``Grid.cell_rect``'s arithmetic), each ascending by qid —
        the candidate order.  ``keys`` runs parallel to ``rows``:
        ``(2c + covering) * stride + qid rank``, ascending, so "does
        cell ``c`` list this query (as covering)?" is one binary search.
        """
        qstore = self.qstore
        cached = self._csr
        if cached is not None and cached[0] == qstore.version:
            return cached[1]
        self._m_csr_rebuilds.inc()
        grid = self.grid
        n = grid.n
        kinds = np.frombuffer(qstore.kinds, dtype=np.int8)
        rows = np.flatnonzero(kinds == KIND_RANGE)
        rows = rows[np.argsort(np.frombuffer(qstore.qids, dtype=np.int64)[rows])]
        min_xs, min_ys, max_xs, max_ys = (
            view[rows] for view in qstore.bounds_views()
        )
        owner, first, width = rect_cell_strips_batch(
            *self._footprint_ranges(min_xs, min_ys, max_xs, max_ys), n, np
        )
        strip, cell = ragged_arange(first, width, np)
        rank = owner[strip]
        world = grid.world
        cell_w = grid.cell_width
        cell_h = grid.cell_height
        col = cell % n
        row = cell // n
        covering = (
            (min_xs[rank] <= world.min_x + col * cell_w)
            & (min_ys[rank] <= world.min_y + row * cell_h)
            & (max_xs[rank] >= world.min_x + (col + 1) * cell_w)
            & (max_ys[rank] >= world.min_y + (row + 1) * cell_h)
        )
        # Pairs are generated rank-major, so one stable sort leaves each
        # (cell, covering) group ascending by qid; 16-bit keys take the
        # radix path.
        group = cell * 2 + covering
        order = np.argsort(
            group.astype(np.uint16) if 2 * n * n <= 1 << 16 else group,
            kind="stable",
        )
        rank = rank[order]
        stride = len(rows) + 1
        offsets = np.zeros(2 * n * n + 1, dtype=np.int64)
        np.cumsum(np.bincount(group, minlength=2 * n * n), out=offsets[1:])
        csr = (
            rows[rank].astype(np.int32),
            group[order] * stride + rank,
            offsets,
            stride,
        )
        self._csr = (qstore.version, csr)
        return csr

    def _mark_knn(self, cell: int, knn_dirty) -> None:
        """Serial-equivalent per-cell k-NN dirty marking, memoised."""
        memo = self._knn_memo
        hit = memo.get(cell)
        if hit is None:
            resident = self.index.queries_in_cell(cell)
            hit = (
                tuple(self.knn_qids.intersection(resident))
                if resident
                else ()
            )
            memo[cell] = hit
        if hit:
            knn_dirty.update(hit)

    def _inside_rows(self, rows, bounds, now: float, horizon, trust_horizon: float):
        """The slab test over object-store ``rows``.  ``bounds`` =
        ``(min_x, min_y, max_x, max_y)`` and ``horizon`` are scalars
        (one region) or arrays aligned with ``rows`` (one region per
        pair) — the arithmetic per lane is the same either way."""
        ostore = self.ostore
        min_x, min_y, max_x, max_y = bounds
        xs, ys = ostore.xy_views()
        t = np.frombuffer(ostore.ts, dtype=np.float64)[rows]
        x = xs[rows]
        y = ys[rows]
        vx = np.frombuffer(ostore.vxs, dtype=np.float64)[rows]
        vy = np.frombuffer(ostore.vys, dtype=np.float64)[rows]
        start = np.maximum(now, t)
        end = np.minimum(now + horizon, t + trust_horizon)
        # An empty window is an unconditional miss; the clip below may
        # see a reversed segment on those lanes, but ``ok`` only ever
        # clears, never sets.
        ok = end >= start
        ds = start - t
        de = end - t
        t0 = np.zeros(len(rows))
        t1 = np.ones(len(rows))
        # A finite but absurd velocity overflows to inf (and inf - inf
        # to NaN) silently, as the scalar path's Python floats do.
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            sx = x + vx * ds
            sy = y + vy * ds
            dx = (x + vx * de) - sx
            dy = (y + vy * de) - sy
            for p, q in (
                (-dx, sx - min_x),
                (dx, max_x - sx),
                (-dy, sy - min_y),
                (dy, max_y - sy),
            ):
                pz = p == 0.0
                ok &= ~(pz & (q < 0.0))
                r = q / p  # junk on pz lanes; masked out below
                neg = p < 0.0
                ok &= ~(neg & (r > t1))
                pos = p > 0.0
                ok &= ~(pos & (r < t0))
                np.copyto(t0, r, where=neg & (r > t0))
                np.copyto(t1, r, where=pos & (r < t1))
        return ok

    # ------------------------------------------------------------------
    # The query-side batch passes
    # ------------------------------------------------------------------

    def _gather(self, ranges):
        """``(position, store row)`` of every object homed under each
        of a batch of cell-range rectangles — the one ragged gather the
        three query-side passes share."""
        n = self.grid.n
        return self.ostore.home_cells(n * n).gather(*ranges, n, np)

    def _inside(self, bounds, pos, rows):
        """Closed containment of object ``rows`` in the rectangles
        ``bounds[:, pos]`` (``bounds`` = min_x, min_y, max_x, max_y)."""
        xs, ys = self.ostore.xy_views()
        x = xs[rows]
        y = ys[rows]
        min_x, min_y, max_x, max_y = bounds[:, pos]
        return (min_x <= x) & (x <= max_x) & (min_y <= y) & (y <= max_y)

    def fill_ranges(self, queries, updates) -> None:
        """Engine phase 3 for every newly registered range query at
        once — the positive half of :meth:`move_ranges`: the objects
        inside each region, emitted per query in the given order, oids
        ascending (the scalar ``_fill_range_answer``'s stream)."""
        bounds = np.array(
            [(q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y) for q in queries],
            dtype=np.float64,
        ).T  # fmt: skip
        pos, rows = self._gather(self._footprint_ranges(*bounds))
        keep = np.flatnonzero(self._inside(bounds, pos, rows))
        if not len(keep):
            return
        pos = pos[keep]
        oids = np.frombuffer(self.ostore.oids, dtype=np.int64)[rows[keep]]
        order = np.lexsort((oids, pos))
        qids = np.fromiter((q.qid for q in queries), np.int64, count=len(queries))
        qid_arr = qids[pos[order]]
        oid_arr = oids[order]
        self._toggle_memberships(qid_arr, oid_arr)
        updates.extend_columns(qid_arr.tolist(), oid_arr.tolist(), [1] * len(keep))

    def move_ranges(self, moves, updates) -> None:
        """Engine phase 4 for every moved range query at once.
        ``moves`` holds ``(query state, new region)`` in arrival order;
        the stream is the scalar ``_move_range``'s: per query, negatives
        (``A_old - A_new``) ascending by oid, then positives by
        ``Rect.difference`` piece (bottom, top, left, right; a point on
        a shared edge belongs to the first piece holding it; a disjoint
        move is one piece) and oid.

        Prior membership is recomputed geometrically — a range answer
        is exactly the set of objects inside the region, and every
        object inside a rectangle is homed in a cell under it — so the
        pass reads only the home-cell CSR and the coordinate columns
        (pre-ingest: phase 4 precedes the reports).
        """
        qstore = self.qstore
        m = len(moves)
        row_of = qstore._row_of
        qrows = np.fromiter(
            (row_of[query.qid] for query, _ in moves), np.int64, count=m
        )
        old = np.stack([view[qrows] for view in qstore.bounds_views()])
        new = np.array(
            [(r.min_x, r.min_y, r.max_x, r.max_y) for _, r in moves],
            dtype=np.float64,
        ).T
        old_cells = self._footprint_ranges(*old)
        new_cells = self._footprint_ranges(*new)
        # One gather over both rectangles of every move: positions
        # below m are old regions (negatives), the rest new (positives).
        pos, rows = self._gather(np.concatenate((old_cells, new_cells), axis=1))
        entering = pos >= m
        pos[entering] -= m
        in_new = self._inside(new, pos, rows)
        keep = np.flatnonzero(
            (self._inside(old, pos, rows) != in_new) & (in_new == entering)
        )
        if len(keep):
            pos = pos[keep]
            rows = rows[keep]
            xs, ys = self.ostore.xy_views()
            x = xs[rows]
            y = ys[rows]
            # Rect.difference's pieces, from the intersection's bounds
            # (min_x, min_y and max_y; a disjoint move has one piece).
            disjoint = (
                (new[0] > old[2]) | (old[0] > new[2])
                | (new[1] > old[3]) | (old[1] > new[3])
            )[pos]  # fmt: skip
            inter_min_x, inter_min_y = np.maximum(new[:2], old[:2])[:, pos]
            inter_max_y = np.minimum(new[3], old[3])[pos]
            bottom = (new[1][pos] < inter_min_y) & (y <= inter_min_y)
            top = (inter_max_y < new[3][pos]) & (y >= inter_max_y)
            piece = np.where(
                disjoint | bottom, 0, np.where(top, 1, np.where(x < inter_min_x, 2, 3))
            )
            piece[~entering[keep]] = -1
            oids = np.frombuffer(self.ostore.oids, dtype=np.int64)[rows]
            order = np.lexsort((oids, piece, pos))
            qid_arr = np.frombuffer(qstore.qids, dtype=np.int64)[qrows[pos[order]]]
            oid_arr = oids[order]
            self._toggle_memberships(qid_arr, oid_arr)
            updates.extend_columns(
                qid_arr.tolist(),
                oid_arr.tolist(),
                np.where(piece[order] < 0, -1, 1).tolist(),
            )
        qstore.move_bounds(qrows, *new)
        # Re-place only the footprints that changed cells.
        moved = np.flatnonzero((old_cells != new_cells).any(axis=0))
        c_lo, c_hi, r_lo, r_hi = new_cells[:, moved]
        n = self.grid.n
        place = self.index.place_query
        for i, first, last, width in zip(
            moved.tolist(),
            (r_lo * n + c_lo).tolist(),
            (r_hi * n + c_hi).tolist(),
            (c_hi - c_lo + 1).tolist(),
        ):
            place(moves[i][0].qid, cell_rect_set(first, last, width, n))
        for query, region in moves:
            query.region = region

    def knn_ranked(self, queries) -> list[list[tuple[float, int]]]:
        """The ranked ``(distance, oid)`` answer of every given k-NN
        query, searched together; equal to
        :func:`repro.core.knn.knn_search` list for list.

        Each search is bounded by a squared distance k objects lie
        within: a query holding a full answer takes its members' own
        squared distances at their current coordinates, any other (a
        first or underfull solve) a seed from :meth:`_seed_bounds`.  The
        true k nearest are then homed in the cells under that square:
        one gather, one squared-distance filter with a relative margin
        for the few-ulp disagreement between the squared form and the
        exact distance, then exact ``math.hypot`` (what
        ``Point.distance_to`` uses) and a ``(distance, oid)`` sort on
        the survivors only — so the radius stays bit-identical to the
        scalar search.
        """
        m = len(queries)
        ostore = self.ostore
        row_of = ostore._row_of
        xs, ys = ostore.xy_views()
        cx, cy, ks = np.array(
            [(q.center.x, q.center.y, q.k) for q in queries], dtype=np.float64
        ).T
        ks = ks.astype(np.int64)
        full = np.fromiter((len(q.answer) == q.k for q in queries), bool, count=m)
        bound = np.empty(m)
        if full.any():
            sizes = ks[full]
            members = np.fromiter(
                (row_of[oid] for q, f in zip(queries, full.tolist()) if f for oid in q.answer),
                np.int64,
                count=int(sizes.sum()),
            )  # fmt: skip
            owner = np.repeat(np.flatnonzero(full), sizes)
            dx = xs[members] - cx[owner]
            dy = ys[members] - cy[owner]
            bound[full] = np.maximum.reduceat(dx * dx + dy * dy, np.cumsum(sizes) - sizes)
        short = np.flatnonzero(~full)
        if len(short):
            bound[short] = self._seed_bounds(cx[short], cy[short], ks[short])
        bound *= 1.0 + 1e-9
        half = np.sqrt(bound)
        pos, rows = self._gather(
            rect_cell_ranges_batch(
                cx - half, cy - half, cx + half, cy + half, self.grid, np
            )[:4]
        )
        dx = xs[rows] - cx[pos]
        dy = ys[rows] - cy[pos]
        keep = np.flatnonzero(dx * dx + dy * dy <= bound[pos])
        distances = list(map(math.hypot, dx[keep].tolist(), dy[keep].tolist()))
        oids = np.frombuffer(ostore.oids, dtype=np.int64)[rows[keep]].tolist()
        cuts = np.searchsorted(pos[keep], np.arange(m + 1)).tolist()
        return [
            sorted(zip(distances[lo:hi], oids[lo:hi]))[:k]
            for k, lo, hi in zip(ks.tolist(), cuts, cuts[1:])
        ]

    def _seed_bounds(self, cx, cy, ks):
        """Squared-distance bounds for k-NN queries with no full answer
        to take one from.  Around each centre's home cell, gather the
        objects homed in squares of cells of doubling radius until the
        square holds k of them — the k-th smallest squared distance
        among those bounds the k nearest — or covers the whole grid with
        fewer (``inf``: every object is in the answer)."""
        n = self.grid.n
        xs, ys = self.ostore.xy_views()
        home = point_cells_batch(cx, cy, self.grid, np)
        col, row = home % n, home // n
        bound = np.full(len(ks), np.inf)
        todo = np.arange(len(ks))
        radius = 0
        while len(todo):
            c, r, k = col[todo], row[todo], ks[todo]
            pos, rows = self._gather(
                (
                    np.maximum(c - radius, 0),
                    np.minimum(c + radius, n - 1),
                    np.maximum(r - radius, 0),
                    np.minimum(r + radius, n - 1),
                )
            )
            counts = np.bincount(pos, minlength=len(todo))
            enough = counts >= k
            if enough.any():
                dx = xs[rows] - cx[todo][pos]
                dy = ys[rows] - cy[todo][pos]
                d2 = dx * dx + dy * dy
                d2 = d2[np.lexsort((d2, pos))]
                kth = np.cumsum(counts) - counts + k - 1
                bound[todo[enough]] = d2[kth[enough]]
            if radius >= n - 1:
                break
            todo = todo[~enough]
            radius = 2 * radius + 1
        return bound

    def _predictive_pairs(self, queries, now: float, trust_horizon: float):
        """Every given predictive query's candidates and their windowed
        membership at ``now``, as ``(pos, oids, standing, inside)``: one
        entry per distinct (query position, object), ascending by
        position then oid.

        Candidates are the scalar path's — the objects whose index
        footprint meets the query's, plus the standing answer
        (``standing``) — recomputed from the columns: objects homed in
        the query's footprint and moving objects whose swept footprint
        (:func:`~repro.columnar.ingest.swept_cell_ranges`) meets it.
        """
        m = len(queries)
        ostore = self.ostore
        *bounds, horizons = np.array(
            [
                (q.region.min_x, q.region.min_y, q.region.max_x, q.region.max_y, q.horizon)
                for q in queries
            ],
            dtype=np.float64,
        ).T  # fmt: skip
        bounds = np.stack(bounds)
        footprints = self._footprint_ranges(*bounds)
        homed_pos, homed_rows = self._gather(footprints)
        c_lo, c_hi, r_lo, r_hi = footprints[:, :, None]
        motion = [
            np.frombuffer(column, dtype=np.float64)
            for column in (ostore.xs, ostore.ys, ostore.vxs, ostore.vys, ostore.ts)
        ]
        moving = np.flatnonzero((motion[2] != 0.0) | (motion[3] != 0.0))
        s_clo, s_chi, s_rlo, s_rhi = swept_cell_ranges(
            *(column[moving] for column in motion),
            np.frombuffer(ostore.cells, dtype=np.int64)[moving],
            trust_horizon,
            self.grid,
            np,
        )
        swept_pos, at = np.nonzero(
            (s_clo <= c_hi) & (c_lo <= s_chi) & (s_rlo <= r_hi) & (r_lo <= s_rhi)
        )
        sizes = np.fromiter((len(q.answer) for q in queries), np.int64, count=m)
        standing_rows = np.fromiter(
            map(ostore._row_of.__getitem__, chain.from_iterable(q.answer for q in queries)),
            np.int64,
            count=int(sizes.sum()),
        )  # fmt: skip
        pos = np.concatenate((np.repeat(np.arange(m), sizes), homed_pos, swept_pos))
        rows = np.concatenate((standing_rows, homed_rows, moving[at]))
        oids = np.frombuffer(ostore.oids, dtype=np.int64)[rows]
        fresh = np.arange(len(rows)) >= len(standing_rows)
        # Duplicates sort adjacent, the standing-answer copy first.
        order = np.lexsort((fresh, oids, pos))
        pos = pos[order]
        oids = oids[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (pos[1:] != pos[:-1]) | (oids[1:] != oids[:-1])
        order = order[first]
        pos = pos[first]
        inside = self._inside_rows(
            rows[order], bounds[:, pos], now, horizons[pos], trust_horizon
        )
        return pos, oids[first], ~fresh[order], inside

    def predictive_refresh(self, churned, due, now: float, trust_horizon: float):
        """Both kinds of predictive refresh over one candidate pass.

        Returns ``(refreshed, verdicts)``.  The ``churned`` queries (no
        flip schedule) are refreshed here: per query, in order, ``(oids,
        signs)`` of the changed memberships ascending by oid — the scalar
        loop's order — already applied to the live ``answer`` sets.  The
        flip-due ``due``
        queries are only judged: per query, in order, ``(oids, flags)``
        of its candidates ascending by oid and their windowed membership
        at ``now`` — what the engine's flip-scheduling refresh walks."""
        m = len(churned)
        pos, oids, standing, inside = self._predictive_pairs(
            churned + due, now, trust_horizon
        )
        split = int(np.searchsorted(pos, m))
        cuts = np.searchsorted(pos[split:], np.arange(m, m + len(due) + 1)).tolist()
        due_oids = oids[split:].tolist()
        due_flags = inside[split:].tolist()
        verdicts = [(due_oids[lo:hi], due_flags[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        pos, oids, inside = pos[:split], oids[:split], inside[:split]
        changed = np.flatnonzero(inside != standing[:split])
        if len(changed):
            qid_arr = np.fromiter((q.qid for q in churned), np.int64, count=m)
            self._toggle_memberships(qid_arr[pos[changed]], oids[changed])
        cuts = np.searchsorted(pos[changed], np.arange(m + 1)).tolist()
        oid_list = oids[changed].tolist()
        sign_list = np.where(inside[changed], 1, -1).tolist()
        refreshed = [
            (oid_list[lo:hi], sign_list[lo:hi]) for lo, hi in zip(cuts, cuts[1:])
        ]
        return refreshed, verdicts

    def check_invariants(self) -> None:
        """The two CSRs against what they are cut from (tests only):
        per cell, the range CSR lists exactly the range queries the grid
        index holds there — partial before covering, each ascending by
        qid — and the home-cell CSR exactly the rows homed there."""
        grid = self.grid
        qstore = self.qstore
        rows, _, offsets, _ = self._range_csr()
        home = self.ostore.home_cells(grid.n * grid.n)
        assert sorted(home.order.tolist()) == list(range(len(self.ostore)))
        assert home.cells.tolist() == sorted(self.ostore.cells)
        assert home.cells.tolist() == [
            self.ostore.cells[row] for row in home.order.tolist()
        ]
        for cell in range(grid.n * grid.n):
            cell_rect = grid.cell_rect(cell)
            listed = []
            for covering in (0, 1):
                lo, hi = offsets[2 * cell + covering : 2 * cell + covering + 2]
                part = [qstore.qids[row] for row in rows[lo:hi].tolist()]
                assert part == sorted(part), (cell, part)
                for qid in part:
                    covers = self.queries[qid].region.contains_rect(cell_rect)
                    assert covers == bool(covering), (cell, qid)
                listed += part
            assert sorted(listed) == [
                qid
                for qid in sorted(self.index.queries_in_cell(cell))
                if qstore.kinds[qstore.row_of(qid)] == KIND_RANGE
            ], cell
