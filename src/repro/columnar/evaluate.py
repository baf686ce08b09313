"""The columnar evaluator: the engine's range pass and query-side passes.

Engine phase 5 is **one range pass** per evaluation
(:meth:`ColumnarEvaluator.evaluate_ranges`), run after ingest against
the batch's final query bounds and final object positions:

* a *touched* range query — one registered or moved in this batch, its
  store row written by phases 3 and 4 — is re-answered: one gather
  (:meth:`~ColumnarEvaluator.fill_ranges`) finds the objects inside its
  final region, and :meth:`~ColumnarEvaluator.install` emits the diff
  against its standing answer (∅ for a new query) — the same
  install-and-diff a re-solved k-NN query takes;
* every other range query meets the batch's reports in the per-report
  join (:mod:`repro.columnar.kernels`): each report takes one or two
  segments of the grid-wide range CSR, touched queries left out of it,
  and the pairs are classified from the report's old and new
  coordinates in one kernel pass.  The changed pairs come grouped by
  query, negatives first (the kernel's one sort).

Touched and untouched pairs cover disjoint sets of queries and every
pair is classified once, at the end state, so no ``(qid, oid)`` pair
can repeat: the stream is each query's net change with nothing to net.

The range CSR is cached **across evaluations**, keyed on
:attr:`ColumnarQueryStore.version`: it depends only on registered range
queries, so it survives arbitrarily many object-report batches
untouched (:meth:`ColumnarEvaluator._range_csr`).  k-NN queries are
deliberately left out of it (their circles change every repair, which
would otherwise thrash the cache); the pass marks a k-NN query dirty
when its footprint — :meth:`~ColumnarEvaluator._footprint_ranges` of
its centre and radius, computed per batch — meets a cell a report left
or entered, or when it holds a reported object (the k-NN answers'
object rows looked up in a mask of the batch's): a member can leave a
circle's footprint from a cell edge, a few ulps outside the circle's
rounded bounding rectangle, and then neither of its cells meets the
footprint.

Nothing here mirrors object or query state: the object store's row is
the only record of an object and the query store's row of a query, and
every answer is one run of the query store's sorted answer keys
(``query row << 32 | object row``).  Every pass takes query-store rows,
gathers its inputs from the columns and reads standing answers as
object rows; each applies its changes to the keys with one
:meth:`~repro.columnar.store.ColumnarQueryStore.toggle` — one delete
and one merge-insert — and emits them with one ``extend_columns``.

The query-side passes — range fills, engine phases 6 and 7 — are array
passes over the object store's home-cell CSR
(:class:`~repro.columnar.store.HomeCells`: a sort-by-cell permutation of
the ``cells`` column, a run of cells being one slice of it, cut at most
once per store state) and its one ragged gather ``(cell rects) ->
(rect position, store row)``:

* :meth:`~ColumnarEvaluator.fill_ranges` — every touched range query:
  the objects homed under its region and inside it;
* :meth:`~ColumnarEvaluator.knn_search` — every dirty k-NN query: its
  full answer, or a seed search of doubling cell squares, bounds the
  search square;
* :meth:`~ColumnarEvaluator.predictive_refresh` — every predictive
  query, every evaluation: one candidate pass, one slab test over
  per-pair bounds.

Each leaves the answers the brute-force reference
(:mod:`repro.check.reference`) derives.  There is no grid index: every
query footprint is :meth:`~ColumnarEvaluator._footprint_ranges` of the
query's geometry, computed where it is read, as an object's swept
footprint is.
"""

from __future__ import annotations

import math

import numpy as np

from repro.columnar.ingest import swept_cell_ranges
from repro.columnar.kernels import classify_pairs, join_reports
from repro.columnar.store import KIND_KNN, KIND_RANGE, answer_keys, holds, key_rows
from repro.grid.cellmath import (
    point_cells_batch,
    ragged_arange,
    rect_cell_ranges_batch,
    rect_cell_strips_batch,
    rect_cells_cover,
    rect_cells_meet,
)

#: ``engine_columnar_batch_size`` histogram bounds: powers of four from
#: a single pair up to 16M pairs per batch.
BATCH_SIZE_BUCKETS: tuple[float, ...] = tuple(4.0**e for e in range(13))


class ColumnarEvaluator:
    """Batch evaluator bound to one engine's live structures.

    Emission goes through the update stream's ``extend_columns``
    contract — one int64 array chunk a pass — which keeps this package
    import-free of :mod:`repro.core` (the engine imports us).
    """

    def __init__(
        self,
        grid,
        ostore,
        qstore,
        registry,
        tracer,
    ):
        self.grid = grid
        self.ostore = ostore
        self.qstore = qstore
        self.tracer = tracer
        self._csr: tuple | None = None
        self._h_batch_size = registry.histogram(
            "engine_columnar_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        counter = registry.counter
        self._m_batches = counter("engine_columnar_batches_total")
        self._m_pairs = counter("engine_columnar_pairs_total")
        self._m_changes = counter("engine_columnar_changes_total")
        self._m_csr_rebuilds = counter("engine_range_csr_rebuilds_total")
        # Per-phase wall time of the range pass (plan/join/emit) — the
        # benchmark reads the deltas to attribute a round's cost.
        self._phase_counters = {
            phase: counter(
                "engine_columnar_phase_seconds_total",
                labels={"phase": phase},
            )
            for phase in ("plan", "join", "emit")
        }

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def evaluate_ranges(self, updates, touched, reports, knn_dirty) -> None:
        """Engine phase 5: the one range pass, at the batch's end state.

        ``touched`` lists the store rows of the range queries registered
        or moved in this batch (a row may repeat), ``reports`` is the batch's
        :class:`~repro.columnar.ingest.Reports` (``None`` when nothing
        reported).  Touched queries are re-answered and installed, every
        other range query takes the report join's changed pairs, and
        k-NN queries the reports reach are added to ``knn_dirty``.
        """
        qstore = self.qstore
        span = self.tracer.span
        phases = self._phase_counters
        pairs = joined = None
        with span("columnar_plan", phases["plan"]):
            skip = np.zeros(len(qstore), dtype=bool)
            skip[touched] = True
            if reports is not None:
                self._mark_knn(reports, knn_dirty)
                pairs = join_reports(reports.prev_cells, reports.cells, *self._range_csr(), skip)
        with span("columnar_join", phases["join"]):
            rows = np.flatnonzero(skip)
            filled = self.fill_ranges(rows) if len(rows) else None
            if pairs is not None:
                self._m_batches.inc()
                self._m_pairs.inc(len(pairs[0]))
                self._h_batch_size.observe(len(pairs[0]))
                joined = classify_pairs(pairs, reports, qstore)
                if joined is not None:
                    self._m_changes.inc(len(joined[0]))
        with span("columnar_emit", phases["emit"]):
            if joined is not None:
                qid_arr, oid_arr, sign_arr, keys = joined
                enters = sign_arr > 0
                qstore.toggle(keys[~enters], keys[enters])
                updates.extend_columns(qid_arr, oid_arr, sign_arr)
            if filled is not None:
                self.install(updates, rows, *filled)

    def install(self, updates, qrows, pos, orows) -> None:
        """Make the object rows ``orows[pos == i]`` the answer of the
        query in store row ``qrows[i]`` (rows distinct) and emit each
        query's difference from its standing answer as one run: leavers,
        then entrants in the order given."""
        qstore = self.qstore
        new = answer_keys(qrows[pos], orows)
        old = qstore.run_keys(np.sort(qrows))[1]
        left = old[~holds(np.sort(new), old)]
        joined = new[~holds(old, new)]
        if not (len(left) or len(joined)):
            return
        qstore.toggle(left, joined)
        qrows, orows = key_rows(np.concatenate((left, joined)))
        order = np.argsort(qrows, kind="stable")
        updates.extend_columns(
            np.frombuffer(qstore.qids, dtype=np.int64)[qrows[order]],
            np.frombuffer(self.ostore.oids, dtype=np.int64)[orows[order]],
            np.where(order < len(left), -1, 1),
        )

    def _mark_knn(self, reports, knn_dirty) -> None:
        """Add to ``knn_dirty`` every k-NN query whose footprint meets a
        cell a report left or entered, or whose answer holds a reported
        object."""
        qstore = self.qstore
        knn = qstore.rows_of(KIND_KNN)
        if not len(knn):
            return
        n = self.grid.n
        cells = np.zeros(n * n, dtype=bool)
        cells[reports.prev_cells[reports.prev_cells >= 0]] = True
        cells[reports.cells] = True
        hit = rect_cells_meet(cells, *self.footprints(knn), n, np)
        reported = np.zeros(len(self.ostore), dtype=bool)
        reported[reports.rows] = True
        held_by, members = qstore.members(knn)
        hit[held_by[reported[members]]] = True
        knn_dirty.update(np.frombuffer(qstore.qids, dtype=np.int64)[knn[hit]].tolist())

    def _footprint_ranges(self, min_xs, min_ys, max_xs, max_ys, cxs=None, cys=None):
        """The grid footprints of a batch of query rectangles as a
        ``(4, m)`` array of inclusive cell ranges ``col_lo, col_hi,
        row_lo, row_hi``: the cells under the rectangle
        (``Grid.cells_overlapping``), or when it lies wholly outside the
        world the home cell (``Grid.cell_of``) of its centre — ``cxs``,
        ``cys`` when given, else its midpoint."""
        grid = self.grid
        *ranges, hit = rect_cell_ranges_batch(
            min_xs, min_ys, max_xs, max_ys, grid, np
        )
        ranges = np.stack(ranges)
        if not hit.all():
            if cxs is None:
                cxs, cys = (min_xs + max_xs) / 2.0, (min_ys + max_ys) / 2.0
            centre = point_cells_batch(cxs, cys, grid, np)
            col, row = centre % grid.n, centre // grid.n
            ranges = np.where(hit, ranges, np.stack((col, col, row, row)))
        return ranges

    def _regions(self, rows):
        """The region bounds of query-store ``rows`` as a ``(4, m)``
        array ``min_x, min_y, max_x, max_y``."""
        return np.stack([view[rows] for view in self.qstore.bounds_views()])

    def footprints(self, rows):
        """The footprints of query-store ``rows``: a k-NN query's
        circle's bounding rectangle, any other query's region, each
        falling back to its centre's home cell."""
        qstore = self.qstore
        min_x, min_y, max_x, max_y = self._regions(rows)
        knn = np.frombuffer(qstore.kinds, dtype=np.int8)[rows] == KIND_KNN
        cx, cy, r = (
            np.frombuffer(column, dtype=np.float64)[rows]
            for column in (qstore.cxs, qstore.cys, qstore.radii)
        )
        return self._footprint_ranges(
            np.where(knn, cx - r, min_x),
            np.where(knn, cy - r, min_y),
            np.where(knn, cx + r, max_x),
            np.where(knn, cy + r, max_y),
            np.where(knn, cx, (min_x + max_x) / 2.0),
            np.where(knn, cy, (min_y + max_y) / 2.0),
        )

    def footprint_cover(self):
        """How many query footprints lie over each cell (int64 per
        cell)."""
        return rect_cells_cover(*self.footprints(np.arange(len(self.qstore))), self.grid.n, np)

    def _range_csr(self):
        """The grid-wide CSR of range candidates ``(rows, offsets)``,
        cut from the query store's bound columns whenever its version
        changed.

        ``rows[offsets[2c] : offsets[2c + 1]]`` are the store rows of
        the range queries partially overlapping cell ``c`` and
        ``rows[offsets[2c + 1] : offsets[2c + 2]]`` of those covering
        it (``Grid.cell_rect``'s arithmetic), each ascending by qid —
        the candidate order.
        """
        qstore = self.qstore
        cached = self._csr
        if cached is not None and cached[0] == qstore.version:
            return cached[1]
        self._m_csr_rebuilds.inc()
        grid = self.grid
        n = grid.n
        rows = qstore.rows_of(KIND_RANGE)
        min_xs, min_ys, max_xs, max_ys = self._regions(rows)
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
        offsets = np.zeros(2 * n * n + 1, dtype=np.int64)
        np.cumsum(np.bincount(group, minlength=2 * n * n), out=offsets[1:])
        csr = (rows[rank[order]].astype(np.int32), offsets)
        self._csr = (qstore.version, csr)
        return csr

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
        # A lane whose window is empty (a report far older than, or far
        # ahead of, ``now``) extrapolates outside ``[t, t + trust]`` and
        # can still overflow to inf (and inf - inf to NaN); ``ok``
        # already clears it.  ``q / p`` divides by zero on p == 0 lanes.
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

    def fill_ranges(self, qrows):
        """The answer of the range query in every given store row, from
        one gather: ``(pos, object rows)``, per query (``pos`` its
        position in ``qrows``) the objects homed under its region and
        inside it."""
        bounds = self._regions(qrows)
        pos, rows = self._gather(self._footprint_ranges(*bounds))
        keep = self._inside(bounds, pos, rows)
        return pos[keep], rows[keep]

    def knn_ranked(self, qrows) -> list[list[tuple[float, int]]]:
        """:meth:`knn_search` as one ranked ``(distance, oid)`` list per
        query, equal to the brute-force
        :func:`repro.check.reference.knn_answer` list for list."""
        pos, rows, distances = self.knn_search(qrows)
        oids = np.frombuffer(self.ostore.oids, dtype=np.int64)[rows].tolist()
        distances = distances.tolist()
        cuts = np.searchsorted(pos, np.arange(len(qrows) + 1)).tolist()
        return [list(zip(distances[lo:hi], oids[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]

    def knn_search(self, qrows):
        """The answer of the k-NN query in every given store row,
        searched together from its centre: ``(pos, object rows,
        distances)``, per query (``pos`` its position in ``qrows``) its
        k nearest ranked by ``(distance, oid)``.

        Each search is bounded by a squared distance k objects lie
        within: a query holding a full answer takes its members' own
        squared distances at their current coordinates, any other (a
        first or underfull solve) a seed from :meth:`_seed_bounds`.  The
        true k nearest are then homed in the cells under that square:
        one gather, one squared-distance filter with a relative margin
        for the few-ulp disagreement between the squared form and the
        exact distance, then exact ``math.hypot`` (what
        ``Point.distance_to`` uses) and one ``(query, distance, oid)``
        sort on the survivors only — so the radius stays bit-identical
        to the brute force's.
        """
        m = len(qrows)
        ostore = self.ostore
        qstore = self.qstore
        xs, ys = ostore.xy_views()
        cx, cy = (
            np.frombuffer(column, dtype=np.float64)[qrows]
            for column in (qstore.cxs, qstore.cys)
        )
        ks = np.frombuffer(qstore.ks, dtype=np.int64)[qrows]
        owner, members = qstore.members(qrows)
        full = np.bincount(owner, minlength=m) == ks
        bound = np.empty(m)
        if full.any():
            held = full[owner]
            owner = owner[held]
            members = members[held]
            dx = xs[members] - cx[owner]
            dy = ys[members] - cy[owner]
            sizes = ks[full]
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
        distances = np.fromiter(
            map(math.hypot, dx[keep].tolist(), dy[keep].tolist()), np.float64, len(keep)
        )
        pos = pos[keep]
        rows = rows[keep]
        order = np.lexsort((np.frombuffer(ostore.oids, dtype=np.int64)[rows], distances, pos))
        pos = pos[order]
        top = np.arange(len(pos)) - np.searchsorted(pos, pos) < ks[pos]
        return pos[top], rows[order][top], distances[order][top]

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

    def predictive_refresh(self, qrows, now: float, trust_horizon: float):
        """Refresh the predictive query in every given store row over one
        candidate pass: ``(qids, oids, signs)`` of the changed
        memberships, query by query in the order of ``qrows``, each
        ascending by oid, already applied to the answers.

        A query's candidates are its standing answer plus the objects
        whose index footprint meets the query's — recomputed from the
        columns: objects homed in the query's footprint and moving
        objects whose swept footprint
        (:func:`~repro.columnar.ingest.swept_cell_ranges`) meets it.
        Every distinct (query, candidate) pair's windowed membership at
        ``now`` is compared with its standing one.
        """
        ostore = self.ostore
        qstore = self.qstore
        bounds = self._regions(qrows)
        horizons = np.frombuffer(qstore.horizons, dtype=np.float64)[qrows]
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
        owner, standing_rows = qstore.members(qrows)
        pos = np.concatenate((owner, homed_pos, swept_pos))
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
        changed = np.flatnonzero(inside != ~fresh[order])
        pos = pos[changed]
        enters = inside[changed]
        keys = answer_keys(qrows[pos], rows[order[changed]])
        qstore.toggle(keys[~enters], keys[enters])
        qids = np.frombuffer(qstore.qids, dtype=np.int64)[qrows[pos]]
        return qids, oids[first][changed], np.where(enters, 1, -1)

    def check_invariants(self) -> None:
        """The two CSRs against what they are cut from (tests only):
        per cell, the range CSR lists exactly the range queries whose
        region overlaps it by the scalar ``Grid.cells_overlapping_set``
        — partial before covering, each ascending by qid — and the
        home-cell CSR exactly the rows homed there."""
        grid = self.grid
        qstore = self.qstore
        rows, offsets = self._range_csr()
        home = self.ostore.home_cells(grid.n * grid.n)
        assert sorted(home.order.tolist()) == list(range(len(self.ostore)))
        assert home.cells.tolist() == sorted(self.ostore.cells)
        assert home.cells.tolist() == [
            self.ostore.cells[row] for row in home.order.tolist()
        ]
        regions = {
            qstore.qids[row]: qstore.region_at(row)
            for row in qstore.rows_of(KIND_RANGE).tolist()
        }
        overlapping: dict[int, list[int]] = {}
        for qid, region in regions.items():
            for cell in grid.cells_overlapping_set(region):
                overlapping.setdefault(cell, []).append(qid)
        for cell in range(grid.n * grid.n):
            cell_rect = grid.cell_rect(cell)
            listed = []
            for covering in (0, 1):
                lo, hi = offsets[2 * cell + covering : 2 * cell + covering + 2]
                part = [qstore.qids[row] for row in rows[lo:hi].tolist()]
                assert part == sorted(part), (cell, part)
                for qid in part:
                    covers = regions[qid].contains_rect(cell_rect)
                    assert covers == bool(covering), (cell, qid)
                listed += part
            assert sorted(listed) == overlapping.get(cell, []), cell
