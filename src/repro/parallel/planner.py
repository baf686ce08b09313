"""Shard planning for the parallel bulk-evaluation pipeline.

The coordinator has already applied the batch's reports to object state
and the grid index and grouped them into cell-transition cohorts (the
serial pipelines' phase 5a).  The planner's job is to decide *where*
each cohort's membership pass runs:

* a cohort whose old∪new cells all fall inside one row-striped shard
  (``Grid.shard_of_cell``) is dispatched to that shard's worker;
* a cohort that straddles a shard boundary — an object whose cell
  transition crosses bands, or a predictive footprint spanning bands —
  lands in the **boundary cohort**, evaluated on the coordinator while
  the workers run.

Each cohort keeps its serial sequence number, so the merge can emit the
exact serial stream.  Note that a *query* spanning several shards needs
no special casing: two shards may both touch it, but through different
objects (an object belongs to exactly one cohort), and each worker
tests membership via the object-side ``answered`` snapshot rather than
the shared answer set — so per-pair outcomes commute and only emission
order matters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.worker import KIND_KNN, KIND_PREDICTIVE, KIND_RANGE

#: A cohort as the engine's cohort iterator yields it:
#: (cells, states, stay_put, point_pair).
Cohort = tuple


@dataclass(slots=True)
class ShardPlan:
    """Which cohorts run where, all tagged with serial sequence numbers."""

    shards: int
    #: shard id -> [(seq, cells, states, stay_put, point_pair), ...]
    shard_cohorts: dict[int, list[tuple]] = field(default_factory=dict)
    #: [(seq, cells, states, stay_put, point_pair), ...] for the coordinator
    boundary: list[tuple] = field(default_factory=list)
    total: int = 0

    @property
    def dispatched(self) -> int:
        return self.total - len(self.boundary)


def plan_shards(cohorts: list[Cohort], grid, shards: int) -> ShardPlan:
    """Assign each cohort to its owning shard or to the boundary set."""
    plan = ShardPlan(shards=shards)
    shard_cohorts = plan.shard_cohorts
    boundary = plan.boundary
    n = grid.n
    for seq, (cells, states, stay_put, point_pair) in enumerate(cohorts):
        cell_iter = iter(cells)
        shard = (next(cell_iter) // n) * shards // n
        for cell in cell_iter:
            if (cell // n) * shards // n != shard:
                boundary.append((seq, cells, states, stay_put, point_pair))
                break
        else:
            bucket = shard_cohorts.get(shard)
            if bucket is None:
                shard_cohorts[shard] = [
                    (seq, cells, states, stay_put, point_pair)
                ]
            else:
                bucket.append((seq, cells, states, stay_put, point_pair))
    plan.total = len(cohorts)
    return plan


def _descriptor(query):
    """Flatten one query to its wire descriptor (kind + range bounds).

    Kind is matched on ``QueryKind.value`` strings rather than enum
    identity so this module never imports :mod:`repro.core` (the engine
    imports us; a state import here would be circular).
    """
    kind = query.kind.value
    if kind == "range":
        region = query.region
        return (
            KIND_RANGE,
            region.min_x,
            region.min_y,
            region.max_x,
            region.max_y,
        )
    if kind == "knn":
        return (KIND_KNN, 0.0, 0.0, 0.0, 0.0)
    return (KIND_PREDICTIVE, 0.0, 0.0, 0.0, 0.0)


def build_shard_payloads(
    plan: ShardPlan,
    grid,
    index,
    queries,
    qstore=None,
    trace_ctx=(0,),
) -> list[tuple]:
    """Serialise each shard's work into the flat SoA payload the worker
    consumes: grid geometry as five numbers, touched cells as qid
    tuples (:meth:`GridIndex.snapshot_cell_queries`), query descriptors
    as primitive 5-tuples, and cohort members as ``(oid, x, y,
    answered)`` rows.  Nothing in a payload aliases live engine state,
    which is what makes a payload safe to pickle to a process *and*
    safe to re-run inline if the pool dies mid-batch.

    When the engine passes its :class:`ColumnarQueryStore`, descriptors
    come straight out of its columns (:meth:`descriptors`) — the store
    already holds the exact wire format, so the per-query attribute
    walk in :func:`_descriptor` is skipped entirely.

    ``trace_ctx`` is the coordinator's trace context — ``(parent_span_id,)``
    — riding along so the worker can echo it back with its phase spans
    (distributed-tracing propagation in one tuple element).
    """
    world = grid.world
    grid_params = (
        grid.n,
        world.min_x,
        world.min_y,
        grid.cell_width,
        grid.cell_height,
    )
    payloads = []
    for shard in sorted(plan.shard_cohorts):
        items = plan.shard_cohorts[shard]
        touched: set[int] = set()
        needed_qids: set[int] = set()
        cohort_descs = []
        for seq, cells, states, stay_put, point_pair in items:
            touched.update(cells)
            rows = []
            for state in states:
                answered = tuple(state.answered)
                needed_qids.update(answered)
                location = state.location
                rows.append((state.oid, location.x, location.y, answered))
            cohort_descs.append((seq, tuple(cells), rows, stay_put, point_pair))
        cell_qids = index.snapshot_cell_queries(touched)
        for qids in cell_qids.values():
            needed_qids.update(qids)
        if qstore is not None:
            qdesc = qstore.descriptors(needed_qids)
        else:
            qdesc = {qid: _descriptor(queries[qid]) for qid in needed_qids}
        payloads.append(
            (shard, grid_params, cell_qids, qdesc, cohort_descs, trace_ctx)
        )
    return payloads
