"""Freshness-vs-savings characterization: what staleness the paper's
bandwidth savings cost, as a function of downlink budget.

The incremental protocol's case (Figure 5) is byte savings over full
retransmission; the tentpole observability plane makes the *price* of
those savings measurable — how many cycles behind the engine a client's
delivered and committed answers run.  This benchmark sweeps one
client's downlink budget from "everything fits" down to roughly one
update per cycle, runs the same deterministic moving workload at each
point, and reports the server's ``freshness_vs_savings()`` snapshot:
savings ratio next to delivery-stage and commit-stage staleness
percentiles (in cycles).

The sweep is a characterization, not a gate: there is no assertion on
the trade itself, only on snapshot well-formedness.  The freshness
tracker attributes a fixed hashed sample of queries
(``repro.obs.freshness.SAMPLE_BITS``), so each sweep point runs twice:
once tracking every query (the constant patched to 0), which is the
characterization above — the throttled client's per-query figures come
from all of its summarised queries — and once at the production sample.
At the full population the sample must give every stage and polarity's
p50 / p95 / p99 on the registry histograms (the ``/metrics``
distributions) within one ``FRESHNESS_CYCLE_BUCKETS`` bucket of the full
run's, and must still measure the throttled client at both stages;
``--quick``'s 40 queries hold three sampled ones, so it reports both
without gating them.  Runs two ways:

* under pytest (with pytest-benchmark)::

      PYTHONPATH=src pytest benchmarks/bench_freshness.py --benchmark-only

* as a plain script (CI's smoke job uses ``--quick``)::

      PYTHONPATH=src python benchmarks/bench_freshness.py --quick

Both modes write ``BENCH_freshness.json`` at the repo root with one
entry per sweep point (budget, savings ratio, per-stage staleness
percentiles) plus the unthrottled point's per-cycle timings.
"""

from __future__ import annotations

import random
import time
from bisect import bisect_left
from contextlib import nullcontext
from unittest import mock

from conftest import scaled, write_bench_json

from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect
from repro.obs import FRESHNESS_CYCLE_BUCKETS, freshness
from repro.stats import format_table

SEED = 53
GRID_SIZE = 32

FULL_OBJECTS = 5_000
FULL_QUERIES = 500
FULL_CYCLES = 40
QUICK_OBJECTS = 400
QUICK_QUERIES = 40
QUICK_CYCLES = 15

#: Downlink budgets for the throttled client, bytes per cycle.  An
#: UpdateMessage is 17 bytes, so these are ~unlimited / ~10 / ~4 / ~1
#: updates per cycle.
BUDGET_SWEEP = (None, 170, 68, 17)

#: The throttled client acknowledges (commits) every this-many cycles —
#: commit-stage staleness needs acknowledgements to be measured at all.
COMMIT_EVERY = 3


def run_sweep_point(
    budget: int | None, n_objects: int, n_queries: int, cycles: int, every_query: bool = True
):
    """One deterministic run; returns the snapshot + per-cycle seconds.
    ``every_query`` tracks every query's freshness, not the sample."""
    rng = random.Random(SEED)
    with mock.patch.object(freshness, "SAMPLE_BITS", 0) if every_query else nullcontext():
        server = LocationAwareServer(grid_size=GRID_SIZE)
    server.register_client(0)  # healthy reference client
    if budget is None:
        server.register_client(1)
    else:
        server.register_client(1, downlink_budget=budget)
    # Queries alternate between the clients so both see comparable
    # update volume; all-range keeps the sweep about the network, not
    # about query-kind mix.
    for qid in range(n_queries):
        x, y = rng.random() * 0.9, rng.random() * 0.9
        side = rng.uniform(0.02, 0.10)
        server.register_range_query(
            qid % 2, qid, Rect(x, y, x + side, y + side)
        )
    for oid in range(n_objects):
        server.receive_object_report(
            oid, Point(rng.random(), rng.random()), t=0.0
        )
    timings: list[float] = []
    for cycle in range(cycles):
        now = float(cycle + 1)
        for oid in rng.sample(range(n_objects), k=max(1, n_objects // 4)):
            server.receive_object_report(
                oid, Point(rng.random(), rng.random()), now
            )
        started = time.perf_counter()
        server.evaluate_cycle(now)
        # The throttled client keeps trying to catch up through its
        # thin pipe: each wakeup redelivers what fits in the remaining
        # budget and advances the committed base by exactly that.  This
        # is where throttling turns into staleness — updates the cycle
        # dropped come back rounds later, at their original stamps.
        server.receive_wakeup(1)
        timings.append(time.perf_counter() - started)
        if cycle % COMMIT_EVERY == COMMIT_EVERY - 1:
            for qid in range(0, n_queries, 2):  # client 0's queries
                server.receive_commit(qid)
    snapshot = server.freshness_vs_savings()
    return snapshot, timings


def stage_cycles(snapshot: dict, stage: str, qids) -> dict:
    """Worst-query p50/p95/p99 cycle staleness for one stage over the
    given queries ({} when unmeasured).

    The aggregate stage histograms are dominated by the healthy
    client's same-cycle deliveries; the sweep is about the *throttled*
    client, so its queries' exact per-query summaries are merged by
    worst case — a dashboard alert cares about the slowest query.
    """
    queries = snapshot["staleness"].get("queries", {})
    merged: dict[str, float] = {}
    count = 0
    for qid in qids:
        stage_summary = queries.get(qid, {}).get(stage)
        if not stage_summary:
            continue
        count += stage_summary["count"]
        for key, value in stage_summary["cycles"].items():
            merged[key] = max(merged.get(key, 0.0), float(value))
    if not count:
        return {}
    merged["count"] = count
    return merged


def fleet_cycles(snapshot: dict) -> dict:
    """``stage/polarity`` -> the registry histograms' cycle p50/p95/p99."""
    return {
        f"{stage}/{polarity}": {q: summary["cycles"][q] for q in ("p50", "p95", "p99")}
        for stage, polarities in snapshot["staleness"]["stages"].items()
        for polarity, summary in polarities.items()
    }


def bucket_gap(full: dict, sampled: dict) -> int:
    """The most histogram buckets any sampled fleet percentile lies from
    the full run's (a series missing on one side counts as far off)."""
    if full.keys() != sampled.keys():
        return len(FRESHNESS_CYCLE_BUCKETS)
    return max(
        abs(bisect_left(FRESHNESS_CYCLE_BUCKETS, full[key][q]) - bisect_left(FRESHNESS_CYCLE_BUCKETS, sampled[key][q]))
        for key in full
        for q in full[key]
    )


def run_characterization(n_objects: int, n_queries: int, cycles: int):
    points = []
    gated = n_queries >= FULL_QUERIES
    throttled_qids = range(1, n_queries, 2)  # client 1's queries
    for budget in BUDGET_SWEEP:
        snapshot, timings = run_sweep_point(
            budget, n_objects, n_queries, cycles
        )
        sampled, _ = run_sweep_point(budget, n_objects, n_queries, cycles, every_query=False)
        delivery = stage_cycles(snapshot, "delivery", throttled_qids)
        commit = stage_cycles(snapshot, "commit", throttled_qids)
        # Well-formedness: the trade must actually be measured (by the
        # sample too, at the full population).
        assert snapshot["savings_ratio"] > 0.0
        assert delivery.get("count", 0) > 0, "no delivery staleness measured"
        assert commit.get("count", 0) > 0, "no commit staleness measured"
        for stage in ("delivery", "commit"):
            assert stage_cycles(sampled, stage, throttled_qids) or not gated, (
                f"the sample measured no {stage} staleness of the throttled client"
            )
        gap = bucket_gap(fleet_cycles(snapshot), fleet_cycles(sampled))
        assert gap <= 1 or not gated, f"sampled staleness {gap} buckets from full tracking at {budget}"
        points.append(
            {
                "budget_bytes_per_cycle": budget,
                "savings_ratio": snapshot["savings_ratio"],
                "incremental_bytes": snapshot["incremental_bytes"],
                "complete_bytes": snapshot["complete_bytes"],
                "delivery_cycles": delivery,
                "commit_cycles": commit,
                "sampled": {
                    "sample_ratio": sampled["staleness"]["sample_ratio"],
                    "fleet_cycles": fleet_cycles(sampled),
                    "fleet_bucket_gap": gap,
                    "delivery_cycles": stage_cycles(sampled, "delivery", throttled_qids),
                    "commit_cycles": stage_cycles(sampled, "commit", throttled_qids),
                },
                "fleet_cycles": fleet_cycles(snapshot),
                "timings": timings,
            }
        )
    rows = [
        [
            "unlimited" if p["budget_bytes_per_cycle"] is None
            else str(p["budget_bytes_per_cycle"]),
            p["savings_ratio"],
            p["delivery_cycles"].get("p95", 0.0),
            p["commit_cycles"].get("p50", 0.0),
            p["commit_cycles"].get("p95", 0.0),
            p["commit_cycles"].get("p99", 0.0),
            p["sampled"]["commit_cycles"].get("p95", 0.0),
            p["sampled"]["fleet_bucket_gap"],
        ]
        for p in points
    ]
    table = format_table(
        [
            "budget B/cycle",
            "savings ratio",
            "delivery p95 (cyc)",
            "commit p50",
            "commit p95",
            "commit p99",
            "sampled commit p95",
            "sampled fleet gap (buckets)",
        ],
        rows,
    )
    # Tighter pipes must never *improve* staleness: the throttled
    # client's worst-query commit p95 is monotone non-decreasing as the
    # budget shrinks (within one cycle of slack for tie-breaks).
    p95s = [p["commit_cycles"].get("p95", 0.0) for p in points]
    for wider, tighter in zip(p95s, p95s[1:]):
        assert tighter >= wider - 1.0, (
            f"commit staleness fell as budget tightened: {p95s}"
        )
    return points, table


def test_freshness_vs_savings(benchmark, record_series):
    n_objects = scaled(FULL_OBJECTS)
    n_queries = scaled(FULL_QUERIES)
    cycles = max(10, scaled(FULL_CYCLES))
    points, table = run_characterization(n_objects, n_queries, cycles)
    record_series("freshness", table)

    benchmark.extra_info["seed"] = SEED
    benchmark.extra_info["objects"] = n_objects
    benchmark.extra_info["queries"] = n_queries
    benchmark.extra_info["cycles"] = cycles
    for point in points:
        budget = point["budget_bytes_per_cycle"]
        label = "unlimited" if budget is None else str(budget)
        benchmark.extra_info[f"savings_ratio_{label}"] = round(
            point["savings_ratio"], 4
        )
        benchmark.extra_info[f"commit_p95_cycles_{label}"] = point[
            "commit_cycles"
        ].get("p95", 0.0)

    # The timed operation: one instrumented evaluate+downlink cycle on
    # a fresh unthrottled deployment.
    benchmark.pedantic(
        lambda: run_sweep_point(None, n_objects, n_queries, 5), rounds=3
    )


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    n_objects = QUICK_OBJECTS if quick else FULL_OBJECTS
    n_queries = QUICK_QUERIES if quick else FULL_QUERIES
    cycles = QUICK_CYCLES if quick else FULL_CYCLES
    label = "quick" if quick else "full"
    print(
        f"freshness-vs-savings benchmark ({label}): "
        f"{n_objects} objects, {n_queries} queries, {cycles} cycles, "
        f"budgets={[b or 'unlimited' for b in BUDGET_SWEEP]}"
    )
    points, table = run_characterization(n_objects, n_queries, cycles)
    print()
    print(table)
    unthrottled = points[0]
    path = write_bench_json(
        "freshness",
        unthrottled["timings"],
        seed=SEED,
        params={
            "mode": label,
            "objects": n_objects,
            "queries": n_queries,
            "cycles": cycles,
            "grid_size": GRID_SIZE,
            "commit_every": COMMIT_EVERY,
            "budget_sweep": list(BUDGET_SWEEP),
        },
        extra={
            "sweep": [
                {k: v for k, v in p.items() if k != "timings"}
                for p in points
            ],
        },
    )
    print(f"\nwrote {path}")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main(sys.argv[1:]))
