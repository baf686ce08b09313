"""ABL9: downstream congestion — what fits through a limited channel?

Paper motivation #4: "Sending the whole answer each time consumes the
network bandwidth and results in network congestion at the server side."
Under a fixed per-cycle downlink budget, this ablation measures what
fraction of each server's output actually reaches the client: the
incremental stream (17 B per change) versus complete-answer
retransmission (16 + 8·n B per query, every cycle).

Under pytest it prints that table.  As a script, ``--ship`` times the
link's one update door instead: µs per update for a 2,000-update slice
(int64 columns, as the server ships them) through
``ClientLink.deliver_updates``, the minimum of 5 × 20 calls, on a plain
link, a throttled link whose budget never binds and a link with a fault
hook that delivers everything (reported, not gated)::

    PYTHONPATH=src python benchmarks/bench_congestion.py --ship
"""

import random
import sys
import timeit

import numpy as np
from conftest import scaled

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect
from repro.net import DELIVER, ClientLink, FullAnswerMessage, NetworkStats, ThrottledLink, UpdateMessage
from repro.stats import format_table

OBJECT_COUNT = scaled(2000)
QUERY_COUNT = scaled(1000)
MOVE_FRACTION = 0.2
CYCLES = 5
BUDGETS_KB = (4, 16, 32, 64, 256)


def run_workload():
    """One shared workload: per-cycle update stream + complete answers."""
    rng = random.Random(23)
    engine = IncrementalEngine(grid_size=64)
    objects = {
        oid: Point(rng.random(), rng.random()) for oid in range(OBJECT_COUNT)
    }
    for oid, location in objects.items():
        engine.report_object(oid, location, 0.0)
    for i in range(QUERY_COUNT):
        engine.register_range_query(
            10**6 + i, Rect.square(Point(rng.random(), rng.random()), 0.04)
        )
    engine.evaluate(0.0)
    cycles = []
    for step in range(1, CYCLES + 1):
        for oid in rng.sample(sorted(objects), int(OBJECT_COUNT * MOVE_FRACTION)):
            objects[oid] = Point(rng.random(), rng.random())
            engine.report_object(oid, objects[oid], float(step))
        updates = engine.evaluate(float(step))
        completes = [
            FullAnswerMessage(qid, frozenset(query.answer))
            for qid, query in engine.queries.items()
        ]
        cycles.append((updates, completes))
    return cycles


def delivered_fraction(messages_per_cycle, budget_bytes: int) -> float:
    """Fraction of bytes that fit through a throttled link per cycle."""
    stats = NetworkStats()
    link = ThrottledLink(1, budget_bytes, stats)
    for messages in messages_per_cycle:
        link.new_cycle()
        for message in messages:
            link.deliver(message)
    total = stats.delivered_bytes + stats.dropped_bytes
    return stats.delivered_bytes / total if total else 1.0


def test_congestion(benchmark, record_series):
    cycles = run_workload()
    incremental_stream = [
        [UpdateMessage(u.qid, u.oid, u.sign) for u in updates]
        for updates, __ in cycles
    ]
    complete_stream = [completes for __, completes in cycles]

    rows = []
    for budget_kb in BUDGETS_KB:
        budget = budget_kb * 1024
        inc_fraction = delivered_fraction(incremental_stream, budget)
        full_fraction = delivered_fraction(complete_stream, budget)
        rows.append([budget_kb, inc_fraction, full_fraction])
    record_series(
        "abl9_congestion",
        format_table(
            ["budget KB/cycle", "incremental delivered", "complete delivered"],
            rows,
        ),
    )

    # At every budget the incremental stream fits at least as well, and
    # at some constrained budget it fits fully while complete does not.
    for __, inc_fraction, full_fraction in rows:
        assert inc_fraction >= full_fraction - 1e-9
    assert any(
        inc_fraction > 0.999 and full_fraction < 0.9
        for __, inc_fraction, full_fraction in rows
    )

    benchmark(delivered_fraction, incremental_stream, 16 * 1024)


SHIP_ROWS, SHIP_CALLS, SHIP_REPEATS = 2000, 20, 5


def ship_us_per_update() -> dict[str, float]:
    """µs per update through ``deliver_updates``, per link kind."""
    rng = np.random.default_rng(7)
    qids = np.sort(rng.integers(0, 50, SHIP_ROWS))
    oids = rng.integers(0, 10**6, SHIP_ROWS)
    signs = np.where(rng.random(SHIP_ROWS) < 0.5, -1, 1)

    def plain():
        return ClientLink(1, NetworkStats())

    def throttled():
        return ThrottledLink(1, SHIP_ROWS * SHIP_CALLS * UpdateMessage.size_bytes, NetworkStats())

    def hooked():
        link = ClientLink(1, NetworkStats())
        link.fault_hook = lambda _link, _message: DELIVER
        return link

    out = {}
    for make in (plain, throttled, hooked):
        best = float("inf")
        for _ in range(SHIP_REPEATS):
            link = make()
            best = min(best, timeit.timeit(lambda: link.deliver_updates(qids, oids, signs), number=SHIP_CALLS))
        out[make.__name__] = best / (SHIP_CALLS * SHIP_ROWS) * 1e6
    return out


if __name__ == "__main__":
    if sys.argv[1:] != ["--ship"]:
        sys.exit("usage: bench_congestion.py --ship  (the table runs under pytest)")
    print(f"deliver_updates, {SHIP_ROWS}-update slice, min of {SHIP_REPEATS} x {SHIP_CALLS} calls")
    print(format_table(["link", "us per update"], [[k, v] for k, v in ship_us_per_update().items()]))
