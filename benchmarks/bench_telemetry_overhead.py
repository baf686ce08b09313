"""What telemetry costs a cycle: the same in-process rounds run three
ways — the default stack, freshness tracking off
(``freshness=NULL_FRESHNESS``) and every metric off
(``registry=NULL_REGISTRY``, which turns freshness off too).

The rounds are the end-to-end benchmark's ``sparse_mixed`` and
``bulk_churn`` op streams (``benchmarks/e2e/workloads.py``), applied
straight to a ``LocationAwareServer``: reports, query moves, one
evaluation, every link drained.  A third shape, ``reconnect``, is built
here: 400 clients of 5 range queries each over 3,000 objects, 300 of
which report a cycle; no client commits, and 40 clients are dropped
each cycle and woken the next, so wakeups carry the freshness tracker's
commits and its pending blocks run full.  The garbage collector is
collected before and disabled inside each timed cycle.  Modes alternate
run by run so a drift in the box's load lands on all three alike.

Cycle medians of separate runs spread too widely on a shared box to
read a few milliseconds from, so the default mode's runs also time the
freshness tracker from inside: a ``perf_counter`` wrapper around each
of its public methods sums the seconds the tracker spends per timed
cycle, which is reported per method and as a share of the cycle against
the 2 % telemetry budget (the wrappers' own calls are in the default
cycle, so the share reads a little high).

It reports; it does not gate (shared CI runners are too noisy for a
few-percent bound)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py            # full shapes, 10 pairs
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --quick    # 1/10 populations

The output is two markdown tables: the median cycle per mode with the
default mode's overhead over each telemetry-off mode, and the tracker's
time per cycle, per method and in total.
"""

from __future__ import annotations

import argparse
import gc
import random
import statistics
import sys
from functools import partial
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import config
from workloads import Workload

from repro.core.engine import IncrementalEngine
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.obs import NULL_FRESHNESS, NULL_REGISTRY

SHAPES = ("sparse_mixed", "bulk_churn", "reconnect")
SEED = config.DEFAULT_SEED
#: Timed cycles per run (after the shape's warm-up rounds), full and quick.
ROUNDS, QUICK_ROUNDS = 40, 10
#: Alternating runs per mode, full and quick; the tables report the
#: median of their medians.
RUNS, QUICK_RUNS = 10, 2
#: The tracker's public methods, each timed in the default mode.
TRACKER_METHODS = (
    "stamp_report", "stamp_reports", "forget", "end_cycle", "forget_query",
    "observe_delivered", "observe_delivered_runs", "observe_undelivered", "observe_committed",
)  # fmt: skip
#: The telemetry budget: share of a cycle.
BUDGET = 0.02
#: name -> the engine keywords that select the mode.
MODES = {
    "default": {},
    "no_freshness": {"freshness": NULL_FRESHNESS},
    "no_registry": {"registry": NULL_REGISTRY},
}
#: The reconnect shape at full size; ``--quick`` divides every count by 10.
RECONNECT = {"clients": 400, "objects": 3_000, "reports": 300, "wakeups": 40}
QUERIES_PER_CLIENT = 5
#: The reconnect shape's side of a range query and largest step of a report.
QUERY_SIDE, STEP = 0.1, 0.02


def _apply(server: LocationAwareServer, ops: list[tuple]) -> None:
    """Apply a generator round (or setup phase) to ``server``."""
    for op in ops:
        kind = op[0]
        if kind == "report":
            _, oid, x, y, vx, vy, t = op
            velocity = Velocity(vx, vy) if (vx or vy) else Velocity.ZERO
            server.receive_object_report(oid, Point(x, y), t, velocity)
        elif kind == "move":
            if op[2] == "knn":
                server.receive_knn_query_move(op[1], Point(op[3], op[4]), op[5])
            elif op[2] == "range":
                server.receive_range_query_move(op[1], Rect(*op[3:7]), op[7])
            else:
                server.receive_predictive_query_move(op[1], Rect(*op[3:7]), op[7])
        elif kind == "commit":
            server.receive_commit(op[1])
        elif kind == "hello":
            server.register_client(op[1])
        elif op[3] == "knn":
            _, client, qid, _, cx, cy, k = op
            server.register_knn_query(client, qid, Point(cx, cy), k)
        elif op[3] == "range":
            server.register_range_query(op[1], op[2], Rect(*op[4:8]))
        else:
            server.register_predictive_query(op[1], op[2], Rect(*op[4:8]), op[8])


def replay_shape(name: str, mode: str, quick: bool):
    """A server loaded with an end-to-end shape, its warm-up rounds, and
    ``(prepare, run)``: ``prepare()`` draws a round's ops untimed and
    ``run(ops)`` applies them, evaluates and drains every link."""
    shape = config.shape_for(name, quick=quick)
    workload = Workload(shape, SEED)
    server = LocationAwareServer(
        engine=IncrementalEngine(grid_size=config.GRID_SIZE, **MODES[mode])
    )
    hellos, registrations, reports = workload.setup_ops()
    for phase in (hellos, reports, registrations):
        _apply(server, phase)
    links = [server.link_of(c) for c in server.client_ids()]
    server.evaluate_cycle(0.0)
    for link in links:
        link.drain()

    def run(ops) -> None:
        _apply(server, ops)
        server.evaluate_cycle(workload.now)
        for link in links:
            link.drain()

    return server, shape.warmup_rounds, workload.next_round, run


def reconnect_shape(mode: str, quick: bool):
    """:func:`replay_shape` for the reconnect shape (see the module
    docstring)."""
    scale = 10 if quick else 1
    clients, objects, reports, dropping = (count // scale for count in RECONNECT.values())
    rng = random.Random(SEED)
    server = LocationAwareServer(
        engine=IncrementalEngine(grid_size=config.GRID_SIZE, **MODES[mode])
    )
    positions = [(rng.random(), rng.random()) for _ in range(objects)]
    for oid, (x, y) in enumerate(positions):
        server.receive_object_report(oid, Point(x, y), 0.0)
    for client in range(clients):
        server.register_client(client)
        for number in range(QUERIES_PER_CLIENT):
            x, y = rng.uniform(0, 1 - QUERY_SIDE), rng.uniform(0, 1 - QUERY_SIDE)
            server.register_range_query(
                client, client * QUERIES_PER_CLIENT + number,
                Rect(x, y, x + QUERY_SIDE, y + QUERY_SIDE),
            )  # fmt: skip
    links = [server.link_of(c) for c in range(clients)]
    server.evaluate_cycle(0.0)
    for link in links:
        link.drain()
    now, dropped = 0.0, []

    def prepare():
        nonlocal now
        now += 1.0
        moved = []
        for oid in rng.sample(range(objects), reports):
            x, y = positions[oid]
            x = min(max(x + rng.uniform(-STEP, STEP), 0.0), 1.0)
            y = min(max(y + rng.uniform(-STEP, STEP), 0.0), 1.0)
            positions[oid] = x, y
            moved.append((oid, Point(x, y)))
        return now, moved, rng.sample(range(clients), dropping)

    def run(ops) -> None:
        nonlocal dropped
        now, moved, dropping = ops
        for oid, location in moved:
            server.receive_object_report(oid, location, now)
        for client in dropped:
            server.receive_wakeup(client)
        dropped = dropping
        for client in dropped:
            links[client].disconnect()
        server.evaluate_cycle(now)
        for link in links:
            link.drain()

    return server, 2, prepare, run


def time_tracker(tracker) -> dict[str, float]:
    """Wrap each public method of ``tracker`` (on the instance) to sum
    its seconds; returns the running sums, by method."""
    spent = dict.fromkeys(TRACKER_METHODS, 0.0)
    for name in TRACKER_METHODS:
        method = getattr(tracker, name, None)
        if method is None:
            continue

        def timed(*args, _method=method, _name=name):
            started = perf_counter()
            try:
                return _method(*args)
            finally:
                spent[_name] += perf_counter() - started

        setattr(tracker, name, timed)
    return spent


def run_mode(name: str, mode: str, rounds: int, quick: bool) -> tuple[float, dict]:
    """Median seconds of ``rounds`` timed cycles of a fresh server, and
    (default mode only) the tracker's seconds per timed cycle by method."""
    build = reconnect_shape if name == "reconnect" else partial(replay_shape, name)
    server, warmup, prepare, run = build(mode, quick)
    spent = time_tracker(server.freshness) if mode == "default" else {}
    seconds = []
    for number in range(warmup + rounds):
        if number == warmup:
            spent.update(dict.fromkeys(spent, 0.0))
        ops = prepare()
        gc.collect()
        gc.disable()
        try:
            opened = perf_counter()
            run(ops)
            closed = perf_counter()
        finally:
            gc.enable()
        if number >= warmup:
            seconds.append(closed - opened)
    return statistics.median(seconds), {method: total / rounds for method, total in spent.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="1/10 populations, fewer rounds")
    args = parser.parse_args(argv)
    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    runs = QUICK_RUNS if args.quick else RUNS
    print(
        f"Telemetry overhead: median cycle per mode, seed {SEED}, "
        f"{runs} alternating runs x {rounds} cycles{' (quick)' if args.quick else ''}\n"
    )
    print(
        "| shape | default ms | no_freshness ms | no_registry ms "
        "| default over no_freshness | default over no_registry |"
    )
    print("|---|---|---|---|---|---|")
    tracker_rows = []
    for name in SHAPES:
        medians: dict[str, list[float]] = {mode: [] for mode in MODES}
        spent: list[dict] = []
        for _ in range(runs):
            for mode in MODES:
                median, methods = run_mode(name, mode, rounds, args.quick)
                medians[mode].append(median)
                if methods:
                    spent.append(methods)
        cycle = {mode: statistics.median(values) for mode, values in medians.items()}
        base = cycle["default"]
        print(
            f"| {name} | {base * 1e3:.1f} | {cycle['no_freshness'] * 1e3:.1f} "
            f"| {cycle['no_registry'] * 1e3:.1f} "
            f"| {base / cycle['no_freshness'] - 1:+.1%} "
            f"| {base / cycle['no_registry'] - 1:+.1%} |"
        )
        sys.stdout.flush()
        per_method = {m: statistics.median(run[m] for run in spent) for m in TRACKER_METHODS}
        total = statistics.median(sum(run.values()) for run in spent)
        tracker_rows.append((name, total, total / base, per_method))
    print(
        f"\nFreshness tracker time per cycle (default mode, perf_counter around "
        f"each public method, median of {runs} runs; budget {BUDGET:.0%} of the cycle)\n"
    )
    print("| shape | tracker ms | share of cycle | within budget | ms per method |")
    print("|---|---|---|---|---|")
    for name, total, share, per_method in tracker_rows:
        methods = ", ".join(
            f"{method} {ms * 1e3:.2f}"
            for method, ms in sorted(per_method.items(), key=lambda item: -item[1])
            if ms >= 5e-6
        )
        verdict = "yes" if share <= BUDGET else "no"
        print(f"| {name} | {total * 1e3:.2f} | {share:.1%} | {verdict} | {methods} |")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
