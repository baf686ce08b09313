"""What telemetry costs a cycle: the same in-process rounds run three
ways — the default stack, freshness tracking off
(``freshness=NULL_FRESHNESS``) and every metric off
(``registry=NULL_REGISTRY``, which turns freshness off too).

The rounds are the end-to-end benchmark's ``sparse_mixed`` and
``bulk_churn`` op streams (``benchmarks/e2e/workloads.py``), applied
straight to a ``LocationAwareServer``: reports, query moves, one
evaluation, every link drained.  The garbage collector is collected
before and disabled inside each timed cycle.  Modes alternate run by
run so a drift in the box's load lands on all three alike.

It reports; it does not gate (shared CI runners are too noisy for a
few-percent bound)::

    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py            # full shapes
    PYTHONPATH=src python benchmarks/bench_telemetry_overhead.py --quick    # 1/10 populations

The output is a markdown table: the median cycle per mode and the
default mode's overhead over each telemetry-off mode.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))

import config
from workloads import Workload

from repro.core.engine import IncrementalEngine
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.obs import NULL_FRESHNESS, NULL_REGISTRY

SHAPES = ("sparse_mixed", "bulk_churn")
SEED = config.DEFAULT_SEED
#: Timed cycles per run (after the shape's warm-up rounds), full and quick.
ROUNDS, QUICK_ROUNDS = 40, 10
#: Alternating runs per mode; the table reports the median of their medians.
RUNS = 3
#: name -> the engine keywords that select the mode.
MODES = {
    "default": {},
    "no_freshness": {"freshness": NULL_FRESHNESS},
    "no_registry": {"registry": NULL_REGISTRY},
}


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


def run_mode(shape: config.Shape, mode: str, rounds: int) -> float:
    """Median seconds of ``rounds`` timed cycles of a fresh server."""
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
    seconds = []
    for number in range(shape.warmup_rounds + rounds):
        ops = workload.next_round()
        gc.collect()
        gc.disable()
        try:
            opened = perf_counter()
            _apply(server, ops)
            server.evaluate_cycle(workload.now)
            for link in links:
                link.drain()
            closed = perf_counter()
        finally:
            gc.enable()
        if number >= shape.warmup_rounds:
            seconds.append(closed - opened)
    return statistics.median(seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="1/10 populations, fewer rounds")
    args = parser.parse_args(argv)
    rounds = QUICK_ROUNDS if args.quick else ROUNDS
    print(
        f"Telemetry overhead: median cycle per mode, seed {SEED}, "
        f"{RUNS} alternating runs x {rounds} cycles{' (quick)' if args.quick else ''}\n"
    )
    print(
        "| shape | default ms | no_freshness ms | no_registry ms "
        "| default over no_freshness | default over no_registry |"
    )
    print("|---|---|---|---|---|---|")
    for name in SHAPES:
        shape = config.shape_for(name, quick=args.quick)
        medians: dict[str, list[float]] = {mode: [] for mode in MODES}
        for _ in range(RUNS):
            for mode in MODES:
                medians[mode].append(run_mode(shape, mode, rounds))
        cycle = {mode: statistics.median(values) for mode, values in medians.items()}
        base = cycle["default"]
        print(
            f"| {name} | {base * 1e3:.1f} | {cycle['no_freshness'] * 1e3:.1f} "
            f"| {cycle['no_registry'] * 1e3:.1f} "
            f"| {base / cycle['no_freshness'] - 1:+.1%} "
            f"| {base / cycle['no_registry'] - 1:+.1%} |"
        )
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
