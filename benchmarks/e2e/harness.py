"""One workload run, whatever carries the ops.

The round loop, the answer checks, the layer table and the result
document are the same for both transports; ``inproc.InProcess`` and
``wire.Wire`` supply only what differs — how a server is built, how one
cycle's ops reach it, and where its counters and memory are read.

Load model: closed loop, one cycle outstanding.  A round's ops are
generated and prepared (argument objects built, or lines encoded)
before its window opens, and what came back is folded into per-query
answers after it closes.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import config
import layers
import measure
import probes
import tracing
import verify
from workloads import Workload


@dataclass
class Cycle:
    """What a transport reports about one closed-loop cycle."""

    seconds: float
    #: Cycle number as the span recorder on the server side counts it.
    number: int
    downlink_bytes: int
    delivered: int
    emitted: int
    refused: int
    #: Whatever came back, to be folded after the window.
    received: object
    #: Uplink ops sent (set by the round loop).
    ops: int = 0
    uplink_lines: int = 0
    downlink_lines: int = 0
    #: Driver-side split of the window (wire only).
    phases: dict[str, float] = field(default_factory=dict)


def _checkpoint(transport) -> dict:
    """Memory now and peak, plus the program's counters on a traced run."""
    return {
        "rss_kb": transport.rss_kb(),
        "peak_kb": transport.peak_rss_kb(),
        "counters": transport.program_counters() if transport.trace else {},
    }


@dataclass
class Rounds:
    """What the round loop measured."""

    timed: list[Cycle] = field(default_factory=list)
    #: Checkpoints before the first timed round and after the last
    #: counted one (``shape.min_rounds``): memory and program counters
    #: are read after a fixed number of rounds, not however many fitted.
    before: dict = field(default_factory=dict)
    counted: dict = field(default_factory=dict)
    #: The driver's own seconds, all outside the windows.
    loadgen: dict[str, float] = field(
        default_factory=lambda: dict.fromkeys(
            ("loadgen.gen_s", "loadgen.encode_s", "loadgen.fold_s"), 0.0
        )
    )


def _run_rounds(transport, shape, workload, seconds, fold, tally) -> Rounds:
    """Warm-up rounds, then timed rounds for ``seconds`` and at least
    ``shape.min_rounds``."""
    rounds = Rounds()
    loadgen = rounds.loadgen
    for is_timed in measure.rounds(shape.warmup_rounds, shape.min_rounds, seconds):
        if is_timed and not rounds.before:
            rounds.before = _checkpoint(transport)
        mark = perf_counter()
        ops = workload.next_round()
        loadgen["loadgen.gen_s"] += perf_counter() - mark
        mark = perf_counter()
        prepared = transport.prepare(ops)
        loadgen["loadgen.encode_s"] += perf_counter() - mark

        cycle = transport.cycle(prepared, workload.now)

        mark = perf_counter()
        transport.fold(cycle.received, fold, tally)
        cycle.received = None
        loadgen["loadgen.fold_s"] += perf_counter() - mark
        cycle.ops = len(ops)
        tally.ops(len(ops), cycle.refused)
        if is_timed:
            rounds.timed.append(cycle)
            if len(rounds.timed) == shape.min_rounds:
                rounds.counted = _checkpoint(transport)
    return rounds


def _per_layer(transport, shape, rounds: Rounds, stats: dict) -> dict[str, float]:
    """The layer table of a traced run, from spans, program counters
    and the cycles' own counts."""
    spans = transport.spans()
    timed = rounds.timed
    first = timed[: shape.min_rounds]
    cycles = [c.number for c in timed]
    window_s = sum(c.seconds for c in timed)
    durations = [s["end"] - s["start"] for s in spans]
    own = tracing.self_times(spans)

    def mean_of(name: str, amounts: list[float] = durations) -> float:
        return statistics.fmean(tracing.per_cycle(spans, amounts, cycles, name))

    def count_of(attr: str) -> float:
        return statistics.fmean(getattr(c, attr) for c in first)

    before, counted = rounds.before["counters"], rounds.counted["counters"]
    per_round = {name: (counted[name] - before[name]) / len(first) for name in counted}
    phase_s = {name: per_round[name] for name in layers.PROGRAM_COUNTERS}
    evaluate_s = mean_of("engine.evaluate")
    ship_s = mean_of("server.evaluate_cycle", own)
    shipped = statistics.fmean(c.delivered for c in timed)
    tracing.dump(
        config.OUT_DIR / f"trace_{shape.name}.json",
        workload=shape.name,
        timed_cycles=cycles,
        spans=spans,
    )
    return {
        "service.run_cycle_s": mean_of("service.run_cycle"),
        "service.run_cycle_self_s": mean_of("service.run_cycle", own),
        "service.flush_s": mean_of("service.flush_link"),
        "service.uplink_lines": count_of("uplink_lines"),
        "service.downlink_lines": count_of("downlink_lines"),
        "server.uplink_apply_s": mean_of("server.uplink_apply"),
        "server.evaluate_cycle_s": mean_of("server.evaluate_cycle"),
        "server.downlink_self_s": ship_s,
        "server.ship_us_per_update": ship_s / shipped * 1e6 if shipped else 0.0,
        "server.updates_delivered": count_of("delivered"),
        "engine.updates_emitted": count_of("emitted"),
        "engine.evaluate_s": evaluate_s,
        **phase_s,
        "engine.unattributed_s": evaluate_s - sum(phase_s.values()),
        "net.delivered_bytes": per_round["net.delivered_bytes"],
        "mem.growth_kb_per_cycle": (
            rounds.counted["rss_kb"] - rounds.before["rss_kb"]
        )
        / len(first),
        **rounds.loadgen,
        "trace.coverage": sum(tracing.per_cycle(spans, own, cycles)) / window_s,
        "e2e.cycle_tail_s": stats["tail_s"] or 0.0,
        "e2e.cycle_iqr_s": stats["iqr_s"],
        # Driver-side split of the window (wire only).
        **{
            name: statistics.fmean(c.phases[name] for c in timed)
            for name in timed[0].phases
        },
    }


def run(transport, shape: config.Shape, seed: int, seconds: float) -> dict:
    """Build, warm up, time rounds, check answers, rebuild for ``setup_s``."""
    np = config.require_numpy()
    env = measure.environment(seed, shape)
    trace = transport.trace
    # Probes first, while the heap is still small.
    layer = (
        {**probes.engine_and_link(), **probes.protocol(shape, seed)} if trace else {}
    )
    mark = perf_counter()
    workload = Workload(shape, seed)
    gen_s = perf_counter() - mark
    tally = verify.Tally()
    fold = verify.Fold()

    setup_seconds = [transport.build(workload, fold, tally)]
    rounds = _run_rounds(transport, shape, workload, seconds, fold, tally)
    rounds.loadgen["loadgen.gen_s"] += gen_s

    # -- answers, outside every window ---------------------------------
    tally.bad_stream(fold)
    sample = transport.answer_sample(sorted(workload.queries), random.Random(seed))
    tally.checks(*verify.against_program(fold, sample, transport.answer_of))
    tally.checks(*verify.against_brute_force(np, fold, workload))
    transport.check_invariants(tally)
    if trace:
        layer.update(transport.layer_extras())
    transport.teardown()

    # -- the remaining builds: setup_s is the median of all of them ----
    for _ in range(config.SETUP_REPEATS - 1):
        setup_seconds.append(
            transport.build(Workload(shape, seed), verify.Fold(), tally)
        )
        transport.teardown()

    timed = rounds.timed
    samples = [c.seconds for c in timed]
    stats = measure.window_stats(samples)
    if trace:
        layer.update(_per_layer(transport, shape, rounds, stats))
    return {
        "workload": shape.name,
        "traced": trace,
        "env": env,
        "end_to_end": {
            "setup_s": statistics.median(setup_seconds),
            "cycle_p50_s": stats["p50_s"],
            "reports_per_s": sum(c.ops for c in timed) / sum(samples),
            "downlink_bytes_per_cycle": statistics.fmean(
                c.downlink_bytes for c in timed[: shape.min_rounds]
            ),
            "peak_rss_mb": rounds.counted["peak_kb"] / 1024,
        },
        "per_layer": layers.fill(layer) if trace else {},
        "window": {
            **stats,
            "rounds": len(timed),
            "samples_s": samples,
            "setup_samples_s": setup_seconds,
        },
        **tally.result(),
    }
