"""The per-layer metric catalogue (layer = module of ``src/repro``).

``BENCHMARK.json``'s ``per_layer`` list is this table; the self-test
holds the two together.  A traced run reports every name — ``0.0``
where the workload does not reach the layer (the "flat on" column of
the README's map).

Seconds are *means per timed cycle*, not medians: means add up, so the
layer rows sum to the traced window and ``engine.unattributed_s`` is an
honest remainder.
"""

from __future__ import annotations

#: name -> (unit, better)
LAYER_METRICS: dict[str, tuple[str, str]] = {
    # repro.service, seen from the driver's end of the socket
    "service.uplink_phase_s": ("s", "lower"),
    "service.tick_s": ("s", "lower"),
    "service.downlink_phase_s": ("s", "lower"),
    # repro.service, spans inside the server process
    "service.run_cycle_s": ("s", "lower"),
    "service.run_cycle_self_s": ("s", "lower"),
    "service.flush_s": ("s", "lower"),
    # repro.service.protocol probes
    "service.decode_us_per_op": ("us", "lower"),
    "service.encode_us_per_msg": ("us", "lower"),
    "service.hello_per_s": ("1/s", "higher"),
    "service.scrape_s": ("s", "lower"),
    "service.scrape_bytes": ("B", "lower"),
    "obs.series_count": ("count", "lower"),
    "service.uplink_lines": ("count", "lower"),
    "service.downlink_lines": ("count", "lower"),
    # repro.core.server
    "server.uplink_apply_s": ("s", "lower"),
    "server.evaluate_cycle_s": ("s", "lower"),
    "server.downlink_self_s": ("s", "lower"),
    "server.ship_us_per_update": ("us", "lower"),
    "server.updates_delivered": ("count", "lower"),
    # repro.core.engine / repro.columnar
    "engine.updates_emitted": ("count", "lower"),
    "engine.evaluate_s": ("s", "lower"),
    "engine.ingest_s": ("s", "lower"),
    "engine.plan_s": ("s", "lower"),
    "engine.join_s": ("s", "lower"),
    "engine.emit_s": ("s", "lower"),
    "engine.knn_repair_s": ("s", "lower"),
    "engine.predictive_refresh_s": ("s", "lower"),
    "engine.query_moves_s": ("s", "lower"),
    "engine.unattributed_s": ("s", "lower"),
    "engine.report_us_per_report": ("us", "lower"),
    # repro.net
    "net.delivered_bytes": ("B", "lower"),
    "net.deliver_us_per_msg": ("us", "lower"),
    # resident memory, by what it is held for
    "mem.bytes_per_client": ("B", "lower"),
    "mem.bytes_per_object": ("B", "lower"),
    "mem.bytes_per_query": ("B", "lower"),
    "mem.growth_kb_per_cycle": ("KiB", "lower"),
    # the driver's own work, all outside the window
    "loadgen.gen_s": ("s", "lower"),
    "loadgen.encode_s": ("s", "lower"),
    "loadgen.fold_s": ("s", "lower"),
    # attribution quality and the shape of the window
    "trace.coverage": ("ratio", "higher"),
    "e2e.cycle_tail_s": ("s", "lower"),
    "e2e.cycle_iqr_s": ("s", "lower"),
}

#: Per-cycle seconds read from the program's own counters — counts made
#: by the program (``source: program-counter``): stale if a later PR
#: moves or renames the counter, in which case they read 0.
PROGRAM_COUNTERS: dict[str, tuple[str, dict[str, str] | None]] = {
    "engine.ingest_s": ("engine_ingest_seconds_total", None),
    "engine.plan_s": ("engine_columnar_phase_seconds_total", {"phase": "plan"}),
    "engine.join_s": ("engine_columnar_phase_seconds_total", {"phase": "join"}),
    "engine.emit_s": ("engine_columnar_phase_seconds_total", {"phase": "emit"}),
    "engine.knn_repair_s": ("engine_phase_seconds_total", {"phase": "knn_repair"}),
    "engine.predictive_refresh_s": (
        "engine_phase_seconds_total",
        {"phase": "predictive_refresh"},
    ),
    "engine.query_moves_s": ("engine_phase_seconds_total", {"phase": "query_moves"}),
}


#: Counts read the same way; exact for a seed.
PROGRAM_COUNTS: dict[str, tuple[str, dict[str, str] | None]] = {
    "net.delivered_bytes": ("net_delivered_bytes_total", None),
}


def read_program_counters(value_of) -> dict[str, float]:
    """Snapshot every program counter through ``value_of(name, labels)``."""
    return {
        metric: value_of(name, labels)
        for metric, (name, labels) in (PROGRAM_COUNTERS | PROGRAM_COUNTS).items()
    }


def series_count(exposition: str) -> int:
    """Sample lines in one Prometheus text body."""
    return sum(
        1 for line in exposition.splitlines() if line and not line.startswith("#")
    )


def scrape_value_of(text: str):
    """A ``value_of`` over one ``/metrics`` body (0.0 for a missing series)."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            series, _, value = line.rpartition(" ")
            samples[series] = float(value)

    def value_of(name: str, labels: dict[str, str] | None) -> float:
        if labels:
            rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
            name = f"{name}{{{rendered}}}"
        return samples.get(name, 0.0)

    return value_of


def fill(metrics: dict[str, float]) -> dict[str, float]:
    """Every catalogue name, in catalogue order, ``0.0`` where unmeasured."""
    unknown = set(metrics) - set(LAYER_METRICS)
    if unknown:
        raise KeyError(f"layer metrics missing from the catalogue: {sorted(unknown)}")
    return {name: float(metrics.get(name, 0.0)) for name in LAYER_METRICS}
