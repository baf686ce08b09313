"""Micro-probes for the per-item functions.

A span around a 3 µs call measures the span.  The functions called once
per report, per line or per update are timed here instead: at least
``CALLS`` calls in one tight loop on scratch objects, garbage collector
off, reported as microseconds per call.
"""

from __future__ import annotations

import gc
from time import perf_counter

from repro.core.engine import IncrementalEngine
from repro.geometry import Point
from repro.net import ClientLink, UpdateMessage
from repro.service.protocol import decode_line, downlink_op, encode

import config
from wire import encode_ops
from workloads import Workload

CALLS = 100_000


def _us_per_call(loop, calls: int) -> float:
    gc.collect()
    gc.disable()
    try:
        started = perf_counter()
        loop()
        return (perf_counter() - started) / calls * 1e6
    finally:
        gc.enable()


def engine_and_link() -> dict[str, float]:
    """``IncrementalEngine.report_object`` on a scratch engine and
    ``ClientLink.deliver`` on a scratch link."""
    engine = IncrementalEngine(**config.engine_kwargs())
    report = engine.report_object
    points = [Point((i % 997) / 997.0, (i % 991) / 991.0) for i in range(CALLS)]

    def report_loop():
        for oid, point in enumerate(points):
            report(oid, point, 1.0)

    link = ClientLink(0)
    deliver = link.deliver
    messages = [UpdateMessage(i % 64, i, 1) for i in range(CALLS)]

    def deliver_loop():
        for message in messages:
            deliver(message)

    return {
        "engine.report_us_per_report": _us_per_call(report_loop, CALLS),
        "net.deliver_us_per_msg": _us_per_call(deliver_loop, CALLS),
    }


def protocol(shape: config.Shape, seed: int) -> dict[str, float]:
    """One cycle's uplink lines through ``decode_line`` and as many
    ``update`` messages through ``encode(downlink_op(m))``, each
    replayed until ``CALLS`` calls are made."""
    uplink_lines = encode_ops(Workload(shape, seed).next_round())
    repeats = -(-CALLS // len(uplink_lines))

    def decode_loop():
        for _ in range(repeats):
            for line in uplink_lines:
                decode_line(line)

    messages = [UpdateMessage(1_000_000 + i % 512, i, 1) for i in range(CALLS)]

    def encode_loop():
        for message in messages:
            encode(downlink_op(message))

    return {
        "service.decode_us_per_op": _us_per_call(
            decode_loop, repeats * len(uplink_lines)
        ),
        "service.encode_us_per_msg": _us_per_call(encode_loop, CALLS),
    }
