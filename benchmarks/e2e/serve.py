"""Launcher for the server side of the wire workloads.

Runs ``repro.service.__main__.main`` unchanged, after three things only
a process-local helper can do: print the resident size *before* the
server object exists (the baseline ``peak_rss_mb`` subtracts), switch
the cyclic garbage collector off (``config.GC_POLICY`` says why), and —
when asked with ``--e2e-trace PATH`` — wrap the layers' public callables
with the benchmark's span recorder and dump the spans on the way out.

Everything else on the command line goes to ``python -m repro.service``.
"""

from __future__ import annotations

import gc
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import tracing  # noqa: E402

BASELINE_PREFIX = "e2e-serve baseline_rss_kb="

_SERVER = "repro.core.server:LocationAwareServer"
#: ``(class path, attribute, span name)`` — one span per call.
SERVICE_SPANS = (
    ("repro.service.runtime:ServiceRuntime", "run_cycle", "service.run_cycle"),
    ("repro.service.session:ClientSession", "flush_link", "service.flush_link"),
    (_SERVER, "evaluate_cycle", "server.evaluate_cycle"),
    ("repro.core.engine:IncrementalEngine", "evaluate", "engine.evaluate"),
)
#: Per-op uplink entry points — leaves, one span per run of calls.  The
#: per-line protocol functions are measured by ``probes.protocol``.
SERVICE_LEAF_SPANS = tuple(
    (_SERVER, attr, "server.uplink_apply")
    for attr in (
        "receive_object_report",
        "receive_range_query_move",
        "receive_knn_query_move",
        "receive_predictive_query_move",
        "receive_commit",
    )
)


def install_service_spans(recorder: tracing.SpanRecorder) -> None:
    from importlib import import_module

    def owner_of(path: str) -> type:
        module, _, cls = path.partition(":")
        return getattr(import_module(module), cls)

    for path, attr, name in SERVICE_SPANS:
        recorder.wrap(owner_of(path), attr, name, starts_cycle=(attr == "run_cycle"))
    for path, attr, name in SERVICE_LEAF_SPANS:
        recorder.wrap_leaf(owner_of(path), attr, name)


def _terminate(signum, frame):
    # Stop the way Ctrl-C does: ``asyncio.run`` cancels the serve task on
    # SIGINT, the runtime closes its sessions, ``main`` returns.
    signal.raise_signal(signal.SIGINT)


def main(argv: list[str]) -> int:
    trace_path = None
    if argv and argv[0] == "--e2e-trace":
        trace_path, argv = Path(argv[1]), argv[2:]

    from repro.service.__main__ import main as service_main

    recorder = None
    if trace_path is not None:
        recorder = tracing.SpanRecorder()
        install_service_spans(recorder)
    signal.signal(signal.SIGTERM, _terminate)
    gc.disable()
    print(f"{BASELINE_PREFIX}{measure.rss_kb()}", flush=True)
    try:
        return service_main(argv)
    finally:
        if recorder is not None:
            tracing.dump(trace_path, spans=recorder.rows())


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
