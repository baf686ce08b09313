"""Self-test of the harness's own arithmetic — no program under test.

Run explicitly (tier-1 collects ``tests/`` only)::

    python3 benchmarks/e2e/selftest.py
"""

from __future__ import annotations

import json

import config
import layers
import measure
import tracing
import workloads


def span(name, start, end, parent=-1, cycle=1):
    return {"name": name, "start": start, "end": end, "parent": parent, "cycle": cycle}


def check_self_times() -> None:
    # cycle [0, 10] ── evaluate [1, 7] ── join [2, 4], emit [3.5, 6] (overlap)
    #              └── flush [8, 12] (runs past its parent: clipped to 10)
    spans = [
        span("cycle", 0.0, 10.0),
        span("evaluate", 1.0, 7.0, parent=0),
        span("join", 2.0, 4.0, parent=1),
        span("emit", 3.5, 6.0, parent=1),
        span("flush", 8.0, 12.0, parent=0),
        span("cycle", 20.0, 21.0, cycle=2),
    ]
    own = tracing.self_times(spans)
    assert own == [10.0 - 6.0 - 2.0, 6.0 - 4.0, 2.0, 2.5, 4.0, 1.0], own
    durations = [s["end"] - s["start"] for s in spans]
    assert tracing.per_cycle(spans, durations, [1, 2], "cycle") == [10.0, 1.0]
    assert tracing.per_cycle(spans, own, [1, 2], "cycle") == [2.0, 1.0]
    assert tracing.per_cycle(spans, own, [1], "absent") == [0.0]
    # Everything the trace explains of cycle 1: self times sum to the
    # root's duration plus the part of flush that overran it.
    assert tracing.per_cycle(spans, own, [1]) == [2.0 + 2.0 + 2.0 + 2.5 + 4.0]


def check_recorder() -> None:
    recorder = tracing.SpanRecorder()

    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return self.leaf() + self.leaf() - 1

        def leaf(self):
            return 1

    recorder.wrap(Layer, "outer", "layer.outer", starts_cycle=True)
    recorder.wrap(Layer, "inner", "layer.inner")
    recorder.wrap_leaf(Layer, "leaf", "layer.leaf")
    try:
        assert Layer().outer() == 2
        assert Layer().outer() == 2
    finally:
        recorder.unwrap_all()
    rows = recorder.rows()
    # Two back-to-back leaf calls under one parent fold into one span.
    assert [(r["name"], r["parent"], r["cycle"], r["calls"]) for r in rows] == [
        ("layer.outer", -1, 0, 1), ("layer.inner", 0, 0, 1), ("layer.leaf", 1, 0, 2),
        ("layer.outer", -1, 1, 1), ("layer.inner", 3, 1, 1), ("layer.leaf", 4, 1, 2),
    ], rows
    assert all(r["end"] >= r["start"] for r in rows)
    assert "traced" not in Layer.outer.__qualname__  # unwrapped


def check_tail_rule() -> None:
    assert measure.tail_percentile(10) is None
    assert measure.tail_percentile(39) is None
    assert measure.tail_percentile(40) == 75.0
    assert measure.tail_percentile(150) == 90.0
    assert measure.tail_percentile(200) == 95.0
    assert measure.tail_percentile(1000) == 99.0
    samples = [float(i) for i in range(1, 41)]
    assert measure.percentile(samples, 75.0) == 30.0
    assert sum(s > 30.0 for s in samples) == measure.MIN_BEYOND


def check_generator_is_pure() -> None:
    for name in config.SHAPES:
        shape = config.shape_for(name, quick=True)
        assert workloads.stream_hash(shape, 12) == workloads.stream_hash(shape, 12), name
        assert workloads.stream_hash(shape, 12) != workloads.stream_hash(shape, 13), name


def check_contract_matches_catalogue() -> None:
    contract = json.loads((config.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in contract["per_layer"]}
    assert listed == layers.LAYER_METRICS, set(listed) ^ set(layers.LAYER_METRICS)
    assert [w["name"] for w in contract["workloads"]] == list(config.SHAPES)
    assert contract["paths"] == [str(config.HERE.relative_to(config.REPO_ROOT))]


def main() -> int:
    checks = [
        check_self_times,
        check_recorder,
        check_tail_rule,
        check_generator_is_pure,
        check_contract_matches_catalogue,
    ]
    for check in checks:
        check()
        print(f"ok  {check.__name__}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
