"""The columnar pipeline's own surface: its batch metrics.

Agreement with the brute-force reference on generated workloads is the
lock-step state machine's job (``tests/core/test_lockstep.py``).
"""

from __future__ import annotations

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect


def test_columnar_emits_batch_metrics():
    engine = IncrementalEngine(grid_size=8)
    # Registered in an earlier batch, so the reports meet it in the join
    # (a query registered in the reports' batch is re-answered instead).
    engine.register_range_query(100, Rect(0.25, 0.25, 0.75, 0.75))
    engine.evaluate(0.0)
    for oid in range(20):
        engine.report_object(oid, Point(oid / 20.0, 0.5), 0.0)
    engine.evaluate(0.0)
    value_of = engine.registry.value_of
    assert value_of("engine_columnar_batches_total") == 1
    # Objects at x in {0.25 .. 0.75} enter the region: 11 changed pairs,
    # each counted in the (larger) candidate-pair total.
    changes = value_of("engine_columnar_changes_total")
    assert changes == 11
    assert value_of("engine_columnar_pairs_total") >= changes

