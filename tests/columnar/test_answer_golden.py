"""The columnar answer plane's delta emission against the reference.

The batch ingest scenarios pin report-buffer shapes; these pin the
*emission* side: the :class:`~repro.core.updates.UpdateBatch` stream
spliced together from classification column slices.

Workloads interleave the operations that rewrite answers outside the
report join: object removals between evaluation rounds (negatives found
from the answers themselves), and query moves (range, k-NN, and
predictive reshapes that rewrite whole answers).  Every round holds the
columnar engine to the per-object reference (:mod:`tests.lockstep`);
``check_invariants`` asserts every answer member is a store row.
"""

from __future__ import annotations

from repro.geometry import Point, Rect, Velocity
from tests.columnar.test_ingest_golden import Fleet


def test_removal_interleaved_emission():
    """Removals between rounds: negative deltas and a re-reported oid
    must thread identically through every stream."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(32):
        fleet.all(
            "report_object",
            oid,
            Point((oid % 8) / 8.0 + 0.05, (oid // 8) / 4.0 + 0.05),
            0.0,
        )
    first = fleet.evaluate_and_compare(0.0)
    assert first, "initial population must produce enter updates"

    # Remove members of several answers, move a third of the rest.
    for oid in (2, 9, 17, 26):
        fleet.all("remove_object", oid)
    for oid in range(0, 32, 3):
        if oid not in (2, 9, 17, 26):
            fleet.all("report_object", oid, Point(0.5, 0.5), 1.0)
    second = fleet.evaluate_and_compare(1.0)
    assert any(sign < 0 for _, _, sign in second), (
        "removals must surface as negative updates"
    )

    # Unregister a populated query, re-report a removed oid, and keep
    # churning: the engine must forget qid 2 and treat oid 9 as new.
    fleet.all("unregister_query", 2)
    fleet.all("report_object", 9, Point(0.3, 0.3), 2.0)
    for oid in range(1, 32, 4):
        if oid not in (2, 17, 26):
            fleet.all("report_object", oid, Point(oid / 32.0, 0.85), 2.0)
    third = fleet.evaluate_and_compare(2.0)
    assert all(qid != 2 for qid, _, _ in third), (
        "unregistered query must emit nothing"
    )


def test_query_move_interleaved_emission():
    """Query moves rewrite whole answers; interleaved with object
    reports they rewrite answers from every side in one stream."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(28):
        fleet.all(
            "report_object",
            oid,
            Point((oid % 7) / 7.0 + 0.04, (oid // 7) / 4.0 + 0.04),
            0.0,
            Velocity(0.01, 0.0) if oid % 5 == 0 else Velocity.ZERO,
        )
    fleet.evaluate_and_compare(0.0)

    # Round 1: every query type moves while a handful of objects move.
    fleet.all("move_range_query", 1, Rect(0.55, 0.55, 0.95, 0.95), 1.0)
    fleet.all("move_knn_query", 4, Point(0.15, 0.8), 1.0)
    fleet.all("move_predictive_query", 5, Rect(0.6, 0.0, 0.95, 0.35), 1.0)
    for oid in range(0, 28, 4):
        fleet.all("report_object", oid, Point(0.75, 0.75), 1.0)
    moved = fleet.evaluate_and_compare(1.0)
    assert any(sign < 0 for _, _, sign in moved), (
        "query moves must evict prior members"
    )

    # Round 2: moves chased by removals in the same batch window.
    fleet.all("move_range_query", 3, Rect(0.7, 0.7, 0.8, 0.8), 2.0)
    fleet.all("move_knn_query", 4, Point(0.75, 0.75), 2.0)
    for oid in (0, 4, 8):
        fleet.all("remove_object", oid)
    for oid in range(1, 28, 3):
        if oid not in (4,):
            fleet.all("report_object", oid, Point(oid / 28.0, 0.72), 2.0)
    fleet.evaluate_and_compare(2.0)

    # Round 3: a quiet settle round.
    fleet.evaluate_and_compare(3.0)

