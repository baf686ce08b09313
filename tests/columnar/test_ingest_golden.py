"""The batch ingest kernel, scenario by scenario.

The lock-step state machine (``tests/core/test_lockstep.py``) sweeps
broad workloads; these tests pin the specific report-buffer shapes the
batch ingest kernel (:mod:`repro.columnar.ingest`) special-cases —
brand-new objects, stay-put batches, predictive/stationary transitions
in both directions, boundary-clamped coordinates, and
removal-interleaved batches — against the brute-force reference.
Every round holds the pair to the contract in :mod:`tests.lockstep`,
which includes the production engine's invariants — its answers
holding only store rows, its stored locations inside the world, and its
grid index holding no object.
"""

from __future__ import annotations

from repro.geometry import Point, Rect, Velocity
from tests.lockstep import EnginePair

GRID = 8
HORIZON = 30.0


class Fleet(EnginePair):
    """The production engine and its reference, driven in lockstep."""

    def __init__(self):
        super().__init__(grid_size=GRID, prediction_horizon=HORIZON)

    def evaluate_and_compare(self, now: float) -> list[tuple[int, int, int]]:
        return list(self.evaluate(now).tuples())

    def register_standard_queries(self) -> None:
        # Ranges tiling the middle, a knn probe, and predictive windows.
        self.all("register_range_query", 1, Rect(0.10, 0.10, 0.45, 0.45))
        self.all("register_range_query", 2, Rect(0.40, 0.40, 0.90, 0.90))
        self.all("register_range_query", 3, Rect(0.0, 0.0, 0.125, 0.125))
        self.all("register_knn_query", 4, Point(0.5, 0.5), 3)
        self.all("register_predictive_query", 5, Rect(0.2, 0.2, 0.6, 0.6), 10.0)
        self.all("register_predictive_query", 6, Rect(0.7, 0.1, 0.95, 0.5), 10.0)


def test_new_object_batch():
    """A buffer of brand-new objects: every transition key is (-1, cell)."""
    fleet = Fleet()
    fleet.register_standard_queries()
    fleet.evaluate_and_compare(0.0)
    for oid in range(40):
        fleet.all(
            "report_object", oid, Point((oid % 10) / 10.0, (oid // 10) / 4.0), 1.0
        )
    stream = fleet.evaluate_and_compare(1.0)
    assert stream, "new objects must produce enter updates"


def test_stay_put_batch():
    """Re-reports that keep every object in its home cell still emit a
    correct (possibly empty) delta and leave the index unchanged."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(30):
        fleet.all("report_object", oid, Point(oid / 30.0, 0.3), 0.0)
    fleet.evaluate_and_compare(0.0)
    # Nudge within the same cell (cell width 0.125, nudge 0.001).
    for oid in range(30):
        fleet.all(
            "report_object", oid, Point(oid / 30.0 + 0.001, 0.3), 1.0
        )
    fleet.evaluate_and_compare(1.0)


def test_predictive_to_stationary():
    """Objects with multi-cell predictive footprints dropping to zero
    velocity: the minority branch's multi->point transition."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.5),
            0.0,
            Velocity(0.02, -0.015),
        )
    fleet.evaluate_and_compare(0.0)
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.52),
            1.0,
            Velocity.ZERO,
        )
    fleet.evaluate_and_compare(1.0)


def test_stationary_to_predictive():
    """Stationary objects acquiring velocity: most rows' footprints
    widen from their home cell to a swept rectangle."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(20):
        fleet.all("report_object", oid, Point(0.1 + oid * 0.04, 0.5), 0.0)
    fleet.evaluate_and_compare(0.0)
    for oid in range(20):
        fleet.all(
            "report_object",
            oid,
            Point(0.1 + oid * 0.04, 0.5),
            1.0,
            Velocity(-0.01, 0.02),
        )
    fleet.evaluate_and_compare(1.0)
    # And a mixed follow-up batch: half keep moving, half stop.
    for oid in range(20):
        velocity = Velocity(0.01, 0.0) if oid % 2 else Velocity.ZERO
        fleet.all(
            "report_object",
            oid,
            Point(0.12 + oid * 0.04, 0.52),
            2.0,
            velocity,
        )
    fleet.evaluate_and_compare(2.0)


def test_boundary_clamped_batch():
    """Coordinates on cell edges and outside the world: the batch cell
    kernel must clamp bit-identically to the scalar path."""
    fleet = Fleet()
    fleet.register_standard_queries()
    edge = 0.125  # cell width for GRID=8
    coords = [
        Point(0.0, 0.0),
        Point(1.0, 1.0),
        Point(edge, edge),
        Point(2 * edge, 0.5),
        Point(1.0, 0.0),
        Point(0.0, 1.0),
        Point(3 * edge, 7 * edge),
        Point(0.999999999, 0.5),
    ]
    for oid, p in enumerate(coords):
        fleet.all("report_object", oid, p, 0.0)
    fleet.evaluate_and_compare(0.0)
    # Shift everything exactly one cell; stragglers clamp at the edge.
    for oid, p in enumerate(coords):
        fleet.all(
            "report_object",
            oid,
            Point(min(p.x + edge, 1.0), min(p.y + edge, 1.0)),
            1.0,
        )
    fleet.evaluate_and_compare(1.0)


def test_removal_interleaved_batches():
    """Removals between batches: a removed oid leaves the store, and a
    re-reported one is a brand-new (-1, cell) transition."""
    fleet = Fleet()
    fleet.register_standard_queries()
    for oid in range(24):
        fleet.all("report_object", oid, Point(oid / 24.0, 0.42), 0.0)
    fleet.evaluate_and_compare(0.0)
    for oid in (3, 7, 11):
        fleet.all("remove_object", oid)
    for oid in range(0, 24, 2):  # move the even half (incl. removed "missing")
        if oid not in (3, 7, 11):
            fleet.all("report_object", oid, Point(oid / 24.0, 0.61), 1.0)
    fleet.evaluate_and_compare(1.0)
    # Re-report a removed oid alongside fresh moves.
    fleet.all("report_object", 7, Point(0.3, 0.3), 2.0)
    for oid in range(1, 24, 2):
        if oid not in (3, 11):
            fleet.all("report_object", oid, Point(oid / 24.0, 0.18), 2.0)
    fleet.evaluate_and_compare(2.0)


def test_leaving_a_predictive_footprint_after_a_quiet_round():
    """A stationary member moves, after a quiet round, to a cell
    outside its predictive query's footprint: the refresh still meets
    it through the standing answer and emits its departure."""
    fleet = Fleet()
    fleet.all("register_predictive_query", 1, Rect(0.1, 0.1, 0.2, 0.2), 10.0)
    fleet.all("report_object", 7, Point(0.15, 0.15), 0.0)
    assert fleet.evaluate_and_compare(0.0) == [(1, 7, 1)]
    assert fleet.evaluate_and_compare(1.0) == []
    fleet.all("report_object", 7, Point(0.9, 0.9), 2.0)
    assert fleet.evaluate_and_compare(2.0) == [(1, 7, -1)]
