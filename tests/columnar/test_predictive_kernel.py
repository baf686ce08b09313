"""The vectorized predictive-membership pass must be bit-identical to
the scalar :func:`repro.check.reference.predicted_in_region` verdict on
every lane.

The kernel replicates the scalar float sequence (displacement, then
Liang–Barsky slab clipping in the same edge order), so agreement must
hold exactly — including stationary objects, empty windows, boundary
grazes, and trajectories that are parallel to a slab.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.check.reference import predicted_in_region
from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity


def predicted_inside(engine, oids, region, horizon):
    """The array slab test over ``oids``' store rows, one verdict each."""
    rows = np.array([engine._ostore.row_of(oid) for oid in oids])
    bounds = (region.min_x, region.min_y, region.max_x, region.max_y)
    return engine._columnar_evaluator._inside_rows(
        rows, bounds, engine.now, horizon, engine.prediction_horizon
    ).tolist()


def build_engine(seed: int, n_objects: int = 120):
    rng = random.Random(seed)
    engine = IncrementalEngine(grid_size=8, prediction_horizon=30.0)
    for oid in range(n_objects):
        velocity = Velocity.ZERO
        roll = rng.random()
        if roll < 0.5:
            velocity = Velocity(rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1))
        elif roll < 0.6:
            # Axis-parallel motion: exercises the p == 0 slab branch.
            velocity = Velocity(rng.uniform(-0.1, 0.1), 0.0)
        engine.report_object(
            oid,
            Point(rng.random(), rng.random()),
            rng.uniform(0.0, 2.0),
            velocity,
        )
    engine.evaluate(2.0)
    return engine, rng


@pytest.mark.parametrize("seed", range(10))
def test_matches_scalar_on_random_motions(seed):
    engine, rng = build_engine(seed)
    oids = sorted(engine.objects)
    for _ in range(8):
        x, y = rng.random(), rng.random()
        region = Rect(x, y, x + rng.uniform(0.0, 0.4), y + rng.uniform(0.0, 0.4))
        horizon = rng.choice([0.0, 1.0, 10.0, 50.0])

        class _Q:
            pass

        query = _Q()
        query.region = region
        query.horizon = horizon
        flags = predicted_inside(engine, oids, region, horizon)
        assert flags is not None and len(flags) == len(oids)
        for oid, got in zip(oids, flags):
            state = engine.objects[oid]
            want = predicted_in_region(query, state, engine.now, engine.prediction_horizon)
            assert got == want, (oid, state, region, horizon)


def test_boundary_grazing_lanes_match_scalar():
    engine = IncrementalEngine(grid_size=8, prediction_horizon=30.0)
    region = Rect(0.25, 0.25, 0.75, 0.75)
    cases = [
        # Stationary on the boundary corner: closed containment.
        (Point(0.25, 0.25), Velocity.ZERO),
        # Stationary just outside.
        (Point(0.249999, 0.25), Velocity.ZERO),
        # Slides along the min_x edge (parallel slab, inside).
        (Point(0.25, 0.1), Velocity(0.0, 0.05)),
        # Heads straight at the region and just reaches the edge.
        (Point(0.0, 0.5), Velocity(0.0125, 0.0)),
        # Moves away from the region.
        (Point(0.2, 0.5), Velocity(-0.1, 0.0)),
        # Report in the future relative to the window start.
        (Point(0.5, 0.5), Velocity(0.1, 0.1)),
    ]
    for oid, (location, velocity) in enumerate(cases):
        engine.report_object(oid, location, 0.0, velocity)
    engine.evaluate(0.0)
    oids = sorted(engine.objects)
    for horizon in (0.0, 5.0, 20.0, 100.0):

        class _Q:
            pass

        query = _Q()
        query.region = region
        query.horizon = horizon
        flags = predicted_inside(engine, oids, region, horizon)
        for oid, got in zip(oids, flags):
            state = engine.objects[oid]
            want = predicted_in_region(query, state, engine.now, engine.prediction_horizon)
            assert got == want, (oid, horizon)


def refused(engine, oid, location, t, vx, vy):
    """Both report doors refuse the report and buffer nothing."""
    engine.report_object(9, Point(0.5, 0.5), 0.0)
    engine.remove_object(9)
    before = (dict(engine._pending_reports), set(engine._pending_removals))
    with pytest.raises(ValueError, match=f"object {oid} reported a trajectory"):
        engine.report_object(oid, location, t, Velocity(vx, vy))
    with pytest.raises(ValueError, match=f"object {oid} reported a trajectory"):
        engine.report_objects(
            [1, oid], [0.5, location.x], [0.5, location.y], [0.0, vx], [0.0, vy], [t, t]
        )
    assert (dict(engine._pending_reports), set(engine._pending_removals)) == before


def test_an_overflowing_trajectory_is_refused_at_both_doors():
    """At y = 1e308 one second later, an object reported at (0, 0) with
    ``vy = 1e308`` would make the slab test's ``q / p`` a ``-0.0`` and
    join a predictive query at the point (0, 0) — so it is refused."""
    engine = IncrementalEngine(grid_size=8, prediction_horizon=30.0)
    refused(engine, 100, Point(0.0, 0.0), 0.0, 0.0, 1e308)
    refused(engine, 101, Point(0.4, 0.1), -5.0, -1e308, 1e308)
    # The reach is measured from the clamped location: 1e307 past the
    # world's far edge is inside the floats, so it is accepted.
    engine.report_object(102, Point(7.0, 0.5), 0.0, Velocity(1e307 / 30.0, 0.0))
    assert 102 in engine._pending_reports


def test_the_refusal_measures_the_span_the_engine_extrapolates():
    """``(t + H) - t`` rounds above ``H`` late in time; the door measures
    that span, so a report whose footprint or flip time would overflow
    is refused even where ``y + vy * H`` alone is finite."""
    horizon = 30.0
    t = 1e17  # (t + 30) - t == 32
    vy = 1.79e308 / 31.0
    assert math.isfinite(0.5 + vy * horizon)
    assert (t + horizon) - t == 32.0
    engine = IncrementalEngine(grid_size=8, prediction_horizon=horizon)
    refused(engine, 7, Point(0.5, 0.5), t, 0.0, vy)
    engine.report_object(8, Point(0.5, 0.5), 0.0, Velocity(0.0, vy))
    assert 8 in engine._pending_reports
