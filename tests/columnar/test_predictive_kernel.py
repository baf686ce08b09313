"""The vectorized predictive-membership pass must be bit-identical to
the scalar ``_predicted_in_region`` verdict on every lane.

The kernel replicates the scalar float sequence (displacement, then
Liang–Barsky slab clipping in the same edge order), so agreement must
hold exactly — including stationary objects, empty windows, boundary
grazes, and trajectories that are parallel to a slab.
"""

from __future__ import annotations

import random
import warnings

import numpy as np
import pytest

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect, Velocity
from tests.lockstep import EnginePair


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
            want = engine._predicted_in_region(query, engine.objects[oid])
            assert got == want, (oid, engine.objects[oid], region, horizon)


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
            want = engine._predicted_in_region(query, engine.objects[oid])
            assert got == want, (oid, horizon)


def test_an_absurd_finite_velocity_is_silent_and_matches_the_reference():
    """``vx = 1e308`` overflows the swept rectangle and the slab test to
    inf.  Python floats do that silently on the reference path; the
    array passes must too, with the same updates."""
    pair = EnginePair(grid_size=8, prediction_horizon=30.0)
    pair.all("register_predictive_query", 1, Rect(0.2, 0.2, 0.8, 0.8), 10.0)
    pair.all("register_range_query", 2, Rect(0.0, 0.0, 0.6, 0.6))
    pair.all("register_knn_query", 3, Point(0.5, 0.5), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pair.all("report_object", 1, Point(0.5, 0.5), 0.0, Velocity(1e308, 0.0))
        pair.all("report_object", 2, Point(0.4, 0.1), -5.0, Velocity(-1e308, 1e308))
        # Inside the region at the window's start, gone at 1e308 after.
        assert (1, 1, 1) in pair.evaluate(0.0).tuples()
        pair.evaluate(3.0)


def test_an_absurd_velocity_never_waits_for_a_flip():
    """A quiet round schedules the next refresh from the flip time; a
    trajectory that overflows over the trusted span has none to offer
    (the windowed verdict runs on inf arithmetic), so its query must
    refresh every evaluation, as the reference does."""
    pair = EnginePair(grid_size=4, prediction_horizon=30.0)
    pair.all("register_predictive_query", 1, Rect(0.0, 0.0, 0.96875, 0.0), 10.0)
    pair.all("report_object", 0, Point(1.0, 0.0), 0.0, Velocity(-0.0625, 1e308))
    assert not pair.evaluate(0.0)
    assert not pair.evaluate(0.0)
    assert list(pair.evaluate(0.5).tuples()) == [(1, 0, 1)]
