"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import settings

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect
from repro.obs import freshness

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

# ``--hypothesis-profile=soak`` runs every property and state machine
# that does not pin its own example count on ten times the default.
settings.register_profile("soak", max_examples=1000)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xC0FFEE)


@contextmanager
def tracking_every_query():
    """Freshness trackers built inside track every query: the sample's
    ``SAMPLE_BITS`` patched to 0."""
    with mock.patch.object(freshness, "SAMPLE_BITS", 0):
        yield


@pytest.fixture
def full_tracking():
    """Tests of the per-query attribution rule itself, on small qids
    that the production sample would mostly leave out."""
    with tracking_every_query():
        yield


@pytest.fixture
def engine() -> IncrementalEngine:
    """A small-grid engine over the unit world."""
    return IncrementalEngine(world=UNIT, grid_size=16, prediction_horizon=100.0)


def random_point(rng: random.Random, world: Rect = UNIT) -> Point:
    return Point(
        world.min_x + rng.random() * world.width,
        world.min_y + rng.random() * world.height,
    )


def random_square(rng: random.Random, side: float, world: Rect = UNIT) -> Rect:
    return Rect.square(random_point(rng, world), side)
