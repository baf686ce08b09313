"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from repro.core import IncrementalEngine
from repro.geometry import Point, Rect

UNIT = Rect(0.0, 0.0, 1.0, 1.0)

# ``--hypothesis-profile=soak`` runs every property and state machine
# that does not pin its own example count on ten times the default.
settings.register_profile("soak", max_examples=1000)


@pytest.fixture
def rng() -> random.Random:
    """A deterministic RNG; tests must not depend on global random state."""
    return random.Random(0xC0FFEE)


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
