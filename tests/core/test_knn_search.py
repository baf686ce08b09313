"""The engine's k-NN search against the brute-force ranking.

``ColumnarEvaluator.knn_ranked`` searches every dirty k-NN query of a
cycle together, given their query-store rows; each query's ranked
``(distance, oid)`` list must equal
:func:`repro.check.reference.knn_answer`'s, distances included.  A
probe row searched here holds no answer, so the search is bounded by
its seed square (a first solve).
"""

import random

import numpy as np
import pytest

from repro.check.reference import knn_answer
from repro.columnar import KIND_KNN
from repro.core import IncrementalEngine
from repro.geometry import Point, Rect

UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def populate(count: int, seed: int, grid_size: int = 12) -> IncrementalEngine:
    rng = random.Random(seed)
    engine = IncrementalEngine(UNIT, grid_size)
    for oid in range(count):
        engine.report_object(oid, Point(rng.random(), rng.random()), 0.0)
    engine.evaluate(0.0)
    return engine


def search(engine: IncrementalEngine, center: Point, k: int) -> list[tuple[float, int]]:
    """The ranked answer of a probe row added to the query store (and
    removed again): no answer, radius 0."""
    qstore = engine._qstore
    row = qstore.add(-1, KIND_KNN, cx=center.x, cy=center.y, k=k)
    try:
        return engine._columnar_evaluator.knn_ranked(np.array([row]))[0]
    finally:
        qstore.remove(-1)


class TestKnnSearch:
    @pytest.mark.parametrize("k", [1, 3, 10, 50])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, k, seed):
        engine = populate(120, seed)
        for center in (Point(0.5, 0.5), Point(0.02, 0.98), Point(0.9, 0.1)):
            assert search(engine, center, k) == knn_answer(center, k, engine.objects)

    def test_population_smaller_than_k(self):
        engine = populate(4, seed=3)
        assert len(search(engine, Point(0.5, 0.5), 10)) == 4

    def test_empty_population(self):
        engine = IncrementalEngine(UNIT, 8)
        assert search(engine, Point(0.5, 0.5), 3) == []

    def test_k_must_be_positive(self):
        engine = populate(5, seed=5)
        with pytest.raises(ValueError, match="k must be positive"):
            engine.register_knn_query(1, Point(0, 0), 0)

    def test_results_sorted_by_distance(self):
        engine = populate(80, seed=6)
        distances = [d for d, __ in search(engine, Point(0.3, 0.3), 12)]
        assert distances == sorted(distances)

    def test_center_outside_world(self):
        engine = populate(40, seed=7)
        center = Point(2.0, 2.0)
        assert search(engine, center, 3) == knn_answer(center, 3, engine.objects)

    def test_tie_break_by_oid(self):
        engine = IncrementalEngine(UNIT, 8)
        # Two objects equidistant from the probe.
        engine.report_object(5, Point(0.4, 0.5), 0.0)
        engine.report_object(2, Point(0.6, 0.5), 0.0)
        engine.evaluate(0.0)
        assert search(engine, Point(0.5, 0.5), 1)[0][1] == 2  # smaller oid wins the tie
