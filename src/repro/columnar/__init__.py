"""Columnar (struct-of-arrays) stores and batch kernels.

The ``pipeline="columnar"`` evaluation core: object and query state
mirrored into parallel arrays (:mod:`repro.columnar.store`), batch
kernels for the cell-range join and cohort membership classification
(:mod:`repro.columnar.kernels`), orchestrated per evaluation by
:class:`~repro.columnar.evaluate.ColumnarEvaluator` — which also runs
the query side of a cycle (range moves, k-NN repair, predictive refresh)
as array passes over one home-cell CSR of the object store.  Kernels
run on numpy.
"""

from repro.columnar.evaluate import ColumnarEvaluator
from repro.columnar.ingest import BatchIngest
from repro.columnar.kernels import PairPlan, classify_transitions
from repro.columnar.store import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarObjectStore,
    ColumnarQueryStore,
)

__all__ = [
    "BatchIngest",
    "ColumnarEvaluator",
    "ColumnarObjectStore",
    "ColumnarQueryStore",
    "KIND_KNN",
    "KIND_PREDICTIVE",
    "KIND_RANGE",
    "PairPlan",
    "classify_transitions",
]
