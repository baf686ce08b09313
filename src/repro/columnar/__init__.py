"""Columnar (struct-of-arrays) stores and batch kernels.

The engine's evaluation core: object and query state held in parallel
arrays (:mod:`repro.columnar.store`), the report buffer ingested in a
few array passes (:mod:`repro.columnar.ingest`), and the per-report
join — each reported object against the range queries listed in its
old and new home cells, classified in one kernel pass
(:mod:`repro.columnar.kernels`).  :class:`~repro.columnar.evaluate.ColumnarEvaluator`
runs them as the engine's one range pass per evaluation, and the rest
of the query side (range fills, k-NN repair, predictive refresh) as
array passes over one home-cell CSR of the object store.  Kernels run
on numpy.
"""

from repro.columnar.evaluate import ColumnarEvaluator
from repro.columnar.ingest import ingest_reports
from repro.columnar.kernels import classify_pairs, join_reports
from repro.columnar.store import (
    KIND_KNN,
    KIND_PREDICTIVE,
    KIND_RANGE,
    ColumnarObjectStore,
    ColumnarQueryStore,
)

__all__ = [
    "ColumnarEvaluator",
    "ColumnarObjectStore",
    "ColumnarQueryStore",
    "KIND_KNN",
    "KIND_PREDICTIVE",
    "KIND_RANGE",
    "classify_pairs",
    "ingest_reports",
    "join_reports",
]
