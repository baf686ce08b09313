"""The paper's contribution: scalable incremental continuous-query processing.

Public surface:

* :class:`IncrementalEngine` — shared execution over one grid, emitting
  positive/negative updates (Section 3.1).
* :class:`LocationAwareServer` / :class:`Client` — the engine wrapped in
  transport, persistence and the out-of-sync commit protocol
  (Section 3.3).
* :class:`Update` / :class:`UpdateBatch`, :func:`diff_answers`,
  :func:`apply_updates` — the incremental answer algebra
  (``evaluate()`` returns the struct-of-arrays batch form).
* Query/object state types and the grid k-NN search used for first-time
  answers and repairs.
"""

from repro.core.updates import (
    Update,
    UpdateBatch,
    apply_updates,
    diff_answers,
)
from repro.core.state import (
    KnnQueryState,
    ObjectState,
    PredictiveQueryState,
    QueryKind,
    RangeQueryState,
)
from repro.core.knn import knn_search
from repro.core.engine import DEFAULT_WORLD, IncrementalEngine
from repro.core.commit import CommittedAnswerStore
from repro.core.server import CycleResult, LocationAwareServer
from repro.core.client import Client

__all__ = [
    "Update",
    "UpdateBatch",
    "apply_updates",
    "diff_answers",
    "ObjectState",
    "QueryKind",
    "RangeQueryState",
    "KnnQueryState",
    "PredictiveQueryState",
    "knn_search",
    "IncrementalEngine",
    "DEFAULT_WORLD",
    "CommittedAnswerStore",
    "LocationAwareServer",
    "CycleResult",
    "Client",
]
