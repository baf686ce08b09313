"""Simulated network between the location-aware server and its clients.

The paper's headline measurement (Figure 5) is the *size of the answer*
shipped downstream: incremental positive/negative updates versus the
complete answer a snapshot server re-sends every period.  This package
pins down a concrete wire encoding for every message type, models
per-client links that can disconnect and reconnect (the out-of-sync
scenario of Section 3.3), and aggregates byte counters for the
benchmarks.

Links carry injectable fault hooks (:data:`FAULT_ACTIONS`) and a
delivery observer so :mod:`repro.faults` can perturb the wire and
:mod:`repro.check` can watch it without changing what clients see.
"""

from repro.net.messages import (
    CommitMessage,
    FullAnswerMessage,
    KnnMoveMessage,
    Message,
    ObjectRemovalMessage,
    ObjectReportMessage,
    QueryRegionMessage,
    UpdateMessage,
    WakeupMessage,
    full_answer_bytes,
)
from repro.net.link import (
    DELIVER,
    DROP,
    DUPLICATE,
    FAULT_ACTIONS,
    REORDER,
    ClientLink,
    Inbox,
    NetworkStats,
)
from repro.net.throttle import ThrottledLink

__all__ = [
    "Message",
    "UpdateMessage",
    "FullAnswerMessage",
    "ObjectReportMessage",
    "ObjectRemovalMessage",
    "QueryRegionMessage",
    "KnnMoveMessage",
    "WakeupMessage",
    "CommitMessage",
    "full_answer_bytes",
    "ClientLink",
    "Inbox",
    "NetworkStats",
    "ThrottledLink",
    "DELIVER",
    "DROP",
    "DUPLICATE",
    "REORDER",
    "FAULT_ACTIONS",
]
