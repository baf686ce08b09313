"""Admission control and uplink backpressure policy.

The paper's server degrades under congestion by shedding *downlink*
bytes (throttled links); a network-facing runtime must also protect the
*uplink* path — a server that accepts every connection and buffers every
report without bound falls over exactly when it is most loaded.  The
:class:`AdmissionController` is the single policy point:

* **sessions** — at most ``max_sessions`` concurrent connections; the
  surplus connection is told to go away (``reject`` + ``retry_after``)
  before it costs anything.
* **clients** — at most ``max_clients`` registered logical clients
  across all sessions (a mux session may carry thousands).
* **backlog** — at most ``max_backlog`` uplink ops queued per session
  between evaluation cycles; beyond it the op is dropped and the client
  told ``busy`` + ``retry_after`` (bounded queue, reject-with-retry —
  never silent unbounded buffering).  A run of reports is admitted row
  by row: the rows that fit queue, each of the rest gets its ``busy``.

Every verdict is exported: ``service_sessions_active`` /
``service_clients_active`` gauges and the
``service_admission_rejections_total{reason=...}`` counter feed the
``/metrics`` endpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import MetricsRegistry

#: Rejection reasons (the ``reason`` label on the rejection counter).
REASON_SESSIONS = "sessions"
REASON_CLIENTS = "clients"
REASON_BACKPRESSURE = "backpressure"


@dataclass(frozen=True, slots=True)
class AdmissionConfig:
    """Capacity limits for one runtime."""

    max_sessions: int = 1024
    max_clients: int = 200_000
    #: Uplink ops queued per session between cycles before ``busy``.
    max_backlog: int = 65_536
    #: Seconds a rejected/busy client should wait before retrying.
    retry_after: float = 1.0


class AdmissionController:
    """Tracks live capacity and renders admit/reject verdicts."""

    def __init__(self, config: AdmissionConfig, registry: MetricsRegistry):
        self.config = config
        self.sessions_active = 0
        self.clients_active = 0
        self._m_sessions = registry.gauge("service_sessions_active")
        self._m_clients = registry.gauge("service_clients_active")
        self._rejections = {
            reason: registry.counter(
                "service_admission_rejections_total",
                labels={"reason": reason},
            )
            for reason in (
                REASON_SESSIONS,
                REASON_CLIENTS,
                REASON_BACKPRESSURE,
            )
        }

    # -- sessions ------------------------------------------------------

    def admit_session(self) -> bool:
        if self.sessions_active >= self.config.max_sessions:
            self.reject(REASON_SESSIONS)
            return False
        self.sessions_active += 1
        self._m_sessions.set(self.sessions_active)
        return True

    def release_session(self) -> None:
        self.sessions_active = max(0, self.sessions_active - 1)
        self._m_sessions.set(self.sessions_active)

    # -- clients -------------------------------------------------------

    def admit_client(self) -> bool:
        if self.clients_active >= self.config.max_clients:
            self.reject(REASON_CLIENTS)
            return False
        self.clients_active += 1
        self._m_clients.set(self.clients_active)
        return True

    # -- uplink backlog ------------------------------------------------

    def admit_uplinks(self, session_backlog: int, n: int = 1) -> int:
        """``n`` more ops, in order, for a session already holding
        ``session_backlog``: how many of them fit.  Admission is per
        op — the rest are each rejected (and counted) on their own."""
        admitted = min(n, max(0, self.config.max_backlog - session_backlog))
        if admitted < n:
            self.reject(REASON_BACKPRESSURE, n - admitted)
        return admitted

    # -- accounting ----------------------------------------------------

    def reject(self, reason: str, n: int = 1) -> None:
        self._rejections[reason].inc(n)

    def rejection_counts(self) -> dict[str, int]:
        return {
            reason: int(counter.value)
            for reason, counter in self._rejections.items()
        }
