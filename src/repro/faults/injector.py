"""Installing a fault plan into a live server stack.

The :class:`FaultInjector` wires one :class:`~repro.faults.FaultPlan`
into every injectable hook the stack exposes — downlink
``link.fault_hook`` and the server's ``uplink_gate`` — and drives the
cycle-level faults (client disconnects and their scheduled wakeups)
from :meth:`begin_cycle`.
Every injected fault increments ``fault_injected_total{kind=...}`` in
the server's registry, so a chaos run can assert both "faults actually
happened" and "the oracle still found nothing".
"""

from __future__ import annotations

from collections import Counter

from repro.core.server import LocationAwareServer
from repro.faults.plan import FaultPlan
from repro.net.link import DELIVER


class FaultInjector:
    """Applies a :class:`FaultPlan` to a server; one injector per run."""

    def __init__(self, server: LocationAwareServer, plan: FaultPlan):
        self.server = server
        self.plan = plan
        self.schedule = plan.schedule()
        self.counts: Counter[str] = Counter()
        #: client_id -> cycle index at which the scheduled wakeup fires.
        self._reconnect_at: dict[int, int] = {}
        self._active = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Hook the plan into every fault surface of the stack."""
        for client_id in self.server.client_ids():
            self.server.link_of(client_id).fault_hook = self._downlink_fault
        self.server.uplink_gate = self._uplink_gate
        self._active = True

    def bind_client(self, client_id: int) -> None:
        """Hook a client that registered after :meth:`install`.

        The live service runtime admits clients while a chaos plan is
        running; each late arrival's downlink joins the same fault
        schedule.  A no-op unless the injector is installed.
        """
        if self._active:
            self.server.link_of(client_id).fault_hook = self._downlink_fault

    def uninstall(self) -> None:
        """Remove every hook and wake any still-dark client.

        After this the stack is fault-free: the convergence phase of a
        chaos run happens on a clean network.
        """
        self._active = False
        for client_id in self.server.client_ids():
            self.server.link_of(client_id).fault_hook = None
        self.server.uplink_gate = None
        for client_id in sorted(self._reconnect_at):
            self.server.receive_wakeup(client_id)
        self._reconnect_at.clear()

    def begin_cycle(self, cycle: int) -> None:
        """Fire the cycle-level faults: scheduled wakeups, then fresh
        disconnects (a client never disconnects and wakes in the same
        cycle)."""
        if not self._active:
            return
        due = [
            client_id
            for client_id, at in self._reconnect_at.items()
            if at <= cycle
        ]
        for client_id in sorted(due):
            del self._reconnect_at[client_id]
            self.server.receive_wakeup(client_id)
        for client_id in self.server.client_ids():
            if client_id in self._reconnect_at:
                continue
            if self.schedule.should_disconnect():
                self.server.link_of(client_id).disconnect()
                self._reconnect_at[client_id] = (
                    cycle + self.plan.reconnect_after
                )
                self._count("disconnect")

    # ------------------------------------------------------------------
    # Hooks (called by the stack, not by users)
    # ------------------------------------------------------------------

    def _downlink_fault(self, link, message) -> str:
        action = self.schedule.downlink_action()
        if action != DELIVER:
            self._count(action)
        return action

    def _uplink_gate(self, kind: str) -> bool:
        if self.schedule.should_delay_uplink():
            self._count("uplink_delay")
            return False
        return True

    def _count(self, kind: str) -> None:
        self.counts[kind] += 1
        self.server.registry.counter(
            "fault_injected_total", labels={"kind": kind}
        ).inc()
        self.server.recorder.record("fault", fault=kind)

    @property
    def total_injected(self) -> int:
        return sum(self.counts.values())
