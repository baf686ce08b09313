"""Bandwidth-limited delivery.

The paper's fourth challenge: "Sending the whole answer each time
consumes the network bandwidth and results in network congestion at the
server side, thus degrading the ability of the server to process more
queries."  A :class:`ThrottledLink` models the constrained downlink: a
per-cycle byte budget, messages beyond it dropped (the satellite slot is
gone — there is no queueing for stale location data).  The congestion
benchmark measures how much of each server's output actually fits.

What a link lost to its budget is counted on the link
(``throttled_messages`` / ``throttled_bytes``, plain ints like the base
link's counters) and, fleet-wide, in ``net_throttled_messages_total`` /
``net_throttled_bytes_total``; no series is kept per client.
"""

from __future__ import annotations

from repro.net.link import ClientLink, NetworkStats
from repro.net.messages import Message


class ThrottledLink(ClientLink):
    """A client link with a per-cycle downstream byte budget."""

    __slots__ = (
        "budget_bytes_per_cycle",
        "_spent_this_cycle",
        "throttled_messages",
        "throttled_bytes",
    )

    def __init__(
        self,
        client_id: int,
        budget_bytes_per_cycle: int,
        stats: NetworkStats | None = None,
    ):
        if budget_bytes_per_cycle <= 0:
            raise ValueError(
                f"budget must be positive, got {budget_bytes_per_cycle}"
            )
        super().__init__(client_id, stats)
        self.budget_bytes_per_cycle = budget_bytes_per_cycle
        self._spent_this_cycle = 0
        self.throttled_messages = 0
        self.throttled_bytes = 0

    @property
    def remaining_budget(self) -> int:
        return max(0, self.budget_bytes_per_cycle - self._spent_this_cycle)

    def new_cycle(self) -> None:
        """Start a fresh evaluation period: the budget resets."""
        self._spent_this_cycle = 0

    def deliver(self, message: Message) -> bool:
        """Deliver within budget; over-budget messages are lost.

        Throttled messages are recorded separately from disconnection
        drops so the congestion benchmark can tell the two apart.  The
        budget is charged only when the base link *accepts* the
        delivery: a message lost to disconnection or an injected fault
        never occupied the wire slot, so it must not starve the
        in-cycle messages that follow it.
        """
        if message.size_bytes > self.remaining_budget:
            self.throttled_messages += 1
            self.throttled_bytes += message.size_bytes
            self.stats.record_throttled(message)
            self._notify(message, False)
            return False
        delivered = super().deliver(message)
        if delivered:
            self._spent_this_cycle += message.size_bytes
        return delivered
