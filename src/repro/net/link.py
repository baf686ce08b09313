"""Per-client links and aggregate traffic statistics.

Traffic accounting is registry-backed (:mod:`repro.obs`): the familiar
:class:`NetworkStats` surface (``delivered_bytes``, ``by_type``, ...)
is now a view over named counters in a :class:`~repro.obs.MetricsRegistry`,
and every :class:`ClientLink` additionally maintains per-link series
(``link_*_total{client="N"}``) in the same registry — so one Prometheus
scrape shows both the aggregate downlink picture and which client is
dropping messages.
"""

from __future__ import annotations

from collections import Counter as TallyCounter

from repro.net.messages import Message, UpdateMessage
from repro.obs import MetricsRegistry

#: Fault-hook verdicts for one delivery attempt (see
#: :attr:`ClientLink.fault_hook`).  ``DELIVER`` is the no-fault path;
#: ``DROP`` loses the message on the wire; ``DUPLICATE`` delivers it
#: twice back to back; ``REORDER`` lets it overtake the previous inbox
#: message *if* they belong to different queries (per-query FIFO is a
#: protocol requirement — the commit/recovery machinery assumes a
#: client applies one query's updates in emission order — so same-qid
#: reordering is never injected).
DELIVER = "deliver"
DROP = "drop"
DUPLICATE = "duplicate"
REORDER = "reorder"

FAULT_ACTIONS = (DELIVER, DROP, DUPLICATE, REORDER)


class NetworkStats:
    """Aggregate traffic counters (downstream delivery plus uplink).

    Owns a private :class:`MetricsRegistry` unless one is injected —
    each server stack keeps its own series, and callers that want one
    process-wide pipe pass :func:`repro.obs.default_registry`.
    """

    __slots__ = (
        "registry",
        "_delivered_bytes",
        "_dropped_bytes",
        "_delivered_messages",
        "_dropped_messages",
        "_uplink_bytes",
        "_uplink_messages",
        "_by_kind",
    )

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        counter = self.registry.counter
        self._delivered_bytes = counter("net_delivered_bytes_total")
        self._dropped_bytes = counter("net_dropped_bytes_total")
        self._delivered_messages = counter("net_delivered_messages_total")
        self._dropped_messages = counter("net_dropped_messages_total")
        self._uplink_bytes = counter("net_uplink_bytes_total")
        self._uplink_messages = counter("net_uplink_messages_total")
        # (prefix, message class) -> its net_messages_total{type} handle,
        # resolved on first use: the series exist only for kinds seen.
        self._by_kind: dict[tuple[str, type], object] = {}

    # -- recording -----------------------------------------------------

    def record(self, message: Message, delivered: bool) -> None:
        if delivered:
            self._delivered_bytes.inc(message.size_bytes)
            self._delivered_messages.inc()
            self._tally("", type(message))
        else:
            self._dropped_bytes.inc(message.size_bytes)
            self._dropped_messages.inc()
            self._tally("dropped:", type(message))

    def record_delivered_updates(self, count: int) -> None:
        """Account ``count`` delivered :class:`UpdateMessage`\\ s at once."""
        self._delivered_bytes.inc(count * UpdateMessage.size_bytes)
        self._delivered_messages.inc(count)
        self._tally("", UpdateMessage, count)

    def record_uplink(self, kind: type[Message]) -> None:
        """Account one client-to-server message (reports, moves,
        commits) by its class — every uplink kind is fixed-width, so
        the hot uplink path builds no message object."""
        self._uplink_bytes.inc(kind.size_bytes)
        self._uplink_messages.inc()
        self._tally("uplink:", kind)

    def _tally(self, prefix: str, kind: type, count: int = 1) -> None:
        handle = self._by_kind.get((prefix, kind))
        if handle is None:
            handle = self._by_kind[prefix, kind] = self.registry.counter(
                "net_messages_total",
                labels={"type": prefix + kind.__name__},
            )
        handle.inc(count)

    # -- the legacy read surface (snapshot views over the counters) ----

    @property
    def delivered_bytes(self) -> int:
        return int(self._delivered_bytes.value)

    @property
    def dropped_bytes(self) -> int:
        return int(self._dropped_bytes.value)

    @property
    def delivered_messages(self) -> int:
        return int(self._delivered_messages.value)

    @property
    def dropped_messages(self) -> int:
        return int(self._dropped_messages.value)

    @property
    def uplink_bytes(self) -> int:
        return int(self._uplink_bytes.value)

    @property
    def uplink_messages(self) -> int:
        return int(self._uplink_messages.value)

    @property
    def by_type(self) -> TallyCounter:
        """Per-message-kind tallies, rebuilt from the registry series."""
        tally: TallyCounter = TallyCounter()
        for instrument in self.registry.families().get("net_messages_total", []):
            tally[instrument.labels["type"]] = int(instrument.value)
        return tally


class ClientLink:
    """The downstream channel to one client.

    While disconnected, messages are *lost*, not queued — the paper's
    out-of-sync problem exists precisely because a cheap passive device
    misses whatever the server sent during the outage.  The link records
    what was lost only for accounting: per-link delivered/dropped
    message and byte counters plus a queued-depth gauge, all labelled
    ``client="<id>"`` in the owning stats registry.

    Two injectable hooks support the fault/consistency tooling:

    * ``fault_hook(link, message) -> action`` decides the fate of each
      delivery attempt (one of :data:`FAULT_ACTIONS`); ``None`` means
      no faults.  Faults apply only while connected — a disconnected
      link loses everything regardless.
    * ``delivery_observer(client_id, message, delivered)`` is called
      once per wire outcome (including each duplicate copy), letting
      the consistency oracle mirror exactly what the client will see
      without draining the inbox.
    """

    #: Downstream bytes per evaluation cycle; ``None`` is unmetered
    #: (:class:`~repro.net.ThrottledLink` sets a budget).
    budget_bytes_per_cycle: int | None = None

    def __init__(self, client_id: int, stats: NetworkStats | None = None):
        self.client_id = client_id
        self.connected = True
        self.stats = stats if stats is not None else NetworkStats()
        self.fault_hook = None
        self.delivery_observer = None
        self._inbox: list[Message] = []
        registry = self.stats.registry
        labels = {"client": str(client_id)}
        self._m_delivered = registry.counter(
            "link_delivered_messages_total", labels=labels
        )
        self._m_delivered_bytes = registry.counter(
            "link_delivered_bytes_total", labels=labels
        )
        self._m_dropped = registry.counter(
            "link_dropped_messages_total", labels=labels
        )
        self._m_dropped_bytes = registry.counter(
            "link_dropped_bytes_total", labels=labels
        )
        self._m_queued = registry.gauge("link_queued_messages", labels=labels)
        self._m_connected = registry.gauge("link_connected", labels=labels)
        self._m_connected.set(1.0)

    def disconnect(self) -> None:
        self.connected = False
        self._m_connected.set(0.0)

    def reconnect(self) -> None:
        self.connected = True
        self._m_connected.set(1.0)

    def deliver(self, message: Message) -> bool:
        """Send ``message``; returns whether the client received it."""
        action = DELIVER
        if self.connected and self.fault_hook is not None:
            action = self.fault_hook(self, message)
        if not self.connected or action == DROP:
            self.stats.record(message, delivered=False)
            self._m_dropped.inc()
            self._m_dropped_bytes.inc(message.size_bytes)
            # Refresh the queue-depth gauge on every outcome: a client
            # that disconnects mid-cycle must not export the stale depth
            # of its last successful delivery until the next drain.
            self._m_queued.set(len(self._inbox))
            self._notify(message, False)
            return False
        self._accept(message, reorder=(action == REORDER))
        if action == DUPLICATE:
            self._accept(message, reorder=False)
        self._m_queued.set(len(self._inbox))
        return True

    def deliver_updates(self, qids, oids, signs) -> list[bool] | None:
        """Send one cycle's slice of the update stream — aligned
        ``qid``/``oid``/``sign`` columns, in stream order.

        Returns ``None`` when the client received every update, else
        the per-update :meth:`deliver` verdicts.  A connected, unhooked,
        unmetered link has nothing to decide per message, so it takes
        the whole slice in one inbox extend with the accounting done
        arithmetically; any other link goes through :meth:`deliver`
        one message at a time, so fault hooks, delivery observers and
        byte budgets see exactly the calls they always saw.
        """
        messages = map(UpdateMessage, qids, oids, signs)
        if (
            self.connected
            and self.fault_hook is None
            and self.delivery_observer is None
            and self.budget_bytes_per_cycle is None
        ):
            count = len(qids)
            self._inbox.extend(messages)
            self.stats.record_delivered_updates(count)
            self._m_delivered.inc(count)
            self._m_delivered_bytes.inc(count * UpdateMessage.size_bytes)
            self._m_queued.set(len(self._inbox))
            return None
        return list(map(self.deliver, messages))

    def _accept(self, message: Message, reorder: bool) -> None:
        """Put one delivered copy in the inbox, with full accounting."""
        self.stats.record(message, delivered=True)
        self._m_delivered.inc()
        self._m_delivered_bytes.inc(message.size_bytes)
        inbox = self._inbox
        if reorder and inbox and self._reorderable(inbox[-1], message):
            inbox.insert(len(inbox) - 1, message)
        else:
            inbox.append(message)
        self._notify(message, True)

    @staticmethod
    def _reorderable(previous: Message, message: Message) -> bool:
        """Cross-query overtaking only: per-query FIFO is load-bearing."""
        prev_qid = getattr(previous, "qid", None)
        qid = getattr(message, "qid", None)
        return prev_qid is not None and qid is not None and prev_qid != qid

    def _notify(self, message: Message, delivered: bool) -> None:
        if self.delivery_observer is not None:
            self.delivery_observer(self.client_id, message, delivered)

    def drain(self) -> list[Message]:
        """Messages received since the last drain (the client's mailbox)."""
        received = self._inbox
        self._inbox = []
        self._m_queued.set(0.0)
        return received
