"""Per-client links and aggregate traffic statistics.

Accounting is split by what it costs to keep.  A :class:`ClientLink`
counts its own traffic in plain ints (``delivered_messages``,
``delivered_bytes``, ``dropped_messages``, ``dropped_bytes``;
``queued_messages`` is the length of its inbox, ``connected`` a bool),
so a connected client costs a slot, not a set of metric series.
:class:`NetworkStats` exports a *fixed* set of series to the
:class:`~repro.obs.MetricsRegistry` whatever the size of the fleet: the
``net_*_total`` aggregates, ``net_messages_total{type}``, the fleet
gauges ``links_registered`` / ``links_connected`` /
``links_queued_messages`` (kept incrementally on register, connect,
disconnect, accept and drain — never by walking the links), the
throttle totals, and the :data:`WORST_LINKS` links that dropped the
most messages as ``link_worst_dropped_messages{rank}`` +
``link_worst_client_id{rank}`` (refreshed on the drop path only).  No
series is keyed by a client id; one client's detail is read off its
link (the service's ``GET /state?client=N``).

A link's mailbox is an :class:`Inbox`: the ``(Q, ±A)`` tuples it holds
are three aligned int columns, read back as messages only on demand.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from threading import Lock

from repro.net.messages import Message, ObjectReportMessage, UpdateMessage
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

#: How many links — the ones that dropped the most messages — are
#: exported by rank (the ``grid_hot_cell_*{rank}`` shape).
WORST_LINKS = 5


class NetworkStats:
    """Aggregate traffic counters (downstream delivery plus uplink) and
    the fixed-cardinality view of the fleet's links.

    Owns a private :class:`MetricsRegistry` unless one is injected —
    each server stack keeps its own series, and callers that want one
    process-wide pipe pass :func:`repro.obs.default_registry`.
    """

    def __init__(self, registry: MetricsRegistry | None = None):
        self.registry = registry if registry is not None else MetricsRegistry()
        counter, gauge = self.registry.counter, self.registry.gauge
        self._delivered_bytes = counter("net_delivered_bytes_total")
        self._dropped_bytes = counter("net_dropped_bytes_total")
        self._delivered_messages = counter("net_delivered_messages_total")
        self._dropped_messages = counter("net_dropped_messages_total")
        self._uplink_bytes = counter("net_uplink_bytes_total")
        self._uplink_messages = counter("net_uplink_messages_total")
        self._throttled_bytes = counter("net_throttled_bytes_total")
        self._throttled_messages = counter("net_throttled_messages_total")
        self._links_registered = gauge("links_registered")
        self._links_connected = gauge("links_connected")
        self._links_queued = gauge("links_queued_messages")
        # Message class -> its net_messages_total{type} handle, one map
        # per direction, resolved on first use: the series exist only
        # for kinds seen.
        self._delivered_kinds: dict[type, object] = {}
        self._dropped_kinds: dict[type, object] = {}
        self._uplink_kinds: dict[type, object] = {}
        # The links that dropped the most, worst first, and the
        # (dropped, client id) gauge pair of each rank in use.
        self._worst: list[ClientLink] = []
        self._worst_gauges: list[tuple[object, object]] = []
        #: Object reports the per-report door took with no hook
        #: installed: only the reporting thread writes it (one add per report),
        #: and :meth:`settle` folds what it has not yet folded into the
        #: uplink series before any registry read, from whichever thread.
        self.reports_taken = 0
        self._reports_settled = 0
        self._settle_lock = Lock()
        self.registry.on_read(self.settle)

    # -- recording -----------------------------------------------------

    def record(self, message: Message, delivered: bool) -> None:
        if delivered:
            self._delivered_bytes.inc(message.size_bytes)
            self._delivered_messages.inc()
            self._kind(self._delivered_kinds, "", type(message)).inc()
        else:
            self._dropped_bytes.inc(message.size_bytes)
            self._dropped_messages.inc()
            self._kind(self._dropped_kinds, "dropped:", type(message)).inc()

    def record_delivered_updates(self, count: int) -> None:
        """Account ``count`` delivered :class:`UpdateMessage`\\ s at once."""
        self._delivered_bytes.inc(count * UpdateMessage.size_bytes)
        self._delivered_messages.inc(count)
        self._kind(self._delivered_kinds, "", UpdateMessage).inc(count)

    def record_throttled(self, message: Message) -> None:
        """Account a message lost to a link's byte budget: a drop in
        the aggregates, told apart by the throttle totals."""
        self._throttled_bytes.inc(message.size_bytes)
        self._throttled_messages.inc()
        self.record(message, delivered=False)

    def settle(self) -> None:
        """Fold the reports taken since the last settle into the uplink series."""
        with self._settle_lock:
            n = self.reports_taken - self._reports_settled
            if n:
                self._reports_settled += n
                self.record_uplinks(ObjectReportMessage, n)

    def record_uplinks(self, kind: type[Message], n: int) -> None:
        """Account ``n`` client-to-server messages (reports, moves,
        commits, wakeups) of one class — every uplink kind is
        fixed-width, so an uplink run builds no message object.  A
        kind's series exists once a message of it was counted."""
        if not n:
            return
        self._uplink_bytes.inc(n * kind.size_bytes)
        self._uplink_messages.inc(n)
        self._kind(self._uplink_kinds, "uplink:", kind).inc(n)

    def _kind(self, handles: dict, prefix: str, kind: type):
        handle = handles.get(kind)
        if handle is None:
            handle = handles[kind] = self.registry.counter(
                "net_messages_total",
                labels={"type": prefix + kind.__name__},
            )
        return handle

    def rank_dropped(self, link: "ClientLink") -> None:
        """Refresh the worst-links ranking after ``link`` dropped.

        Drop counts only grow, so a link enters the ranking only on its
        own drop: checking the dropping link against the last rank
        keeps the top :data:`WORST_LINKS` exact (ties keep the
        incumbent) without ever walking the fleet.
        """
        worst = self._worst
        if link not in worst:
            if len(worst) == WORST_LINKS:
                if link.dropped_messages <= worst[-1].dropped_messages:
                    return
                worst.pop()
            else:
                labels = {"rank": str(len(worst))}
                gauge = self.registry.gauge
                self._worst_gauges.append(
                    (
                        gauge("link_worst_dropped_messages", labels=labels),
                        gauge("link_worst_client_id", labels=labels),
                    )
                )
            worst.append(link)
        worst.sort(key=lambda ranked: (-ranked.dropped_messages, ranked.client_id))
        for ranked, (dropped, client_id) in zip(worst, self._worst_gauges):
            dropped.set(ranked.dropped_messages)
            client_id.set(ranked.client_id)

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
        return int(self.registry.value_of("net_uplink_bytes_total"))

    @property
    def uplink_messages(self) -> int:
        return int(self.registry.value_of("net_uplink_messages_total"))

    @property
    def by_type(self) -> TallyCounter:
        """Per-message-kind tallies, rebuilt from the registry series."""
        tally: TallyCounter = TallyCounter()
        for instrument in self.registry.families().get("net_messages_total", []):
            tally[instrument.labels["type"]] = int(instrument.value)
        return tally


class Inbox:
    """A link's mailbox as aligned columns.

    Nearly everything a link holds is an update tuple ``(Q, ±A)``, so
    the mailbox *is* three parallel int lists — ``qids``, ``oids``,
    ``signs`` — and the rare other message (a
    :class:`~repro.net.FullAnswerMessage`) sits in the sparse
    ``others`` map ``{position: message}``, its row holding its ``qid``
    and sign ``0``.  Reading is sequence-shaped and lazily materialised
    exactly like :class:`~repro.core.updates.UpdateBatch`: ``len``,
    iteration, indexing and ``==`` against a list build
    :class:`UpdateMessage`\\ s on demand, so code written against
    ``list[Message]`` keeps working, while the wire encoder and the
    slice path touch only the columns.
    """

    __slots__ = ("qids", "oids", "signs", "others")

    def __init__(self, column=list) -> None:
        self.qids = column()
        self.oids = column()
        self.signs = column()
        self.others: dict[int, Message] = {}

    def add(self, message: Message, overtake: bool = False) -> None:
        """Append one message — or, with ``overtake`` (the reorder
        fault), slot it in ahead of the last one if that belongs to a
        different query: per-query FIFO is load-bearing."""
        qids, others = self.qids, self.others
        if type(message) is UpdateMessage:
            qid, oid, sign = message.qid, message.oid, message.sign
        else:
            qid, oid, sign = getattr(message, "qid", None), 0, 0
        at = len(qids)
        if overtake and at and qid is not None and qids[-1] not in (None, qid):
            at -= 1
            if at in others:
                others[at + 1] = others.pop(at)
        if not sign:
            others[at] = message
        qids.insert(at, qid)
        self.oids.insert(at, oid)
        self.signs.insert(at, sign)

    def __len__(self) -> int:
        return len(self.qids)

    def __iter__(self):
        if not self.others:
            return map(UpdateMessage, self.qids, self.oids, self.signs)
        return map(self.__getitem__, range(len(self.qids)))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(len(self.qids)))]
        sign = self.signs[index]
        if sign:
            return UpdateMessage(self.qids[index], self.oids[index], sign)
        return self.others[index % len(self.signs)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Inbox):
            return (
                self.qids == other.qids
                and self.oids == other.oids
                and self.signs == other.signs
                and self.others == other.others
            )
        if isinstance(other, (list, tuple)):
            return len(other) == len(self.qids) and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


#: What every idle link holds: one shared mailbox whose columns are
#: tuples, so a stray write raises instead of landing in every link.
_EMPTY = Inbox(column=tuple)


class ClientLink:
    """The downstream channel to one client.

    While disconnected, messages are *lost*, not queued — the paper's
    out-of-sync problem exists precisely because a cheap passive device
    misses whatever the server sent during the outage.  The link records
    what was lost only for accounting, in plain ints on itself
    (``delivered_*`` / ``dropped_*``); the owning :class:`NetworkStats`
    sees the same events as fleet-wide aggregates.  A link allocates
    its :class:`Inbox` on first mail and gives it away on ``drain``.

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

    __slots__ = (
        "client_id",
        "connected",
        "stats",
        "fault_hook",
        "delivery_observer",
        "_inbox",
        "delivered_messages",
        "delivered_bytes",
        "dropped_messages",
        "dropped_bytes",
    )

    #: Downstream bytes per evaluation cycle; ``None`` is unmetered
    #: (:class:`~repro.net.ThrottledLink` sets a budget).
    budget_bytes_per_cycle: int | None = None

    def __init__(self, client_id: int, stats: NetworkStats | None = None):
        self.client_id = client_id
        self.connected = True
        self.stats = stats if stats is not None else NetworkStats()
        self.fault_hook = None
        self.delivery_observer = None
        self._inbox = _EMPTY
        self.delivered_messages = 0
        self.delivered_bytes = 0
        self.dropped_messages = 0
        self.dropped_bytes = 0
        self.stats._links_registered.add(1)
        self.stats._links_connected.add(1)

    @property
    def queued_messages(self) -> int:
        return len(self._inbox)

    def disconnect(self) -> None:
        if self.connected:
            self.connected = False
            self.stats._links_connected.add(-1)

    def reconnect(self) -> None:
        if not self.connected:
            self.connected = True
            self.stats._links_connected.add(1)

    def deliver(self, message: Message) -> bool:
        """Send ``message``; returns whether the client received it."""
        action = DELIVER
        if self.connected and self.fault_hook is not None:
            action = self.fault_hook(self, message)
        if not self.connected or action == DROP:
            self.stats.record(message, delivered=False)
            self.dropped_messages += 1
            self.dropped_bytes += message.size_bytes
            self.stats.rank_dropped(self)
            self._notify(message, False)
            return False
        self._accept(message, reorder=(action == REORDER))
        if action == DUPLICATE:
            self._accept(message, reorder=False)
        return True

    def deliver_updates(self, qids, oids, signs) -> list[bool] | None:
        """Send one cycle's slice of the update stream — aligned
        ``qid``/``oid``/``sign`` column lists, in stream order.

        Returns ``None`` when the client received every update, else
        the per-update :meth:`deliver` verdicts.  A connected, unhooked,
        unmetered link has nothing to decide per message, so it takes
        the whole slice in three column extends with the accounting
        done arithmetically and no message built; any other link goes
        through :meth:`deliver` one message at a time, so fault hooks,
        delivery observers and byte budgets see exactly the calls they
        always saw.  A sign other than ``±1`` refuses the slice whole.
        """
        count = len(signs)
        if signs.count(1) + signs.count(-1) != count:
            raise ValueError("every sign must be +1 or -1")
        if (
            self.connected
            and self.fault_hook is None
            and self.delivery_observer is None
            and self.budget_bytes_per_cycle is None
        ):
            inbox = self._inbox
            if inbox is _EMPTY:
                inbox = self._inbox = Inbox()
            inbox.qids.extend(qids)
            inbox.oids.extend(oids)
            inbox.signs.extend(signs)
            self.stats.record_delivered_updates(count)
            self.stats._links_queued.add(count)
            self.delivered_messages += count
            self.delivered_bytes += count * UpdateMessage.size_bytes
            return None
        return list(map(self.deliver, map(UpdateMessage, qids, oids, signs)))

    def _accept(self, message: Message, reorder: bool) -> None:
        """Put one delivered copy in the inbox, with full accounting."""
        self.stats.record(message, delivered=True)
        self.stats._links_queued.add(1)
        self.delivered_messages += 1
        self.delivered_bytes += message.size_bytes
        if self._inbox is _EMPTY:
            self._inbox = Inbox()
        self._inbox.add(message, reorder)
        self._notify(message, True)

    def _notify(self, message: Message, delivered: bool) -> None:
        if self.delivery_observer is not None:
            self.delivery_observer(self.client_id, message, delivered)

    def drain(self) -> Inbox:
        """Messages received since the last drain (the client's mailbox)."""
        received = self._inbox
        if received is not _EMPTY:
            self._inbox = _EMPTY
            self.stats._links_queued.add(-len(received))
        return received
