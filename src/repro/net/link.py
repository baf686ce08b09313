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

Update rows reach a link through one door,
:meth:`ClientLink.deliver_updates`, a slice of the cycle's int64 columns
at a time; its fleet aggregates are plain-int tallies, folded into the
series on read.  A link's mailbox is an :class:`Inbox` of those slices.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from operator import sub
from threading import Lock

import numpy as np

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

_SIZE = UpdateMessage.size_bytes  # wire bytes of one update row


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
        #: Plain-int tallies of the hot doors, one add per call from one
        #: thread, folded by :meth:`settle` before any registry read: the
        #: reports the unhooked per-report door took, and the update rows
        #: :meth:`ClientLink.deliver_updates` delivered (each copy), lost
        #: (dropped or throttled) and throttled.
        self.reports_taken = 0
        self.updates_delivered = self.updates_lost = self.updates_throttled = 0
        self._settled = (0, 0, 0, 0)
        self._settle_lock = Lock()
        self.registry.on_read(self.settle)

    # -- recording -----------------------------------------------------

    def record(self, kind: type[Message], size: int, copies: int, lost: int = 0, throttled: int = 0) -> None:
        """Account downlink messages of one class, ``size`` bytes each:
        ``copies`` queued in an inbox, ``lost`` dropped, ``throttled`` of
        them to a byte budget (told apart by the throttle totals)."""
        if copies:
            self._delivered_bytes.inc(copies * size)
            self._delivered_messages.inc(copies)
            self._kind(self._delivered_kinds, "", kind).inc(copies)
            self._links_queued.add(copies)
        if lost:
            self._dropped_bytes.inc(lost * size)
            self._dropped_messages.inc(lost)
            self._kind(self._dropped_kinds, "dropped:", kind).inc(lost)
        if throttled:
            self._throttled_bytes.inc(throttled * size)
            self._throttled_messages.inc(throttled)

    def settle(self) -> None:
        """Fold what the tallies gained since the last settle into the series."""
        with self._settle_lock:
            taken = (self.reports_taken, self.updates_delivered, self.updates_lost, self.updates_throttled)
            reports, *updates = map(sub, taken, self._settled)
            self._settled = taken
            self.record_uplinks(ObjectReportMessage, reports)
            self.record(UpdateMessage, _SIZE, *updates)

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
        return int(self.registry.value_of("net_delivered_bytes_total"))

    @property
    def dropped_bytes(self) -> int:
        return int(self.registry.value_of("net_dropped_bytes_total"))

    @property
    def delivered_messages(self) -> int:
        return int(self.registry.value_of("net_delivered_messages_total"))

    @property
    def dropped_messages(self) -> int:
        return int(self.registry.value_of("net_dropped_messages_total"))

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

    Nearly everything a link holds is an update tuple ``(Q, ±A)``: the
    mailbox keeps the ``qids`` / ``oids`` / ``signs`` slices it was
    given — views of the cycle's sorted int64 arrays — and joins them
    into three Python int lists only when read, by
    :func:`~repro.service.protocol.encode_downlink`, iteration or
    indexing.  The rare other message (a
    :class:`~repro.net.FullAnswerMessage`) sits in the sparse ``others``
    map ``{position: message}``, its row holding its ``qid`` and sign
    ``0``.  ``len``, iteration, indexing and ``==`` against a list read
    like ``list[Message]``.
    """

    __slots__ = ("_parts", "_size", "others")

    def __init__(self, parts=None) -> None:
        self._parts = [] if parts is None else parts
        self._size = 0
        self.others: dict[int, Message] = {}

    def extend(self, qids, oids, signs) -> None:
        """Append aligned int64 column slices of update rows, kept as they
        are; what the inbox held is joined first, so an undrained inbox
        keeps no earlier cycle's arrays alive."""
        if self._parts:
            self.columns()
        self._parts.append((qids, oids, signs))
        self._size += len(qids)

    def columns(self) -> tuple:
        """``(qids, oids, signs)`` as int lists, the parts joined once;
        ints joined earlier are extended in place."""
        parts = self._parts
        if len(parts) == 1:  # one slice, a cycle's usual mail, or ints already
            qids, oids, signs = parts[0]
            if type(qids) is np.ndarray:
                self._parts = [(qids.tolist(), oids.tolist(), signs.tolist())]
            return self._parts[0]
        held = bool(parts) and type(parts[0][0]) is list
        joined = parts[0] if held else ([], [], [])
        for part in parts[held:]:
            for column, rows in zip(joined, part):
                column += rows.tolist() if type(rows) is np.ndarray else rows
        self._parts = [joined]
        return joined

    def add(self, message: Message, overtake: bool = False) -> None:
        """Append one message — or, with ``overtake`` (the reorder
        fault), slot it in ahead of the last one if that belongs to a
        different query: per-query FIFO is load-bearing."""
        qids, oids, signs = self.columns()
        others = self.others
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
        oids.insert(at, oid)
        signs.insert(at, sign)
        self._size += 1

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        if not self.others:
            return map(UpdateMessage, *self.columns())
        return map(self.__getitem__, range(self._size))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[at] for at in range(*index.indices(self._size))]
        qids, oids, signs = self.columns()
        sign = signs[index]
        if sign:
            return UpdateMessage(qids[index], oids[index], sign)
        return self.others[index % len(signs)]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Inbox):
            return self.columns() == other.columns() and self.others == other.others
        if isinstance(other, (list, tuple)):
            return len(other) == self._size and all(
                mine == theirs for mine, theirs in zip(self, other)
            )
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


#: What every idle link holds: one shared mailbox whose one part is a
#: triple of tuples, so a stray write raises instead of landing in
#: every link.
_EMPTY = Inbox(parts=(((), (), ()),))


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
      delivery attempt (one of :data:`FAULT_ACTIONS`), asked once per
      row by :meth:`deliver_updates`; ``None`` means no faults.  Faults
      apply only while connected — a disconnected link loses everything
      regardless.
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
        """Send one message outside a slice — a full answer, or a lone
        update — by :meth:`deliver_updates`' rule for one row; returns
        whether the client received it."""
        size = message.size_bytes
        if self.budget_bytes_per_cycle is not None and size > self.remaining_budget:
            self._notify(message, False)
            copies, dropped, throttled = 0, 0, 1
        else:
            copies = self._offer(message)
            dropped, throttled = int(not copies), 0
        self.stats.record(type(message), size, copies, dropped + throttled, throttled)
        self._account(size, copies, int(copies > 0), dropped, throttled)
        return copies > 0

    def _offer(self, message: Message) -> int:
        """One message's fate on the wire: lost while disconnected, else
        the fault hook's verdict acted on; returns the copies the inbox
        took (0 for a loss), each outcome told to the observer."""
        hook = self.fault_hook
        action = DROP if not self.connected else DELIVER if hook is None else hook(self, message)
        if action == DROP:
            self._notify(message, False)
            return 0
        copies, inbox = 2 if action == DUPLICATE else 1, self._mailbox()
        for _ in range(copies):
            inbox.add(message, action == REORDER)
            self._notify(message, True)
        return copies

    def deliver_updates(self, qids, oids, signs):
        """Send one cycle's slice of the update stream — aligned int64
        ``qid``/``oid``/``sign`` columns in stream order (int lists are
        copied into arrays); the one door for update rows.  Returns
        ``None`` when the client received every row, else the bool mask
        of the rows it received; a sign other than ``±1`` refuses the
        slice whole (``ValueError``).  The rule — the budget's prefix
        cut, the hook asked per row, the observer told each outcome — is
        DESIGN.md's *Downlink: one door over numpy columns*.
        """
        if type(signs) is not np.ndarray:
            qids, oids, signs = (np.array(column, dtype=np.int64) for column in (qids, oids, signs))
        listed = signs.tolist()
        count = len(listed)
        if listed.count(1) + listed.count(-1) != count:
            raise ValueError("every sign must be +1 or -1")
        room = count if self.budget_bytes_per_cycle is None else self.remaining_budget // _SIZE
        if self.connected and self.fault_hook is None:  # the prefix that fits, as it is
            accepted = copies = room if room < count else count
            kept, offered, dropped = slice(accepted), 0, 0
            if accepted:
                inbox = self._mailbox()
                if accepted == count:
                    inbox.extend(qids, oids, signs)
                else:
                    inbox.extend(qids[kept], oids[kept], signs[kept])
        else:  # each row offered to the hook in order while the budget has room
            kept, copies, dropped = [], 0, 0
            for row, message in enumerate(map(UpdateMessage, qids.tolist(), oids.tolist(), listed)):
                if len(kept) == room:
                    break
                taken = self._offer(message)
                if taken:
                    kept.append(row)
                    copies += taken
                else:
                    dropped += 1
            accepted = len(kept)
            offered = accepted + dropped
        if self.delivery_observer is not None:  # the rows no hook was offered
            rows = map(UpdateMessage, qids[offered:].tolist(), oids[offered:].tolist(), listed[offered:])
            for row, message in enumerate(rows, offered):
                self.delivery_observer(self.client_id, message, row < accepted)
        throttled = count - accepted - dropped
        stats = self.stats
        stats.updates_delivered += copies
        stats.updates_lost += dropped + throttled
        stats.updates_throttled += throttled
        self._account(_SIZE, copies, accepted, dropped, throttled)
        if accepted == count:
            return None
        verdicts = np.zeros(count, dtype=bool)
        verdicts[kept] = True
        return verdicts

    def _account(self, size: int, copies: int, accepted: int, dropped: int, throttled: int) -> None:
        """The link's counters for one send, ``size`` bytes a message:
        ``copies`` queued for ``accepted`` messages (each charged to a
        budget once), ``dropped`` lost on the wire and ``throttled`` to
        the budget."""
        self.delivered_messages += copies
        self.delivered_bytes += copies * size
        if dropped:
            self.dropped_messages += dropped
            self.dropped_bytes += dropped * size
            self.stats.rank_dropped(self)
        if self.budget_bytes_per_cycle is not None:
            self._spent_this_cycle += accepted * size
            self.throttled_messages += throttled
            self.throttled_bytes += throttled * size

    def _mailbox(self) -> Inbox:
        if self._inbox is _EMPTY:
            self._inbox = Inbox()
        return self._inbox

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
