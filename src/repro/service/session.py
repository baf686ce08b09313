"""One accepted connection and the logical clients it carries.

A session is deliberately thin: it owns the write half of the socket,
the set of client ids registered through it, and per-session wire
accounting.  All protocol *decisions* (admission, op routing, cycle
orchestration) live in :class:`~repro.service.runtime.ServiceRuntime`;
the session only knows how to encode lines, queue them in wire order,
and hand the transport what is queued.

One session may multiplex many logical clients — the load driver runs
tens of thousands of simulated clients over a handful of sessions — so
the runtime drains link by link (only the links that hold mail) but
*writes* connection by connection: :meth:`ClientSession.send` and
:meth:`ClientSession.flush_link` only queue encoded bytes, and
:meth:`ClientSession.flush` makes one transport write of everything
queued.  The runtime calls it at the points where a peer may be waiting
— after each handled read, at the end of a cycle's flush, before
draining writers, on close — so a cycle costs a session one ``send``
syscall, not one per mailed link and marker.  Order within a session is
the queueing order; nothing is reordered, only coalesced.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.service.protocol import encode, encode_downlink

if TYPE_CHECKING:  # pragma: no cover - typing only
    import asyncio

    from repro.net.link import ClientLink


class ClientSession:
    """Wire state for one accepted connection."""

    __slots__ = (
        "session_id",
        "writer",
        "peer",
        "sync",
        "client_ids",
        "backlog",
        "closed",
        "lines_in",
        "lines_out",
        "_out",
        "_out_lines",
    )

    def __init__(
        self,
        session_id: int,
        writer: "asyncio.StreamWriter",
        peer: str = "?",
    ):
        self.session_id = session_id
        self.writer = writer
        self.peer = peer
        #: True once a ``hello`` asked for ``cycle_end`` markers.
        self.sync = False
        self.client_ids: set[int] = set()
        #: Uplink ops currently queued for the next cycle drain.
        self.backlog = 0
        self.closed = False
        self.lines_in = 0
        #: Lines handed to the transport (queued ones count at the flush).
        self.lines_out = 0
        self._out: list[bytes] = []
        self._out_lines = 0

    # -- wire output ---------------------------------------------------

    def send(self, obj: dict) -> None:
        """Queue one encoded line behind everything queued so far."""
        self._queue(encode(obj), 1)

    def send_line(self, line: bytes) -> None:
        """Queue one already-encoded line behind everything queued."""
        self._queue(line, 1)

    def flush_link(self, link: "ClientLink") -> int:
        """Drain one client link's inbox into the output queue, in
        inbox order.

        The link layer already decided delivery (budget, faults,
        connectivity); whatever reached the inbox is what the wire
        client receives.  Returns the number of messages drained.
        """
        inbox = link.drain()
        self._queue(encode_downlink(inbox), len(inbox))
        return len(inbox)

    def _queue(self, data: bytes, lines: int) -> None:
        if not self.closed:
            self._out.append(data)
            self._out_lines += lines

    def flush(self) -> bool:
        """Hand everything queued to the transport as one write (no
        await: asyncio buffers; the runtime drains writers at cycle
        boundaries).  True when a write was made; a transport error
        marks the session closed and what was queued is lost with it."""
        if not self._out:
            return False
        data, lines = b"".join(self._out), self._out_lines
        self._out.clear()
        self._out_lines = 0
        if self.closed:
            return False
        try:
            self.writer.write(data)
        except (ConnectionError, RuntimeError):
            self.closed = True
            return False
        self.lines_out += lines
        return True

    def mark_closed(self) -> None:
        self.closed = True
