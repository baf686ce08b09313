"""One accepted connection and the logical clients it carries.

A session is deliberately thin: it owns the write half of the socket,
the set of client ids registered through it, and per-session wire
accounting.  All protocol *decisions* (admission, op routing, cycle
orchestration) live in :class:`~repro.service.runtime.ServiceRuntime`;
the session only knows how to put encoded lines on the wire and how to
drain its clients' links into the socket.

One session may multiplex many logical clients — the load driver runs
tens of thousands of simulated clients over a handful of sessions — so
the runtime flushes link by link (only the links that hold mail), not
connection by connection.
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
        self.lines_out = 0

    # -- wire output ---------------------------------------------------

    def send(self, obj: dict) -> None:
        """Queue one encoded line on the transport (no await: asyncio
        buffers; the runtime drains writers at cycle boundaries)."""
        self._write(encode(obj), 1)

    def flush_link(self, link: "ClientLink") -> int:
        """Drain one client link's inbox onto the wire, in inbox order,
        as one transport write.

        The link layer already decided delivery (budget, faults,
        connectivity); whatever reached the inbox is what the wire
        client receives.  Returns the number of messages flushed.
        """
        inbox = link.drain()
        self._write(encode_downlink(inbox), len(inbox))
        return len(inbox)

    def _write(self, data: bytes, lines: int) -> None:
        if self.closed:
            return
        try:
            self.writer.write(data)
            self.lines_out += lines
        except (ConnectionError, RuntimeError):
            self.closed = True

    def mark_closed(self) -> None:
        self.closed = True

    def describe(self) -> dict:
        return {
            "session": self.session_id,
            "peer": self.peer,
            "sync": self.sync,
            "clients": len(self.client_ids),
            "backlog": self.backlog,
            "lines_in": self.lines_in,
            "lines_out": self.lines_out,
        }
