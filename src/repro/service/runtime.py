"""The network-facing service runtime.

Wraps one :class:`~repro.core.server.LocationAwareServer` behind a real
socket transport: an asyncio TCP listener speaking the line-delimited
JSON protocol of :mod:`repro.service.protocol`, a cycle loop that
drains queued uplinks, runs one bulk evaluation, and flushes the links
that hold mail to the wire, plus a minimal HTTP plane (``/state``,
``/state?client=N``, ``/metrics``, ``/healthz``) fed by the stack's own
:class:`~repro.obs.MetricsRegistry` and, for one client's detail, by
that client's link.

Design points:

* **The link layer stays authoritative.**  Sessions never bypass
  :class:`~repro.net.ClientLink`: every downlink message goes through
  ``link.deliver`` (budgets, faults, connectivity) and only what
  reaches the inbox is flushed to the socket.  The chaos
  :class:`~repro.faults.FaultInjector` and the
  :class:`~repro.check.ConsistencyOracle` therefore work against live
  connections exactly as they do in-process.
* **Cycles are the unit of work.**  Uplink ops queue in a bounded
  per-session backlog (:mod:`repro.service.admission`) and are applied
  at the next cycle boundary in global arrival order, so one evaluation
  sees a consistent batch and the engine is never mutated mid-cycle.
  ``evaluate_cycle`` runs synchronously on the event loop — the cycle
  *is* the server's work; there is nothing to overlap it with.
* **Reads and runs, not lines and dicts.**  A connection is read in
  chunks; the complete lines of a read are decoded each on its own
  (:func:`~repro.service.protocol.decode_lines`) and consecutive
  ``report`` ops become one FIFO entry of six column lists.  Any other
  line closes the run first — it is queued before that line is handled
  — so a ``tick`` or ``ping`` mid-read sees what a line-at-a-time loop
  would have queued.  At the drain a run is judged by whole-column
  passes and handed to the server's batch door
  (:meth:`~repro.core.server.LocationAwareServer.receive_object_reports`);
  a run holding any refusable value is replayed row by row through
  :meth:`ServiceRuntime._apply_op`, the one per-row door, so exactly
  the bad rows are refused.  Admission, backlog and every counter count
  rows.  Output is queued per session and written once per flush.
* **Protocol completeness on the wire.**  The runtime subscribes to the
  server's observer hooks and emits ``wakeup_begin`` / ``wakeup_end`` /
  ``committed`` markers, each preceded by a flush of the affected
  client's inbox, so a wire client can maintain exactly the state the
  oracle's mirror holds (roll back to committed on wakeup, commit on
  acknowledgement).

Run it standalone with ``python -m repro.service`` or embedded via
:meth:`ServiceRuntime.start` (background thread, ephemeral ports) — the
tests, benchmark, and load driver use the latter.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from itertools import chain
from math import isfinite
from operator import itemgetter
from urllib.parse import parse_qs

from repro.check import ConsistencyOracle
from repro.core.server import LocationAwareServer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geometry import Point, Rect, Velocity
from repro.obs import FlightRecorder
from repro.obs.export import prometheus_text
from repro.service.admission import AdmissionConfig, AdmissionController
from repro.service.protocol import (
    IMMEDIATE_OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    busy_op,
    decode_lines,
    error_op,
    reject_op,
)
from repro.service.session import ClientSession

#: Ids live in int64 columns: ``-_INT64_BOUND <= id < _INT64_BOUND``.
_INT64_BOUND = 1 << 63


def _id_of(op: dict, field: str) -> int:
    """An object, query or client id, refused when no int64 column
    could hold it."""
    ident = int(op[field])
    if not -_INT64_BOUND <= ident < _INT64_BOUND:
        raise ProtocolError("bad_value", f"{field} {ident} is outside int64")
    return ident


def _finite(op: dict, *fields: str, default: float | None = None) -> list[float]:
    """Float fields of one op, refused when any is NaN or infinite —
    ``json.loads`` accepts both, the array kernels neither."""
    values = [
        float(op[field] if default is None else op.get(field, default))
        for field in fields
    ]
    if not all(map(isfinite, values)):
        raise ProtocolError("bad_value", f"{', '.join(fields)} must be finite")
    return values

#: Longest line accepted: uplink lines are small, but recovery ``answer``
#: downlinks (and symmetric test traffic) can carry large oid lists.
_LINE_LIMIT = 1 << 20

#: Bytes asked of the socket per read.  What was measured; a larger
#: read only keeps more decoded op dicts alive at once.
_READ_SIZE = 1 << 16

#: The required fields of a ``report`` op that become columns.
_REPORT_FIELDS = itemgetter("oid", "x", "y", "t")

#: What a refused value raises: ProtocolError is a ValueError, int(inf)
#: overflows and int(None) is a TypeError — no field value one client
#: sends may cost the others the cycle, or itself the connection.
_BAD_VALUE = (KeyError, ValueError, TypeError, OverflowError)


@dataclass(slots=True)
class ServiceConfig:
    """Everything one runtime needs to come up."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 → ephemeral; read back from tcp_address
    http_port: int = 0
    #: Seconds between automatic evaluation cycles; 0 disables the
    #: timer — cycles then run only on explicit ``tick`` control ops
    #: (the load driver's lock-step mode).
    cycle_interval: float = 0.0
    grid_size: int = 64
    pipeline: str = "columnar"
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Attach a differential consistency oracle to every session.
    oracle: bool = False
    #: Install a seeded chaos plan on the live transport.
    fault_plan: FaultPlan | None = None
    #: Arm the flight recorder for the whole stack.
    recorder: FlightRecorder | None = None


class ServiceRuntime:
    """One live deployment: sockets in front, the engine behind."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        server: LocationAwareServer | None = None,
    ):
        self.config = config or ServiceConfig()
        self.server = server or LocationAwareServer(
            grid_size=self.config.grid_size,
            pipeline=self.config.pipeline,
            recorder=self.config.recorder,
        )
        self.registry = self.server.registry
        self.admission = AdmissionController(
            self.config.admission, self.registry
        )
        self.oracle: ConsistencyOracle | None = (
            ConsistencyOracle(self.server) if self.config.oracle else None
        )
        self.injector: FaultInjector | None = None
        if self.config.fault_plan is not None:
            self.injector = FaultInjector(self.server, self.config.fault_plan)
            self.injector.install()
        self.server.add_observer(self)

        self.cycle_count = 0
        self.last_cycle: dict = {}
        self._sessions: dict[int, ClientSession] = {}
        self._next_session_id = 1
        #: client_id -> owning session (wire routing).
        self._client_session: dict[int, ClientSession] = {}
        #: Global FIFO drained at each cycle boundary: ``(session, op)``
        #: for one queued op, ``(session, columns)`` for a run of
        #: reports — six aligned lists (oid, x, y, vx, vy, t) of the
        #: values as decoded, judged at the drain.
        self._pending: list[tuple[ClientSession, dict | tuple]] = []
        #: Ops and report rows on ``_pending``.
        self._pending_rows = 0
        #: True while :meth:`run_cycle` runs: its flush ends with one
        #: write per session, so markers need not write on their own.
        self._cycling = False
        #: Clients holding mail that no live session could take yet.
        self._unflushed: set[int] = set()

        self._m_cycles = self.registry.counter("service_cycles_total")
        self._m_uplink_errors = self.registry.counter(
            "service_uplink_errors_total"
        )
        self._m_backlog = self.registry.gauge("service_uplink_backlog")
        self._m_flushed = self.registry.counter(
            "service_downlink_flushed_total"
        )
        self._m_ops: dict[str, object] = {}
        counter = self.registry.counter
        # Which path a report row took at the drain: "batch" = the
        # column doors, "scalar" = one ``_apply_op`` / one
        # ``receive_object_report`` per row (a refusable value in the
        # run, or a per-message hook installed on the server).
        self._m_rows = {
            path: counter("service_uplink_rows_total", labels={"path": path})
            for path in ("batch", "scalar")
        }
        # Which decoder vouched for a line: the scanner or decode_line.
        self._m_lines = {
            how: counter("service_uplink_lines_total", labels={"decode": how})
            for how in ("scan", "line")
        }
        self._m_writes = counter("service_transport_writes_total")
        self._m_decode_seconds, self._m_apply_seconds = (
            counter("service_uplink_seconds_total", labels={"stage": stage})
            for stage in ("decode", "apply")
        )

        self.tcp_address: tuple[str, int] | None = None
        self.http_address: tuple[str, int] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._ready = threading.Event()
        self._thread: threading.Thread | None = None
        self._tcp_server: asyncio.AbstractServer | None = None
        self._http_server: asyncio.AbstractServer | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    async def serve(self) -> None:
        """Bind both listeners and run until :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._tcp_server = await asyncio.start_server(
            self._handle_conn,
            self.config.host,
            self.config.port,
            limit=_LINE_LIMIT,
        )
        self.tcp_address = self._tcp_server.sockets[0].getsockname()[:2]
        self._http_server = await asyncio.start_server(
            self._handle_http, self.config.host, self.config.http_port
        )
        self.http_address = self._http_server.sockets[0].getsockname()[:2]
        cycle_task = None
        if self.config.cycle_interval > 0:
            cycle_task = asyncio.ensure_future(self._cycle_loop())
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            if cycle_task is not None:
                cycle_task.cancel()
            self._tcp_server.close()
            self._http_server.close()
            await self._tcp_server.wait_closed()
            await self._http_server.wait_closed()
            for session in list(self._sessions.values()):
                self._close_session(session)

    def request_stop(self) -> None:
        """Ask the serve loop to wind down (thread-safe)."""
        if self._loop is not None and self._stop_event is not None:
            self._loop.call_soon_threadsafe(self._stop_event.set)

    # -- background-thread embedding -----------------------------------

    def start(self, timeout: float = 10.0) -> "ServiceRuntime":
        """Run :meth:`serve` on a daemon thread; returns once bound."""
        if self._thread is not None:
            raise RuntimeError("runtime already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve()),
            name="repro-service",
            daemon=True,
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("service runtime failed to come up")
        return self

    def stop(self, timeout: float = 10.0) -> None:
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServiceRuntime":
        # Tolerate ``with ServiceRuntime(...).start() as runtime``.
        return self if self._thread is not None else self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # TCP sessions
    # ------------------------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if not self.admission.admit_session():
            writer.write(
                json.dumps(
                    reject_op("sessions", self.config.admission.retry_after)
                ).encode()
                + b"\n"
            )
            try:
                await writer.drain()
            except ConnectionError:
                pass
            writer.close()
            return
        peername = writer.get_extra_info("peername")
        session = ClientSession(
            self._next_session_id, writer, peer=str(peername)
        )
        self._next_session_id += 1
        self._sessions[session.session_id] = session
        tail = b""
        try:
            while not session.closed:
                try:
                    chunk = await reader.read(_READ_SIZE)
                except (
                    ConnectionError,
                    # Loop teardown cancels reader tasks; exit quietly
                    # through the normal cleanup path.
                    asyncio.CancelledError,
                ):
                    break
                data = tail + chunk
                # Only the line the tail began can be over the limit: a
                # read is shorter than it.
                first = data.find(b"\n", len(tail))
                if (first if first >= 0 else len(data)) > _LINE_LIMIT:
                    self._m_uplink_errors.inc()
                    session.send(
                        error_op(
                            "line_too_long",
                            f"a line may hold {_LINE_LIMIT} bytes",
                        )
                    )
                    break
                # At EOF an unterminated tail is the last line.
                cut = data.rfind(b"\n") + 1 if chunk else len(data)
                tail = data[cut:]
                if cut and not await self._handle_lines(session, data[:cut]):
                    break
                self._write_out(session)
                if not chunk:
                    break
        finally:
            self._close_session(session)
            self.admission.release_session()

    async def _handle_lines(self, session: ClientSession, block: bytes) -> bool:
        """Everything one read completed, in line order; False on
        ``bye``.

        Consecutive reports queue as one run of columns.  Anything else
        closes the run *first* — it is on ``_pending`` before that line
        is answered or handled — so a ``tick``, ``ping`` or bad line in
        the middle of a read sees exactly what a line-at-a-time loop
        would have queued, and replies leave in line order.
        """
        with self.server.tracer.span("uplink_decode", self._m_decode_seconds):
            lines = block.decode("utf-8", errors="replace").split("\n")
            if not lines[-1]:
                lines.pop()  # the block ended on its last newline
            items, fallbacks = decode_lines(lines)
        self._m_lines["scan"].inc(len(lines) - fallbacks)
        if fallbacks:
            self._m_lines["line"].inc(fallbacks)
        handled = 0
        try:
            for item in items:
                kind = item.__class__
                if kind is list:
                    handled += len(item)
                    self._queue_run(session, item)
                    continue
                handled += 1
                if kind is not dict:
                    self._m_uplink_errors.inc()
                    session.send(error_op(item.code, item.detail))
                    continue
                name = item["op"]
                self._count_op(name)
                if name == "bye":
                    return False  # what follows it was never received
                if name in IMMEDIATE_OPS:
                    await self._handle_immediate(session, item)
                elif self.admission.admit_uplinks(session.backlog):
                    self._enqueue(session, item, 1)
                else:
                    session.send(busy_op(self.config.admission.retry_after))
        finally:
            session.lines_in += handled
        return True

    def _queue_run(self, session: ClientSession, run: list[dict]) -> None:
        """Admit a run of reports row by row and queue what fits as six
        column lists; each row beyond the session's allowance is told
        ``busy``."""
        self._count_op("report", len(run))
        admitted = self.admission.admit_uplinks(session.backlog, len(run))
        if admitted < len(run):
            busy = busy_op(self.config.admission.retry_after)
            for _ in range(len(run) - admitted):
                session.send(busy)
            del run[admitted:]
        if run:
            oids, xs, ys, ts = zip(*map(_REPORT_FIELDS, run))
            vxs = [op.get("vx", 0.0) for op in run]
            vys = [op.get("vy", 0.0) for op in run]
            self._enqueue(session, (oids, xs, ys, vxs, vys, ts), admitted)

    def _enqueue(self, session: ClientSession, entry, rows: int) -> None:
        session.backlog += rows
        self._pending.append((session, entry))
        self._pending_rows += rows
        self._m_backlog.set(self._pending_rows)

    def _write_out(self, session: ClientSession) -> None:
        """One transport write of whatever the session has queued."""
        if session.flush():
            self._m_writes.inc()

    def _close_session(self, session: ClientSession) -> None:
        if session.session_id in self._sessions:
            del self._sessions[session.session_id]
        self._write_out(session)
        session.mark_closed()
        # The connection is the client's physical channel: losing it is
        # an outage — the links go dark (messages lost, not queued)
        # until the client reconnects and wakes up, exactly the paper's
        # out-of-sync model.
        for client_id in session.client_ids:
            try:
                self.server.link_of(client_id).disconnect()
            except KeyError:
                pass
            self._client_session.pop(client_id, None)
        try:
            session.writer.close()
        except RuntimeError:
            pass

    # -- immediate (control-plane) ops ---------------------------------

    async def _handle_immediate(
        self, session: ClientSession, op: dict
    ) -> None:
        name = op["op"]
        try:
            args = self._immediate_args(op)
        except _BAD_VALUE as exc:
            self._m_uplink_errors.inc()
            session.send(error_op("bad_value", f"{name}: {exc}"))
            return
        if name == "hello":
            self._handle_hello(session, op, *args)
        elif name == "ping":
            session.send({"op": "pong", "protocol": PROTOCOL_VERSION})
        elif name == "tick":
            summary = self.run_cycle(*args)
            # Reply before draining peers: a peer session that is not
            # reading yet (the load driver's lock-step workers) must not
            # hold the control session's cycle acknowledgement hostage.
            session.send({"op": "cycle", **summary})
            await self._drain_writers()
        elif name == "query_answer":
            (qid,) = args
            if qid not in self.server.engine.queries:
                session.send(error_op("unknown_query", f"no query {qid}"))
                return
            session.send(
                {
                    "op": "answer_state",
                    "qid": qid,
                    "oids": sorted(self.server.engine.answer_of(qid)),
                }
            )
        elif name == "chaos_off":
            if self.injector is not None:
                self.injector.uninstall()
                self.injector = None
            session.send({"op": "chaos", "active": False})
            await self._drain_writers()

    def _immediate_args(self, op: dict) -> tuple:
        """The field values an immediate op acts on, validated like a
        queued op's — and before anything is drained or registered."""
        name = op["op"]
        if name == "hello":
            budget = op.get("budget")
            if budget is not None:
                budget = int(budget)
                if budget < 0:
                    raise ProtocolError(
                        "bad_value", f"budget must be >= 0, got {budget}"
                    )
            return _id_of(op, "client"), budget
        if name == "tick":
            now = op.get("now")
            now = float(self.cycle_count + 1 if now is None else now)
            if not isfinite(now) or now < self.server.engine.now:
                raise ProtocolError(
                    "bad_value",
                    f"now must be finite and not before "
                    f"{self.server.engine.now}, got {now}",
                )
            return (now,)
        if name == "query_answer":
            return (_id_of(op, "qid"),)
        return ()

    def _handle_hello(
        self,
        session: ClientSession,
        op: dict,
        client_id: int,
        budget: int | None = None,
    ) -> None:
        if "sync" in op:
            session.sync = bool(op["sync"])
        owner = self._client_session.get(client_id)
        if owner is not None and not owner.closed and owner is not session:
            session.send(
                error_op(
                    "client_busy",
                    f"client {client_id} is bound to another live session",
                )
            )
            return
        try:
            self.server.link_of(client_id)
            known = True
        except KeyError:
            known = False
        if known:
            # A reconnect: rebind the wire, but the link stays dark
            # until the client sends its wakeup — resynchronisation is
            # the client's move in the out-of-sync protocol.
            resumed = True
        else:
            if not self.admission.admit_client():
                session.send(
                    reject_op("clients", self.config.admission.retry_after)
                )
                return
            self.server.register_client(client_id, downlink_budget=budget)
            if self.oracle is not None:
                self.oracle.watch_client(client_id)
            if self.injector is not None:
                self.injector.bind_client(client_id)
            resumed = False
        session.client_ids.add(client_id)
        self._client_session[client_id] = session
        session.send(
            {
                "op": "welcome",
                "client": client_id,
                "session": session.session_id,
                "cycle": self.cycle_count,
                "resumed": resumed,
                "protocol": PROTOCOL_VERSION,
            }
        )

    # ------------------------------------------------------------------
    # The cycle loop
    # ------------------------------------------------------------------

    async def _cycle_loop(self) -> None:
        """Timer-paced cycles (the TrafficFlow-style free-running mode)."""
        while self._stop_event is not None and not self._stop_event.is_set():
            await asyncio.sleep(self.config.cycle_interval)
            self.run_cycle(None)
            await self._drain_writers()

    def run_cycle(self, now: float | None = None) -> dict:
        """One full service cycle; returns a JSON-ready summary.

        Order mirrors the in-process chaos harness: cycle-level faults
        first, then the uplink batch in arrival order, then the
        oracle-bracketed evaluation, then the downlink flush.
        """
        cycle = self.cycle_count
        if now is None:
            now = float(cycle + 1)
        self._cycling = True
        try:
            if self.injector is not None:
                self.injector.begin_cycle(cycle)
            applied, errors = self._drain_uplinks()
            if self.oracle is not None:
                self.oracle.begin_cycle()
            result = self.server.evaluate_cycle(now)
            divergences_now = 0
            if self.oracle is not None:
                divergences_now = len(
                    self.oracle.end_cycle(cycle, result.updates)
                )
            flushed = self._flush_sessions(cycle, now)
        finally:
            self._cycling = False
        self.cycle_count += 1
        self._m_cycles.inc()
        self.last_cycle = {
            "cycle": cycle,
            "now": now,
            "uplinks_applied": applied,
            "uplink_errors": errors,
            "delivered_updates": result.delivered_updates,
            "dropped_updates": result.dropped_updates,
            "incremental_bytes": result.incremental_bytes,
            "flushed_messages": flushed,
            "divergences": divergences_now,
            "divergences_total": (
                len(self.oracle.divergences) if self.oracle else None
            ),
        }
        return self.last_cycle

    def _drain_uplinks(self) -> tuple[int, int]:
        """Apply everything queued, in global arrival order; returns
        ``(rows applied, rows refused)``."""
        pending, self._pending = self._pending, []
        self._pending_rows = 0
        applied = 0
        refused = 0
        with self.server.tracer.span("uplink_apply", self._m_apply_seconds):
            for session, entry in pending:
                single = entry.__class__ is dict
                rows = 1 if single else len(entry[0])
                session.backlog = max(0, session.backlog - rows)
                if session.closed:
                    continue
                ok = (
                    self._apply_row(session, entry)
                    if single
                    else self._apply_run(session, entry)
                )
                applied += ok
                refused += rows - ok
        self._m_backlog.set(0)
        return applied, refused

    def _apply_row(self, session: ClientSession, op: dict) -> bool:
        """One op through :meth:`_apply_op`; a refused one is answered
        and counted, never raised into the cycle."""
        try:
            self._apply_op(op)
        except _BAD_VALUE as exc:
            self._m_uplink_errors.inc()
            session.send(error_op("bad_op", f"{op.get('op')}: {exc}"))
            return False
        return True

    def _apply_run(self, session: ClientSession, columns: tuple) -> int:
        """A run of reports through the batch door; returns the rows
        applied.

        The columns are judged whole, by the constructors and bounds
        :meth:`_apply_op` applies to one report.  A run holding any
        value it would refuse is replayed row by row through
        ``_apply_op`` instead, so exactly the bad rows are refused,
        answered and counted, and the rest are applied in order.
        """
        rows = len(columns[0])
        try:
            oids = list(map(int, columns[0]))
            xs, ys, vxs, vys, ts = (list(map(float, c)) for c in columns[1:])
            if not (
                -_INT64_BOUND <= min(oids)
                and max(oids) < _INT64_BOUND
                and all(map(isfinite, chain(vxs, vys, ts)))
            ):
                raise ProtocolError("bad_value", "a row is out of range")
            batched = self.server.receive_object_reports(
                oids, xs, ys, vxs, vys, ts
            )
        except _BAD_VALUE:
            applied = sum(
                self._apply_row(
                    session,
                    {"op": "report", "oid": oid, "x": x, "y": y,
                     "vx": vx, "vy": vy, "t": t},
                )
                for oid, x, y, vx, vy, t in zip(*columns)
            )  # fmt: skip
            self._m_rows["scalar"].inc(rows)
            return applied
        self._m_rows["batch" if batched else "scalar"].inc(rows)
        return rows

    def _apply_op(self, op: dict) -> None:
        server = self.server
        name = op["op"]
        if name == "report":
            # The one per-row door (a lone bad report, and the replay
            # of a run that held one).  Refused here: a value the batch
            # kernels cannot hold would otherwise fail the shared cycle.
            oid = int(op["oid"])
            t = float(op["t"])
            vx, vy = float(op.get("vx", 0.0)), float(op.get("vy", 0.0))
            if not -_INT64_BOUND <= oid < _INT64_BOUND:
                raise ProtocolError("bad_value", f"oid {oid} is outside int64")
            if not (isfinite(t) and isfinite(vx) and isfinite(vy)):
                raise ProtocolError("bad_value", "t, vx and vy must be finite")
            server.receive_object_report(
                oid,
                Point(float(op["x"]), float(op["y"])),
                t,
                Velocity(vx, vy) if vx or vy else Velocity.ZERO,
            )
        elif name == "move":
            qid = _id_of(op, "qid")
            # Validate up front: a buffered move for an unknown query
            # would fail the whole evaluation batch, not just this op.
            server.client_of(qid)
            kind = op["kind"]
            (t,) = _finite(op, "t")
            if kind == "range":
                move = server.receive_range_query_move
                target = self._rect_of(op)
            elif kind == "knn":
                move = server.receive_knn_query_move
                target = Point(*_finite(op, "cx", "cy"))
            else:
                move = server.receive_predictive_query_move
                target = self._rect_of(op)
            try:
                move(qid, target, t)
            except ValueError:
                # Every value is vouched for above, so this is the
                # engine refusing a move of the wrong kind for its query.
                known = server.engine.kind_of(qid)
                raise ProtocolError(
                    "bad_kind", f"query {qid} is a {known.value} query"
                ) from None
        elif name == "register":
            client_id = _id_of(op, "client")
            qid = _id_of(op, "qid")
            kind = op["kind"]
            (t,) = _finite(op, "t", default=0.0)
            if kind == "range":
                server.register_range_query(
                    client_id, qid, self._rect_of(op), t
                )
            elif kind == "knn":
                k = int(op.get("k", 1))
                if not 1 <= k < _INT64_BOUND:
                    raise ProtocolError("bad_value", f"k must be >= 1, got {k}")
                server.register_knn_query(
                    client_id, qid, Point(*_finite(op, "cx", "cy")), k, t
                )
            else:
                (horizon,) = _finite(op, "horizon", default=0.0)
                if horizon < 0:
                    raise ProtocolError(
                        "bad_value", f"horizon must be >= 0, got {horizon}"
                    )
                server.register_predictive_query(
                    client_id, qid, self._rect_of(op), horizon, t
                )
        elif name == "commit":
            server.receive_commit(_id_of(op, "qid"))
        elif name == "wakeup":
            server.receive_wakeup(_id_of(op, "client"))
        elif name == "remove":
            server.remove_object(_id_of(op, "oid"))
        elif name == "unregister":
            server.unregister_query(_id_of(op, "qid"))
        else:  # pragma: no cover - decode_line already rejects these
            raise ProtocolError("bad_op", f"unroutable op {name!r}")

    @staticmethod
    def _rect_of(op: dict) -> Rect:
        try:
            minx, miny, maxx, maxy = _finite(op, "minx", "miny", "maxx", "maxy")
        except KeyError as exc:
            raise ProtocolError(
                "missing_field", f"rect op missing {exc.args[0]!r}"
            ) from exc
        if minx > maxx or miny > maxy:
            raise ProtocolError(
                "bad_value", f"inverted rectangle ({minx}, {miny}, {maxx}, {maxy})"
            )
        return Rect(minx, miny, maxx, maxy)

    # -- downlink flushing ---------------------------------------------

    def _flush_sessions(self, cycle: int, now: float) -> int:
        """Write out the links that accepted mail, then mark the cycle.

        Only the mailed set is visited — a quiet client costs nothing
        here.  Mail for a client with no live session (registered
        in-process, or between connections) stays in its link and its
        id stays pending until a session binds it.  ``cycle_end`` goes
        out last, so on every sync session it follows that session's
        share of the flush.
        """
        flushed = 0
        link_of = self.server.link_of
        sessions = self._client_session
        mailed = self.server.take_mailed()
        mailed |= self._unflushed
        self._unflushed = unflushed = set()
        for client_id in mailed:
            link = link_of(client_id)
            if not link.queued_messages:
                continue  # a protocol marker already flushed it early
            session = sessions.get(client_id)
            if session is None or session.closed:
                unflushed.add(client_id)
            else:
                flushed += session.flush_link(link)
        marker = {"op": "cycle_end", "cycle": cycle, "now": now}
        for session in list(self._sessions.values()):
            if session.sync and not session.closed:
                session.send(marker)
            # The cycle's one write: error replies from the drain, then
            # markers and link mail in the order queued, cycle_end last.
            self._write_out(session)
        if flushed:
            self._m_flushed.inc(flushed)
        return flushed

    async def _drain_writers(self) -> None:
        sessions = list(self._sessions.values())
        for session in sessions:
            self._write_out(session)
        for session in sessions:
            if session.closed:
                continue
            try:
                await asyncio.wait_for(session.writer.drain(), timeout=30.0)
            except (ConnectionError, RuntimeError, asyncio.TimeoutError):
                # A peer that stopped reading cannot be allowed to stall
                # the cycle loop for everyone else.
                session.mark_closed()

    # -- server protocol observers (wire markers) ----------------------

    def _flush_then(self, client_id: int, marker: dict) -> None:
        """Flush a client's pending inbox, then emit ``marker``.

        The flush preserves wire order: everything the link accepted
        before the protocol event precedes the event's marker, so the
        wire client's rollback/commit lands on the same state the
        oracle mirror computes.
        """
        session = self._client_session.get(client_id)
        if session is None or session.closed:
            return
        try:
            link = self.server.link_of(client_id)
        except KeyError:
            return
        if link.queued_messages:
            self._m_flushed.inc(session.flush_link(link))
        session.send(marker)
        if not self._cycling:
            # An in-process caller's commit or wakeup: no cycle flush is
            # coming to carry the marker.
            self._write_out(session)

    def on_wakeup_begin(self, client_id: int) -> None:
        self._flush_then(
            client_id, {"op": "wakeup_begin", "client": client_id}
        )

    def on_wakeup_end(self, client_id: int) -> None:
        self._flush_then(client_id, {"op": "wakeup_end", "client": client_id})

    def on_commit(self, qid: int) -> None:
        try:
            client_id = self.server.client_of(qid)
        except KeyError:
            return
        self._flush_then(client_id, {"op": "committed", "qid": qid})

    # ------------------------------------------------------------------
    # HTTP plane
    # ------------------------------------------------------------------

    async def _handle_http(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await reader.readline()
            while True:
                header = await reader.readline()
                if header in (b"\r\n", b"\n", b""):
                    break
            parts = request.decode("latin-1").split()
            method = parts[0] if parts else ""
            path, _, query = (parts[1] if len(parts) > 1 else "/").partition("?")
            if method != "GET":
                self._http_reply(writer, 405, "text/plain", b"method not allowed")
            elif path == "/metrics":
                body = prometheus_text(self.registry).encode()
                self._http_reply(
                    writer, 200, "text/plain; version=0.0.4", body
                )
            elif path == "/state":
                client = parse_qs(query).get("client")
                try:
                    document = (
                        self.state()
                        if client is None
                        else self.client_state(int(client[-1]))
                    )
                except (KeyError, ValueError):
                    self._http_reply(writer, 404, "text/plain", b"no such client")
                else:
                    body = json.dumps(document, sort_keys=True).encode()
                    self._http_reply(writer, 200, "application/json", body)
            elif path == "/healthz":
                self._http_reply(writer, 200, "text/plain", b"ok")
            else:
                self._http_reply(writer, 404, "text/plain", b"not found")
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()

    @staticmethod
    def _http_reply(
        writer: asyncio.StreamWriter, status: int, ctype: str, body: bytes
    ) -> None:
        reason = {200: "OK", 404: "Not Found", 405: "Method Not Allowed"}.get(
            status, "Error"
        )
        writer.write(
            (
                f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            ).encode()
        )
        writer.write(body)

    def state(self) -> dict:
        """The ``/state`` document: one JSON snapshot of the deployment."""
        engine = self.server.engine
        return {
            "protocol": PROTOCOL_VERSION,
            "cycle": self.cycle_count,
            "sessions": self.admission.sessions_active,
            "clients": self.admission.clients_active,
            "queries": len(engine.queries),
            "objects": len(engine.objects),
            "pending_uplinks": self._pending_rows,
            "admission_rejections": self.admission.rejection_counts(),
            "oracle": (
                {
                    "attached": True,
                    "divergences": len(self.oracle.divergences),
                }
                if self.oracle is not None
                else {"attached": False}
            ),
            "chaos_active": self.injector is not None,
            "savings_ratio": self.server.savings_ratio(),
            "last_cycle": self.last_cycle,
        }

    def client_state(self, client_id: int) -> dict:
        """The ``/state?client=N`` document: one client's detail, read
        off its link on demand (``KeyError`` for an unknown client) —
        what a per-client metric series would have held, at no
        standing cost."""
        link = self.server.link_of(client_id)
        session = self._client_session.get(client_id)
        return {
            "client": client_id,
            "connected": link.connected,
            "session": session.session_id if session is not None else None,
            "queued_messages": link.queued_messages,
            "delivered_messages": link.delivered_messages,
            "delivered_bytes": link.delivered_bytes,
            "dropped_messages": link.dropped_messages,
            "dropped_bytes": link.dropped_bytes,
            "throttled_messages": getattr(link, "throttled_messages", 0),
            "throttled_bytes": getattr(link, "throttled_bytes", 0),
            "budget_bytes_per_cycle": link.budget_bytes_per_cycle,
            "queries": sorted(self.server.queries_of(client_id)),
        }

    # -- small helpers -------------------------------------------------

    def _count_op(self, name: str, n: int = 1) -> None:
        counter = self._m_ops.get(name)
        if counter is None:
            counter = self._m_ops[name] = self.registry.counter(
                "service_uplink_ops_total", labels={"o": name}
            )
        counter.inc(n)
