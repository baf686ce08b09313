"""Wire workloads: the same op streams, socket to socket.

``python -m repro.service --interval 0`` runs in its own process (through
``serve.py``); this driver is one thread holding two TCP connections — a
multiplexed data session (``sync: true``) carrying every client, and a
control connection that only ticks cycles and reads answers back.

One closed-loop cycle::

    data:    write pre-encoded ops + ping      ─┐ service.uplink_phase_s
    data:    read until pong                   ─┘
    control: write tick                        ─┐ service.tick_s
    control: read the cycle summary            ─┘
    data:    read raw until the cycle_end line ── service.downlink_phase_s

The window is first byte written → ``cycle_end`` read.  Lines are
encoded before it opens; downlink bytes are kept raw and folded into
per-query answers after it closes.
"""

from __future__ import annotations

import json
import selectors
import signal
import socket
import subprocess
import sys
from time import perf_counter

from repro.service.protocol import encode

import config
import harness
import layers
import measure
import serve
import verify

_PING = b'{"op":"ping"}\n'
_PONG_PREFIX = b'{"op":"pong"'
_CYCLE_END_PREFIX = b'{"op":"cycle_end"'
#: Downlink ops that mean the server refused or failed something.
_FAILURE_OPS = ("busy", "reject", "error")


def encode_ops(ops: list[tuple]) -> list[bytes]:
    """Generator tuples as wire lines (``repro.service.protocol.encode``)."""
    lines = []
    for op in ops:
        kind = op[0]
        if kind == "report":
            _, oid, x, y, vx, vy, t = op
            line = {"op": "report", "client": oid, "oid": oid, "x": x, "y": y, "t": t}
            if vx or vy:
                line["vx"], line["vy"] = vx, vy
        elif kind == "move":
            if op[2] == "knn":
                _, qid, _, cx, cy, t = op
                line = {"op": "move", "qid": qid, "kind": "knn", "cx": cx, "cy": cy, "t": t}
            else:
                _, qid, qkind, minx, miny, maxx, maxy, t = op
                line = {
                    "op": "move", "qid": qid, "kind": qkind, "t": t,
                    "minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy,
                }
        elif kind == "commit":
            line = {"op": "commit", "qid": op[1]}
        elif kind == "hello":
            line = {"op": "hello", "client": op[1], "sync": True}
        elif kind == "register":
            if op[3] == "knn":
                _, client, qid, _, cx, cy, k = op
                line = {
                    "op": "register", "client": client, "qid": qid,
                    "kind": "knn", "cx": cx, "cy": cy, "k": k, "t": 0.0,
                }
            else:
                _, client, qid, qkind, minx, miny, maxx, maxy, horizon = op
                line = {
                    "op": "register", "client": client, "qid": qid,
                    "kind": qkind, "t": 0.0, "horizon": horizon,
                    "minx": minx, "miny": miny, "maxx": maxx, "maxy": maxy,
                }
        else:
            raise ValueError(f"unknown op {op!r}")
        lines.append(encode(line))
    return lines


def _blob(lines: list[bytes]) -> bytes:
    return b"".join(lines) + _PING


def _last_line_starts(buffer: bytearray, prefix: bytes) -> bool:
    if not buffer.endswith(b"\n"):
        return False
    return buffer.startswith(prefix, buffer.rfind(b"\n", 0, len(buffer) - 1) + 1)


class ServerProcess:
    """The service in its own process; stopped on every exit path."""

    def __init__(self, shape: config.Shape, service_args: list[str], trace_path=None):
        command = [sys.executable, str(config.HERE / "serve.py")]
        if trace_path is not None:
            command += ["--e2e-trace", str(trace_path)]
        command += [
            "--host", "127.0.0.1", "--port", "0", "--http-port", "0",
            "--interval", "0",
            # Admission must never shed the benchmark's own load.
            "--max-clients", str(shape.clients + 1_000),
            "--max-backlog", str(4 * (shape.clients + shape.objects + shape.queries)),
            *service_args,
        ]
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, text=True, env=config.child_env()
        )
        try:
            self.baseline_kb = int(self._line_after(serve.BASELINE_PREFIX))
            # "... listening on HOST:PORT (http HOST:PORT)"
            where = self._line_after("listening on ").replace("(http ", "").rstrip(")")
            tcp, http = where.split()
            self.tcp_address = self._address(tcp)
            self.http_address = self._address(http)
        except BaseException:
            self.stop()
            raise

    def _line_after(self, marker: str) -> str:
        for line in self.proc.stdout:
            if marker in line:
                return line.partition(marker)[2].strip()
        raise RuntimeError(f"server exited before printing {marker!r}")

    @staticmethod
    def _address(text: str) -> tuple[str, int]:
        host, _, port = text.rpartition(":")
        return host, int(port)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


class Driver:
    """The two connections and the lock-step cycle."""

    def __init__(self, server: ServerProcess):
        self.data = socket.create_connection(server.tcp_address, timeout=config.HARD_TIMEOUT_S)
        self.control = socket.create_connection(server.tcp_address, timeout=config.HARD_TIMEOUT_S)
        for sock in (self.data, self.control):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.data, selectors.EVENT_READ)
        self._selector.register(self.control, selectors.EVENT_READ)

    def close(self) -> None:
        self._selector.close()
        for sock in (self.data, self.control):
            try:
                sock.sendall(b'{"op":"bye"}\n')
            except OSError:
                pass
            sock.close()

    def send_until_pong(self, blob: bytes) -> bytearray:
        """Write ``blob`` (whole lines ending in a ping) on the data
        session; the pong proves the server has read every line."""
        self.data.sendall(blob)
        buffer = bytearray()
        while not _last_line_starts(buffer, _PONG_PREFIX):
            chunk = self.data.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the data session")
            buffer += chunk
        return buffer

    def request(self, op: dict) -> dict:
        """One control-plane request and its one-line reply."""
        self.control.sendall(json.dumps(op, separators=(",", ":")).encode() + b"\n")
        buffer = bytearray()
        while not buffer.endswith(b"\n"):
            chunk = self.control.recv(1 << 20)
            if not chunk:
                raise ConnectionError("server closed the control connection")
            buffer += chunk
        return json.loads(buffer)

    def tick(self, now: float) -> tuple[dict, bytearray, float, float]:
        """Run one cycle: returns ``(summary, raw downlink, time the
        summary arrived, time cycle_end arrived)``.  Both sockets are
        read as they become ready, so neither waits on the driver."""
        self.control.sendall(f'{{"op":"tick","now":{now!r}}}\n'.encode())
        reply, downlink = bytearray(), bytearray()
        replied = ended = None
        while replied is None or ended is None:
            events = self._selector.select(timeout=config.HARD_TIMEOUT_S)
            if not events:
                raise TimeoutError("no cycle reply from the server")
            for key, _ in events:
                chunk = key.fileobj.recv(1 << 20)
                if not chunk:
                    raise ConnectionError("server closed the connection")
                if key.fileobj is self.control:
                    reply += chunk
                    if reply.endswith(b"\n"):
                        replied = perf_counter()
                else:
                    downlink += chunk
                    if _last_line_starts(downlink, _CYCLE_END_PREFIX):
                        ended = perf_counter()
        return json.loads(reply), downlink, replied, ended


def http_get(address: tuple[str, int], path: str) -> bytes:
    """Body of one GET against the runtime's HTTP plane."""
    with socket.create_connection(address, timeout=60) as sock:
        sock.sendall(
            f"GET {path} HTTP/1.1\r\nHost: {address[0]}\r\n"
            "Connection: close\r\n\r\n".encode()
        )
        chunks = []
        while chunk := sock.recv(1 << 20):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    if not head.startswith(b"HTTP/1.1 200"):
        raise RuntimeError(f"GET {path}: {head[:40]!r}")
    return body


class Wire:
    """Transport over the service's sockets."""

    def __init__(self, shape: config.Shape, trace: bool):
        self.shape = shape
        self.trace = trace
        self._service_args = config.service_args()
        self._trace_path = config.OUT_DIR / f"trace_{shape.name}.json"
        self.server: ServerProcess | None = None
        self.driver: Driver | None = None
        self._hello_s = 0.0
        self._builds = 0

    def build(self, workload, fold: verify.Fold, tally: verify.Tally) -> float:
        """A fresh server process through its first cycle; returns the
        seconds since the process was started.  Only the first build is
        traced — the rebuilds exist for ``setup_s`` alone."""
        first = self._builds == 0
        self._builds += 1
        # Lines first: the clock starts when the process does.
        hellos, registrations, reports = (
            encode_ops(stage) for stage in workload.setup_ops()
        )
        queued = registrations + reports
        self.server = ServerProcess(
            self.shape,
            self._service_args,
            self._trace_path if self.trace and first else None,
        )
        self.driver = driver = Driver(self.server)
        mark = perf_counter()
        raw = driver.send_until_pong(_blob(hellos))
        if first:
            self._hello_s = perf_counter() - mark
        raw += driver.send_until_pong(_blob(queued))
        summary, downlink, _, ended = driver.tick(0.0)
        # A refused hello comes back as a ``reject``/``error`` line,
        # which the fold below counts.
        tally.ops(len(hellos) + len(queued), len(queued) - summary["uplinks_applied"])
        self.fold(raw + downlink, fold, tally)
        return ended - self.server.started

    prepare = staticmethod(encode_ops)

    def cycle(self, lines: list[bytes], now: float) -> harness.Cycle:
        driver = self.driver
        blob = _blob(lines)
        opened = perf_counter()
        uplink_raw = driver.send_until_pong(blob)
        ponged = perf_counter()
        summary, downlink, replied, ended = driver.tick(now)
        refused = len(lines) - summary["uplinks_applied"]
        received = uplink_raw + downlink
        return harness.Cycle(
            seconds=ended - opened,
            number=summary["cycle"],
            downlink_bytes=len(received),
            delivered=summary["delivered_updates"],
            emitted=summary["delivered_updates"] + summary["dropped_updates"],
            refused=refused,
            received=received,
            uplink_lines=len(lines) + 1,
            downlink_lines=received.count(b"\n"),
            phases={
                "service.uplink_phase_s": ponged - opened,
                "service.tick_s": replied - ponged,
                "service.downlink_phase_s": max(0.0, ended - replied),
            },
        )

    @staticmethod
    def fold(raw: bytearray, fold: verify.Fold, tally: verify.Tally) -> None:
        for line in raw.splitlines():
            op = json.loads(line)
            name = op["op"]
            if name == "update":
                fold.apply(op["qid"], op["oid"], op["sign"])
            elif name in _FAILURE_OPS:
                tally.fail(f"server said {line.decode()[:120]}")

    def program_counters(self) -> dict[str, float]:
        text = http_get(self.server.http_address, "/metrics").decode()
        return layers.read_program_counters(layers.scrape_value_of(text))

    def rss_kb(self) -> int:
        return measure.rss_kb(self.server.pid)

    def peak_rss_kb(self) -> int:
        return measure.hwm_kb(self.server.pid) - self.server.baseline_kb

    @staticmethod
    def answer_sample(qids: list[int], rng) -> list[int]:
        return rng.sample(qids, min(verify.WIRE_ANSWER_SAMPLE, len(qids)))

    def answer_of(self, qid: int) -> list[int]:
        reply = self.driver.request({"op": "query_answer", "qid": qid})
        if reply["op"] != "answer_state":
            raise RuntimeError(f"query_answer {qid}: {reply}")
        return reply["oids"]

    def check_invariants(self, tally: verify.Tally) -> None:
        """The engine is in another process; nothing to call."""

    def layer_extras(self) -> dict[str, float]:
        """Hello rate from the first build, and one ``GET /metrics``
        after the last cycle."""
        mark = perf_counter()
        body = http_get(self.server.http_address, "/metrics")
        seconds = perf_counter() - mark
        return {
            "service.hello_per_s": self.shape.clients / self._hello_s,
            "service.scrape_s": seconds,
            "service.scrape_bytes": len(body),
            "obs.series_count": layers.series_count(body.decode()),
        }

    def spans(self) -> list[dict]:
        """The server's spans, dumped by ``serve.py`` when it stopped."""
        return json.loads(self._trace_path.read_text(encoding="utf-8"))["spans"]

    def teardown(self) -> None:
        if self.driver is not None:
            self.driver.close()
            self.driver = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    close = teardown
