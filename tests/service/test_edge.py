"""The chunked service edge against a line-at-a-time reference.

``ServiceRuntime._handle_conn`` reads the socket in chunks, decodes the
complete lines of each read, and queues consecutive reports as runs of
columns.  None of that may be visible: for any bytes, under any
chunking, the replies, the counters and the engine must be what one
``decode_line`` + one queued op per line would have produced —
``per_line_conn`` below is that loop, kept here as the reference.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.admission import AdmissionConfig
from repro.service.protocol import (
    IMMEDIATE_OPS,
    ProtocolError,
    busy_op,
    decode_line,
    decode_lines,
    encode,
    error_op,
)
from repro.service.runtime import ServiceConfig, ServiceRuntime
from repro.service.session import ClientSession
from tests.service.test_session import FakeWriter

REGION = dict(minx=0.2, miny=0.2, maxx=0.8, maxy=0.8)

#: Series that say *how* the edge did its work, not what it did.
HOW_SERIES = (
    "service_uplink_lines_total",
    "service_uplink_rows_total",
    "service_uplink_seconds_total",
    "service_transport_writes_total",
)


class ConnWriter(FakeWriter):
    """A recording writer with the rest of what a connection touches."""

    def get_extra_info(self, name):
        return ("test", 0)

    def close(self) -> None:
        pass

    async def drain(self) -> None:
        pass

    @property
    def sent(self) -> bytes:
        return b"".join(self.writes)


class ChunkReader:
    """Hands ``_handle_conn`` the given chunks, then EOF."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    async def read(self, n: int) -> bytes:
        if not self.chunks:
            return b""
        assert len(self.chunks[0]) <= n
        return self.chunks.pop(0)


class Runtime(ServiceRuntime):
    """Keeps closed sessions so a test can read their accounting."""

    def __init__(self, **config):
        super().__init__(ServiceConfig(grid_size=8, **config))
        self.closed: list[ClientSession] = []

    def _close_session(self, session):
        self.closed.append(session)
        super()._close_session(session)

    def feed(self, *chunks: bytes) -> ConnWriter:
        """One connection's whole life over the chunked edge."""
        writer = ConnWriter()
        asyncio.run(self._handle_conn(ChunkReader(chunks), writer))
        return writer

    def service_counters(self) -> dict:
        return {
            (instrument.name, tuple(sorted(instrument.labels.items()))): instrument.value
            for instrument in self.registry
            if instrument.name.startswith("service_")
            and instrument.name not in HOW_SERIES
        }

    def engine_state(self) -> dict:
        engine = self.server.engine
        return {
            "objects": {
                oid: (state.location, state.velocity, state.t)
                for oid, state in engine.objects.items()
            },
            "answers": {qid: sorted(engine.answer_of(qid)) for qid in engine.queries},
            "buffered": list(engine._pending_reports.items()),
            "removals": set(engine._pending_removals),
        }


async def per_line_conn(runtime: Runtime, data: bytes, writer: ConnWriter) -> None:
    """The reference edge: ``readline()``, ``decode_line``, one FIFO
    entry per op — what the runtime did before it read in chunks."""
    runtime.admission.admit_session()
    session = ClientSession(runtime._next_session_id, writer)
    runtime._next_session_id += 1
    runtime._sessions[session.session_id] = session
    for line in _readlines(data):
        session.lines_in += 1
        try:
            op = decode_line(line)
        except ProtocolError as exc:
            session.send(error_op(exc.code, exc.detail))
            runtime._m_uplink_errors.inc()
            continue
        name = op["op"]
        runtime._count_op(name)
        if name == "bye":
            break
        if name in IMMEDIATE_OPS:
            await runtime._handle_immediate(session, op)
        elif runtime.admission.admit_uplinks(session.backlog):
            runtime._enqueue(session, op, 1)
        else:
            session.send(busy_op(runtime.config.admission.retry_after))
    runtime._close_session(session)
    runtime.admission.release_session()


def report_line(oid: int) -> bytes:
    return encode(
        {"op": "report", "client": 1, "oid": oid, "x": 0.5, "y": 0.5, "t": 1.0}
    )


def _readlines(data: bytes) -> list[bytes]:
    """What successive ``readline()`` calls return for ``data``."""
    lines = [line + b"\n" for line in data.split(b"\n")]
    last = lines.pop()[:-1]  # what followed the last newline
    return lines + [last] if last else lines


# ----------------------------------------------------------------------
# (a) any bytes, any chunking ≡ the per-line reference
# ----------------------------------------------------------------------

IDS = st.one_of(
    st.integers(0, 6),
    st.sampled_from([2**63, 2**63 - 1, -(2**63) - 1, 2**70, "3", "x", None, 1.5, True]),
)
COORDS = st.one_of(
    st.floats(-0.5, 1.5, allow_nan=False).map(lambda v: round(v, 3)),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), "0.5", "abc", None, 1, 1e308]),
)
TIMES = st.one_of(st.sampled_from([0.0, 1.0, 2.5]), COORDS)


def _json(op: dict) -> bytes:
    # json.dumps writes NaN / Infinity as the bare tokens json.loads accepts.
    return json.dumps(op, separators=(",", ":"), ensure_ascii=False).encode()


def _drop(fields: dict, missing: list[str]) -> dict:
    return {k: v for k, v in fields.items() if k not in missing}


REPORTS = st.builds(
    lambda oid, x, y, t, extra, missing: _json(
        _drop({"op": "report", "client": 1, "oid": oid, "x": x, "y": y, "t": t, **extra}, missing)
    ),
    IDS, COORDS, COORDS, TIMES,
    st.one_of(
        st.just({}),
        st.fixed_dictionaries({"vx": COORDS}),
        st.fixed_dictionaries({"vx": COORDS, "vy": COORDS}),
        st.just({"note": "żółw — 🐢"}),  # multi-byte text: cuts land mid-codepoint
    ),
    st.lists(st.sampled_from(["client", "oid", "x", "y", "t"]), max_size=1),
)  # fmt: skip
#: Mostly well-formed traffic, so runs form and queries hold answers.
GOOD_REPORTS = st.builds(
    lambda oid, x, y, t: _json({"op": "report", "client": 1, "oid": oid, "x": x, "y": y, "t": t}),
    st.integers(0, 6), st.floats(0, 1).map(lambda v: round(v, 3)),
    st.floats(0, 1).map(lambda v: round(v, 3)), st.sampled_from([0.0, 1.0]),
)  # fmt: skip
QUEUED = st.one_of(
    st.builds(
        lambda qid, kind, client: _json(
            {"op": "register", "client": client, "qid": qid, "kind": kind,
             "cx": 0.5, "cy": 0.5, "k": 2, "horizon": 3.0, **REGION}
        ),
        IDS, st.sampled_from(["range", "knn", "predictive", "cone"]), IDS,
    ),
    st.builds(
        lambda qid, maxx: _json({"op": "move", "qid": qid, "kind": "range", "t": 1.0, **{**REGION, "maxx": maxx}}),
        IDS, COORDS,
    ),
    st.builds(lambda qid: _json({"op": "commit", "qid": qid}), IDS),
    st.builds(lambda oid: _json({"op": "remove", "oid": oid}), IDS),
    st.builds(lambda qid: _json({"op": "unregister", "qid": qid}), IDS),
    st.builds(lambda client: _json({"op": "wakeup", "client": client}), IDS),
)  # fmt: skip
IMMEDIATE = st.one_of(
    st.builds(
        lambda client, extra: _json({"op": "hello", "client": client, **extra}),
        IDS,
        st.sampled_from([{}, {"sync": True}, {"budget": 64}, {"budget": "x"}, {"budget": -1}]),
    ),
    st.builds(
        lambda now: _json({"op": "tick"} if now is None else {"op": "tick", "now": now}),
        st.one_of(st.none(), st.sampled_from([1.0, 2.0, 3.0, 50.0]), COORDS),
    ),
    st.builds(lambda qid: _json({"op": "query_answer", "qid": qid}), IDS),
    st.sampled_from([b'{"op":"ping"}', b'{"op":"chaos_off"}', b'{"op":"bye"}']),
)
MALFORMED = st.one_of(
    st.sampled_from(
        [
            b"", b"   ", b"\t", b"\r", b"[1,2]", b"3", b'"report"', b"null",
            b'{"op":"report","client":1,"oid":1', b'{"op":"fly"}', b'{"op":["ping"]}',
            b'{"op":{"a":1}}', b"{}", b"not json", b'{"op":"ping"} trailing',
            b'{"op":"ping"}{"op":"ping"}', b'{"op":"ping","x":"\xff\xfe"}', b"\xff\xfe",
            b'\xc3{"op":"ping"}', b'{"op":"ping"}\xe2\x82', b'{"op":"ping","x":' + b"1" * 5000 + b"}",
            b'{"op":"ping","x":' + b"[" * 2000 + b"}",
        ]
    ),
    st.binary(max_size=12).filter(lambda raw: b"\n" not in raw),
)  # fmt: skip
#: Individually invalid, one valid JSON array element sequence when joined.
JOINABLE = st.sampled_from(
    [
        (b'{"z":[1', b'2]},{"op":"ping"}'),
        (b'{"op":"ping"},{"op":"ping"', b'"x":1}'),
        (b"[", b"]"),
        (b'{"op":"report","client":1,"oid":1,"x":0.5', b'"y":0.5,"t":1.0}'),
    ]
)


def _decorate(line: bytes, how: str) -> bytes:
    return {"": line, "crlf": line + b"\r", "lead": b"  " + line, "trail": line + b" \t"}[how]


LINE_GROUPS = st.one_of(
    st.lists(GOOD_REPORTS, min_size=1, max_size=6),
    st.lists(GOOD_REPORTS, min_size=1, max_size=6),  # twice: weight
    st.lists(REPORTS, min_size=1, max_size=4),
    st.lists(QUEUED, min_size=1, max_size=2),
    st.lists(IMMEDIATE, min_size=1, max_size=1),
    st.lists(MALFORMED, min_size=1, max_size=1),
    JOINABLE.map(list),
    st.builds(
        lambda line, how: [_decorate(line, how)],
        st.one_of(GOOD_REPORTS, QUEUED, IMMEDIATE),
        st.sampled_from(["crlf", "lead", "trail"]),
    ),
)


@st.composite
def streams(draw):
    """Wire bytes (usually opening with the traffic that makes later
    ops meaningful) and a chunking of them."""
    lines = []
    if draw(st.booleans()):
        lines += [
            _json({"op": "hello", "client": 1, "sync": True}),
            _json({"op": "register", "client": 1, "qid": 1, "kind": "range", **REGION}),
            _json({"op": "register", "client": 1, "qid": 2, "kind": "knn", "cx": 0.5, "cy": 0.5, "k": 2}),
        ]  # fmt: skip
    for group in draw(st.lists(LINE_GROUPS, max_size=12)):
        lines += group
    data = b"\n".join(lines)
    if draw(st.integers(0, 4)):
        data += b"\n"  # else: the last line is cut off by EOF
    cuts = sorted(draw(st.sets(st.integers(0, len(data)), max_size=10)))
    chunks = [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])]
    return data, [chunk for chunk in chunks if chunk]


@given(stream=streams(), max_backlog=st.sampled_from([3, 65_536]))
@settings(max_examples=150, deadline=None)
def test_any_chunking_equals_the_per_line_edge(stream, max_backlog):
    data, chunks = stream
    admission = AdmissionConfig(max_backlog=max_backlog)
    reference, chunked = Runtime(admission=admission), Runtime(admission=admission)
    want = ConnWriter()
    asyncio.run(per_line_conn(reference, data, want))
    got = chunked.feed(*chunks)
    assert got.sent == want.sent
    (ref_session,), (session,) = reference.closed, chunked.closed
    assert session.lines_in == ref_session.lines_in
    assert session.lines_out == ref_session.lines_out
    assert session.backlog == ref_session.backlog
    assert chunked.service_counters() == reference.service_counters()
    assert chunked.last_cycle == reference.last_cycle
    assert chunked._pending_rows == reference._pending_rows
    assert chunked.admission.rejection_counts() == reference.admission.rejection_counts()
    assert repr(chunked.engine_state()) == repr(reference.engine_state())
    chunked.server.engine.check_invariants()
    # Every line handled was decoded by exactly one of the two decoders
    # (a read's lines behind a ``bye`` are decoded and dropped).
    decoded = sum(
        chunked.registry.value_of("service_uplink_lines_total", {"decode": how})
        for how in ("scan", "line")
    )
    assert decoded >= session.lines_in
    assert decoded == session.lines_in or b'{"op":"bye"}' in data


@given(lines=st.lists(st.one_of(GOOD_REPORTS, REPORTS, QUEUED, IMMEDIATE, MALFORMED), max_size=20))
@settings(max_examples=150, deadline=None)
def test_decode_lines_gives_each_line_decode_line_s_verdict(lines):
    """Line by line: the same op, or the same error code and text;
    reports grouped into runs, everything else closing one."""
    text = b"\n".join(lines).decode("utf-8", errors="replace").split("\n") if lines else []
    items, fallbacks = decode_lines(text)
    flat = []
    for item in items:
        if isinstance(item, list):
            assert item and all(op["op"] == "report" for op in item)
            flat += item
        else:
            assert not (isinstance(item, dict) and item["op"] == "report")
            flat.append(item)
    assert len(flat) == len(lines)
    assert 0 <= fallbacks <= len(lines)
    for raw, item in zip(lines, flat):
        try:
            want = decode_line(raw)
        except ProtocolError as exc:
            assert isinstance(item, ProtocolError)
            assert (item.code, item.detail) == (exc.code, exc.detail)
        else:
            assert repr(item) == repr(want)  # repr: NaN fields compare
    # Two adjacent runs never stay split.
    assert not any(
        isinstance(a, list) and isinstance(b, list) for a, b in zip(items, items[1:])
    )


def test_replacement_decoding_never_moves_a_newline():
    """Why a read may be decoded whole and split: with
    ``errors="replace"`` every line's text is what its own bytes
    decode to, whatever broken sequence precedes the newline."""
    pieces = [b"\xff", b"\xc3", b"\xe2\x82", b"\xf0\x9f\x90", b"ok", b"", b"\xc3\xa9", b"\x80\x80"]
    for a in pieces:
        for b in pieces:
            whole = (a + b"\n" + b).decode("utf-8", errors="replace")
            assert whole.split("\n") == [
                a.decode("utf-8", errors="replace"),
                b.decode("utf-8", errors="replace"),
            ]


# ----------------------------------------------------------------------
# (b) hostile rows inside a run
# ----------------------------------------------------------------------


def test_a_run_with_hostile_rows_refuses_exactly_those_rows_in_order():
    nan = float("nan")
    rows = [
        dict(oid=1, x=0.1, y=0.1, t=1.0),
        dict(oid=2, x=nan, y=0.5, t=1.0),  # refused by the engine
        dict(oid=1, x=0.3, y=0.3, t=1.0),  # supersedes row 0
        dict(oid=2**63, x=0.5, y=0.5, t=1.0),
        dict(oid="4", x="0.25", y=0.5, t=1.0),  # string-typed numbers are numbers
        dict(oid=5, x=0.5, y=0.5, t=nan),
        dict(oid=6, x=7.0, y=-3.0, t=1.0, vx=0.5),  # out of world: clamped
        dict(oid=None, x=0.5, y=0.5, t=1.0),
        dict(oid=7, x=0.5, y=0.5, t=1.0, vy="fast"),
        dict(oid=8, x=0.9, y=0.9, t=1.0),
    ]
    lines = [encode({"op": "report", "client": 1, **row}) for row in rows]
    reference, chunked = Runtime(), Runtime()
    want = ConnWriter()
    asyncio.run(per_line_conn(reference, b"".join(lines) + b'{"op":"tick"}\n', want))
    got = chunked.feed(b"".join(lines) + b'{"op":"tick"}\n')
    assert got.sent == want.sent
    replies = [json.loads(line) for line in got.sent.splitlines()]
    assert [op["op"] for op in replies] == ["error"] * 5 + ["cycle"]
    assert [op["detail"].split(":")[0] for op in replies[:5]] == ["report"] * 5
    assert "non-finite" in replies[0]["detail"] and "int64" in replies[1]["detail"]
    assert replies[-1]["uplinks_applied"] == 5 and replies[-1]["uplink_errors"] == 5
    assert repr(chunked.engine_state()) == repr(reference.engine_state())
    assert sorted(chunked.server.engine.objects) == [1, 4, 6, 8]
    # One run, one replay: every row of it took the per-row door.
    value_of = chunked.registry.value_of
    assert value_of("service_uplink_rows_total", {"path": "scalar"}) == len(rows)
    assert value_of("service_uplink_rows_total", {"path": "batch"}) == 0
    assert value_of("net_uplink_messages_total") == reference.registry.value_of(
        "net_uplink_messages_total"
    )


def test_a_clean_read_takes_the_batch_doors_and_the_scanner():
    runtime = Runtime()
    writer = runtime.feed(
        b"".join(map(report_line, range(50))) + b'{"op":"tick","now":1.0}\n'
    )
    assert json.loads(writer.sent)["uplinks_applied"] == 50
    value_of = runtime.registry.value_of
    assert value_of("service_uplink_rows_total", {"path": "batch"}) == 50
    assert value_of("service_uplink_rows_total", {"path": "scalar"}) == 0
    assert value_of("service_uplink_lines_total", {"decode": "scan"}) == 51
    assert value_of("service_uplink_lines_total", {"decode": "line"}) == 0
    assert value_of("service_uplink_ops_total", {"o": "report"}) == 50
    assert value_of("net_uplink_messages_total") == 50
    assert len(runtime._pending) == 0 and len(runtime.server.engine.objects) == 50
    # One read: the cycle reply left in the single end-of-read write...
    assert value_of("service_transport_writes_total") == 1
    # ...and both stages were timed on the tracer.
    for stage in ("decode", "apply"):
        assert value_of("service_uplink_seconds_total", {"stage": stage}) > 0


# ----------------------------------------------------------------------
# (d) per-row backpressure, (e) what closes a run
# ----------------------------------------------------------------------


def test_a_run_longer_than_the_allowance_queues_the_allowance():
    runtime = Runtime(admission=AdmissionConfig(max_backlog=4, retry_after=0.5))
    block = (
        encode({"op": "remove", "oid": 99})  # one queued op: allowance 3
        + b"".join(map(report_line, range(8)))
        + encode({"op": "ping"})
    )
    reader, writer = ChunkReader([block]), ConnWriter()

    async def one_read():
        task = asyncio.ensure_future(runtime._handle_conn(reader, writer))
        while not writer.writes:
            await asyncio.sleep(0)
        state = runtime.state()["pending_uplinks"], len(runtime._pending)
        await task
        return state

    rows, entries = asyncio.run(one_read())
    assert (rows, entries) == (4, 2)  # the remove, and one run of three
    replies = [json.loads(line) for line in writer.sent.splitlines()]
    assert replies == [{"op": "busy", "retry_after": 0.5}] * 5 + [
        {"op": "pong", "protocol": 1}
    ]
    assert runtime.admission.rejection_counts()["backpressure"] == 5
    assert runtime.registry.value_of("service_uplink_ops_total", {"o": "report"}) == 8
    assert runtime.registry.value_of("service_uplink_backlog") == 4


def test_a_tick_inside_a_read_sees_only_the_run_before_it():
    runtime = Runtime()
    writer = runtime.feed(
        encode({"op": "hello", "client": 1, "sync": True})
        + encode({"op": "register", "client": 1, "qid": 5, "kind": "range", **REGION})
        + report_line(1) + report_line(2)
        + encode({"op": "tick", "now": 1.0})
        + report_line(3)
        + encode({"op": "tick", "now": 2.0})
    )  # fmt: skip
    replies = [json.loads(line) for line in writer.sent.splitlines()]
    kinds = [op["op"] for op in replies]
    assert kinds == ["welcome", "update", "update", "cycle_end", "cycle", "update", "cycle_end", "cycle"]
    first, second = (op for op in replies if op["op"] == "cycle")
    assert first["uplinks_applied"] == 3 and second["uplinks_applied"] == 1
    assert [op["oid"] for op in replies if op["op"] == "update"] == [1, 2, 3]
    # Each cycle is two writes — its flush, ending in cycle_end, then
    # the reply — whatever else the session had queued before it.
    assert [json.loads(w.splitlines()[-1])["op"] for w in writer.writes] == [
        "cycle_end", "cycle", "cycle_end", "cycle",
    ]  # fmt: skip


def test_a_move_of_the_wrong_kind_is_an_error_line_not_a_dead_cycle():
    """Found by the property above: ``kind: "range"`` for a k-NN query
    buffered a rectangle where the engine expected a point."""
    runtime = Runtime()
    writer = runtime.feed(
        encode({"op": "hello", "client": 1})
        + encode({"op": "register", "client": 1, "qid": 2, "kind": "knn", "cx": 0.5, "cy": 0.5, "k": 2})
        + report_line(1)
        + encode({"op": "move", "qid": 2, "kind": "range", "t": 1.0, **REGION})
        + encode({"op": "tick", "now": 1.0})
        + encode({"op": "move", "qid": 2, "kind": "predictive", "t": 2.0, **REGION})
        + encode({"op": "move", "qid": 2, "kind": "knn", "cx": 0.4, "cy": 0.4, "t": 2.0})
        + encode({"op": "tick", "now": 2.0})
    )  # fmt: skip
    replies = [json.loads(line) for line in writer.sent.splitlines()]
    assert [op["op"] for op in replies if op["op"] in ("error", "cycle")] == [
        "error", "cycle", "error", "cycle",
    ]  # fmt: skip
    assert {op["detail"] for op in replies if op["op"] == "error"} == {
        "move: query 2 is a knn query"
    }
    assert [op["uplink_errors"] for op in replies if op["op"] == "cycle"] == [1, 1]
    assert runtime.server.engine.answer_of(2) == {1}


def test_a_welcome_reaches_the_wire_without_a_cycle():
    runtime = Runtime()
    writer = runtime.feed(encode({"op": "hello", "client": 1}))
    assert [json.loads(line)["op"] for line in writer.sent.splitlines()] == ["welcome"]
    assert runtime.cycle_count == 0


# ----------------------------------------------------------------------
# Immediate ops with bad values, and the line limit — over the socket
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "bad",
    [
        {"op": "hello", "client": "abc"},
        {"op": "hello", "client": 5, "budget": "x"},
        {"op": "hello", "client": 5, "budget": -1},
        {"op": "hello", "client": 2**70},
        {"op": "hello", "client": None},
        {"op": "tick", "now": "abc"},
        {"op": "tick", "now": float("nan")},
        {"op": "tick", "now": float("inf")},
        {"op": "tick", "now": [1]},
        {"op": "query_answer", "qid": "zz"},
        {"op": "query_answer", "qid": 2**63},
    ],
    ids=lambda op: "-".join(f"{k}={v}" for k, v in op.items() if k != "op") + "-" + op["op"],
)
def test_an_immediate_op_with_a_bad_value_is_an_error_line(bad, make_runtime, make_wire):
    runtime = make_runtime(grid_size=8)
    wire = make_wire(runtime)
    reply = wire.request(**bad)
    assert reply["op"] == "error" and reply["code"] == "bad_value"
    assert reply["detail"].startswith(bad["op"] + ": ")
    assert wire.request("ping") == {"op": "pong", "protocol": 1}
    assert runtime.registry.value_of("service_uplink_errors_total") == 1
    assert runtime.cycle_count == 0 and not runtime.server.client_ids()


def test_a_tick_behind_the_engine_is_refused_before_anything_is_drained(
    make_runtime, make_wire
):
    runtime = make_runtime(grid_size=8)
    wire = make_wire(runtime)
    wire.request("hello", client=1)
    assert wire.request("tick", now=5.0)["op"] == "cycle"
    wire.send("report", client=1, oid=1, x=0.5, y=0.5, t=5.0)
    reply = wire.request("tick", now=1.0)
    assert reply["op"] == "error" and reply["code"] == "bad_value"
    assert runtime.state()["pending_uplinks"] == 1  # still queued
    # A default ``now`` (the cycle number) that would run backwards too.
    assert wire.request("tick")["code"] == "bad_value"
    assert wire.request("ping")["op"] == "pong"
    summary = wire.request("tick", now=5.0)
    assert summary["uplinks_applied"] == 1 and summary["cycle"] == 1


def test_an_over_limit_line_is_answered_and_the_connection_closed(
    make_runtime, make_wire
):
    from repro.service.runtime import _LINE_LIMIT

    runtime = make_runtime(grid_size=8)
    wire = make_wire(runtime)
    wire.send("ping")
    wire.send_raw(b'{"op":"ping","pad":"' + b"x" * (_LINE_LIMIT + 8) + b'"}\n')
    assert wire.recv() == {"op": "pong", "protocol": 1}
    reply = wire.recv()
    assert reply["op"] == "error" and reply["code"] == "line_too_long"
    assert wire.file.readline() == b""  # closed cleanly
    assert runtime.registry.value_of("service_uplink_errors_total") == 1
    other = make_wire(runtime)
    assert other.request("ping") == {"op": "pong", "protocol": 1}
    # At the limit exactly, a line is only a line.
    pad = _LINE_LIMIT - len(b'{"op":"ping","pad":""}')
    other.send_raw(b'{"op":"ping","pad":"' + b"x" * pad + b'"}\n')
    assert other.recv() == {"op": "pong", "protocol": 1}
