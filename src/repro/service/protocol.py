"""The line-delimited JSON wire protocol of the live service.

One request or event per line, UTF-8, compact JSON, ``\\n``-terminated —
the shape a ``socket.makefile()`` / ``asyncio.StreamReader`` pair reads
and writes without framing code.  Every object carries an ``"op"`` key;
everything else is op-specific.

Two decoders share one validator (:func:`check_op`), so they cannot
disagree on a line: :func:`decode_line` is the reference — one line in,
one op or one :class:`ProtocolError` out — and :func:`decode_lines` is
what the runtime runs on the complete lines of one socket read.  It
decodes **each line on its own** with the C scanner and takes its word
only when the scanner consumed the whole line; a line it cannot vouch
for (CRLF, blanks, empty, not JSON) goes alone through
:func:`decode_line` and scanning resumes after it.  Parsing a read as
one JSON array would be faster still and is wrong: it accepts pairs of
individually invalid lines (``{"z":[1`` / ``2]},{"op":"ping"}``).
Consecutive ``report`` ops come back grouped as one *run* — the unit
the runtime queues and the engine buffers.

Uplink (client → server)
------------------------

========== ============================================================
op          fields
========== ============================================================
hello       ``client`` (int), optional ``budget`` (bytes/cycle →
            :class:`~repro.net.ThrottledLink`), optional ``sync``
            (bool: session wants ``cycle_end`` markers)
report      ``client``, ``oid``, ``x``, ``y``, ``t``, optional
            ``vx``/``vy``
remove      ``oid``
register    ``client``, ``qid``, ``kind`` (``range``/``knn``/
            ``predictive``), region or center fields, ``k``,
            ``horizon``, optional ``t``
move        ``qid``, ``kind``, region/center fields, ``t``
unregister  ``qid``
commit      ``qid``
wakeup      ``client``
tick        optional ``now`` — run one evaluation cycle (control)
query_answer ``qid`` — read back the live engine answer (control)
chaos_off   uninstall the fault plan, wake dark clients (control)
ping        liveness probe
bye         orderly close
========== ============================================================

Downlink (server → client)
--------------------------

``welcome``/``reject`` answer ``hello``; ``update`` and ``answer``
carry the engine's incremental stream and full-answer recoveries;
``wakeup_begin``/``wakeup_end``/``committed`` mirror the server's
protocol observer events so a wire client can maintain exactly the
state the consistency oracle's mirror holds; ``cycle_end`` marks the
end of one cycle's flush on sync sessions; ``busy`` (with
``retry_after``) is the backpressure verdict; ``error`` reports a bad
op without closing the session.
"""

from __future__ import annotations

import json

from repro.net.messages import (
    FullAnswerMessage,
    Message,
    UpdateMessage,
)

PROTOCOL_VERSION = 1

#: Ops a client may send.  ``tick``/``query_answer``/``chaos_off`` are
#: control-plane ops (the load driver and tests pace cycles with them).
UPLINK_OPS = frozenset(
    {
        "hello",
        "report",
        "remove",
        "register",
        "move",
        "unregister",
        "commit",
        "wakeup",
        "tick",
        "query_answer",
        "chaos_off",
        "ping",
        "bye",
    }
)

#: Ops handled immediately by the reader (admission, control plane,
#: liveness); everything else queues for the next evaluation cycle.
IMMEDIATE_OPS = frozenset(
    {"hello", "tick", "query_answer", "chaos_off", "ping", "bye"}
)

_REQUIRED_FIELDS: dict[str, tuple[str, ...]] = {
    "hello": ("client",),
    "report": ("client", "oid", "x", "y", "t"),
    "remove": ("oid",),
    "register": ("client", "qid", "kind"),
    "move": ("qid", "kind", "t"),
    "unregister": ("qid",),
    "commit": ("qid",),
    "wakeup": ("client",),
    "query_answer": ("qid",),
}

_REQUIRED_KEYS = {op: frozenset(fields) for op, fields in _REQUIRED_FIELDS.items()}

QUERY_KINDS = ("range", "knn", "predictive")

#: The C scanner behind ``json.loads``, without its whitespace handling:
#: ``(value, end)`` for the JSON value starting at an index.
_scan_once = json.JSONDecoder().scan_once


class ProtocolError(ValueError):
    """A malformed line or op; ``code`` travels on the error response."""

    def __init__(self, code: str, detail: str):
        super().__init__(detail)
        self.code = code
        self.detail = detail


def encode(obj: dict) -> bytes:
    """One wire line: compact JSON plus the terminating newline."""
    return json.dumps(obj, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes | str) -> dict:
    """Parse and validate one uplink line into an op dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty", "empty line")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:
        # Not only JSONDecodeError: an integer literal past the digit
        # limit is a plain ValueError, a mile of ``[`` a RecursionError.
        raise ProtocolError("bad_json", f"not JSON: {exc}") from exc
    return check_op(obj)


def check_op(obj: object) -> dict:
    """Validate one decoded JSON value as an uplink op (the half of
    :func:`decode_line` after the parse)."""
    if not isinstance(obj, dict):
        raise ProtocolError("bad_json", "line must be a JSON object")
    op = obj.get("op")
    # An unhashable ``op`` (a list, an object) is unknown, not a crash.
    if not isinstance(op, str) or op not in UPLINK_OPS:
        raise ProtocolError("bad_op", f"unknown op {op!r}")
    required = _REQUIRED_KEYS.get(op)
    if required is not None and not required <= obj.keys():
        missing = [field for field in _REQUIRED_FIELDS[op] if field not in obj]
        raise ProtocolError(
            "missing_field", f"op {op!r} missing fields {missing}"
        )
    if op in ("register", "move") and obj["kind"] not in QUERY_KINDS:
        raise ProtocolError(
            "bad_kind", f"kind must be one of {QUERY_KINDS}, got {obj['kind']!r}"
        )
    return obj


def decode_lines(
    lines: list[str],
) -> tuple[list["dict | list[dict] | ProtocolError"], int]:
    """Decode the complete lines of one read, each on its own.

    Returns the decoded sequence in line order plus how many lines the
    scanner could not vouch for (they took :func:`decode_line`).  An
    item is an op dict, the :class:`ProtocolError` a bad line earned,
    or — for consecutive ``report`` ops — one list holding the run.
    ``lines`` are already text, split on ``\\n`` only: UTF-8 decoding
    with ``errors="replace"`` never moves a newline, so decoding a
    read whole and splitting gives each line the text
    :func:`decode_line` would have made of its bytes.
    """
    items: list = []
    run: list[dict] | None = None
    fallbacks = 0
    for line in lines:
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1  # decode_line words the verdict
        try:
            if end == len(line):
                op = check_op(obj)
            else:
                fallbacks += 1
                op = decode_line(line)
        except ProtocolError as exc:
            items.append(exc)
            run = None
            continue
        if op["op"] != "report":
            items.append(op)
            run = None
        elif run is None:
            run = [op]
            items.append(run)
        else:
            run.append(op)
    return items, fallbacks


def downlink_op(message: Message) -> dict:
    """The wire form of one link-delivered message."""
    if isinstance(message, UpdateMessage):
        return {
            "op": "update",
            "qid": message.qid,
            "oid": message.oid,
            "sign": message.sign,
        }
    if isinstance(message, FullAnswerMessage):
        return {
            "op": "answer",
            "qid": message.qid,
            "oids": sorted(message.oids),
        }
    raise ProtocolError(
        "bad_downlink", f"unencodable downlink message {type(message).__name__}"
    )


_UPDATE_LINE = b'{"op":"update","qid":%d,"oid":%d,"sign":%d}\n'


def encode_downlink(inbox) -> bytes:
    """The wire lines of one link's :class:`~repro.net.Inbox`,
    concatenated.

    Byte-identical to ``b"".join(encode(downlink_op(m)) for m in
    inbox)``; ``update`` lines — nearly all downlink traffic — are
    formatted straight from the zipped columns, with no message, dict
    or JSON encoder in between.
    """
    rows = zip(inbox.qids, inbox.oids, inbox.signs)
    others = inbox.others
    if not others:
        return b"".join(map(_UPDATE_LINE.__mod__, rows))
    return b"".join(
        _UPDATE_LINE % row if row[2] else encode(downlink_op(others[at]))
        for at, row in enumerate(rows)
    )


def error_op(code: str, detail: str) -> dict:
    return {"op": "error", "code": code, "detail": detail}


def busy_op(retry_after: float) -> dict:
    return {"op": "busy", "retry_after": retry_after}


def reject_op(reason: str, retry_after: float) -> dict:
    return {"op": "reject", "reason": reason, "retry_after": retry_after}
