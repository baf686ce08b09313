"""Wire grammar: encode/decode validation and downlink rendering."""

import json

import pytest

from repro.net import ClientLink
from repro.net.messages import (
    FullAnswerMessage,
    UpdateMessage,
    WakeupMessage,
)
from repro.service.protocol import (
    IMMEDIATE_OPS,
    UPLINK_OPS,
    ProtocolError,
    busy_op,
    decode_line,
    downlink_op,
    encode,
    encode_downlink,
    error_op,
    reject_op,
)


class TestEncode:
    def test_one_compact_line(self):
        raw = encode({"op": "ping"})
        assert raw.endswith(b"\n")
        assert b" " not in raw
        assert json.loads(raw) == {"op": "ping"}

    def test_roundtrip(self):
        op = {"op": "report", "client": 1, "oid": 2, "x": 0.5, "y": 0.5, "t": 1.0}
        assert decode_line(encode(op)) == op


class TestDecode:
    def test_accepts_str_and_bytes(self):
        assert decode_line('{"op": "ping"}')["op"] == "ping"
        assert decode_line(b'{"op": "ping"}\n')["op"] == "ping"

    @pytest.mark.parametrize(
        "line,code",
        [
            (b"", "empty"),
            (b"   \n", "empty"),
            (b"not json\n", "bad_json"),
            (b"[1, 2]\n", "bad_json"),
            (b'{"op": "explode"}\n', "bad_op"),
            (b'{"no_op": 1}\n', "bad_op"),
            (b'{"op": "report", "client": 1}\n', "missing_field"),
            (b'{"op": "wakeup"}\n', "missing_field"),
            (
                b'{"op": "register", "client": 1, "qid": 2, "kind": "cube"}\n',
                "bad_kind",
            ),
        ],
    )
    def test_rejections_carry_codes(self, line, code):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(line)
        assert excinfo.value.code == code

    @pytest.mark.parametrize(
        "line,code",
        [
            (b'{"op": ["ping"]}\n', "bad_op"),  # unhashable op
            (b'{"op": "ping", "n": ' + b"7" * 5000 + b"}\n", "bad_json"),
            (b"[" * 100_000 + b"\n", "bad_json"),
        ],
        ids=["unhashable-op", "integer-past-the-digit-limit", "nesting-past-recursion"],
    )
    def test_what_json_raises_besides_decode_errors_is_a_rejection(
        self, line, code
    ):
        with pytest.raises(ProtocolError) as excinfo:
            decode_line(line)
        assert excinfo.value.code == code

    def test_immediate_ops_are_uplink_ops(self):
        assert IMMEDIATE_OPS <= UPLINK_OPS


class TestDownlink:
    def test_update_message(self):
        assert downlink_op(UpdateMessage(qid=3, oid=7, sign=-1)) == {
            "op": "update",
            "qid": 3,
            "oid": 7,
            "sign": -1,
        }

    def test_full_answer_sorted(self):
        op = downlink_op(FullAnswerMessage(5, frozenset({9, 2, 4})))
        assert op == {"op": "answer", "qid": 5, "oids": [2, 4, 9]}

    def test_unencodable_message_raises(self):
        with pytest.raises(ProtocolError):
            downlink_op(WakeupMessage(1))


class TestEncodeDownlink:
    """An inbox goes to the wire straight from its columns."""

    def test_golden_bytes_with_an_answer_between_updates(self):
        messages = [
            UpdateMessage(3, 7, 1),
            FullAnswerMessage(5, frozenset({9, 2})),
            UpdateMessage(3, -(2**63), -1),
        ]
        link = ClientLink(1)
        for message in messages:
            link.deliver(message)
        wire = encode_downlink(link._inbox)
        assert wire == b"".join(encode(downlink_op(m)) for m in messages)
        assert wire == (
            b'{"op":"update","qid":3,"oid":7,"sign":1}\n'
            b'{"op":"answer","qid":5,"oids":[2,9]}\n'
            b'{"op":"update","qid":3,"oid":-9223372036854775808,"sign":-1}\n'
        )

    def test_an_all_update_inbox_builds_no_message(self, monkeypatch):
        link = ClientLink(1)
        link.deliver_updates([1, 2], [7, 8], [1, -1])

        def forbidden(*args, **kwargs):
            raise AssertionError("an UpdateMessage was built")

        monkeypatch.setattr(UpdateMessage, "__post_init__", forbidden)
        link.deliver_updates([1], [9], [1])
        assert encode_downlink(link.drain()) == (
            b'{"op":"update","qid":1,"oid":7,"sign":1}\n'
            b'{"op":"update","qid":2,"oid":8,"sign":-1}\n'
            b'{"op":"update","qid":1,"oid":9,"sign":1}\n'
        )
        assert encode_downlink(link.drain()) == b""


class TestHelpers:
    def test_shapes(self):
        assert error_op("x", "y") == {"op": "error", "code": "x", "detail": "y"}
        assert busy_op(2.0)["retry_after"] == 2.0
        assert reject_op("sessions", 1.0)["reason"] == "sessions"
