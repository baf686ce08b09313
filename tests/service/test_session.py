"""ClientSession output: lines and link mail queue in wire order and
leave as one transport write per flush, bytes identical to the
per-message JSON encoding."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import ClientLink, FullAnswerMessage, UpdateMessage
from repro.service.protocol import downlink_op, encode, encode_downlink
from repro.service.session import ClientSession

IDS = st.integers(min_value=-(2**63), max_value=2**63 - 1)

MESSAGES = st.lists(
    st.one_of(
        st.builds(UpdateMessage, IDS, IDS, st.sampled_from((1, -1))),
        st.builds(FullAnswerMessage, IDS, st.frozensets(IDS, max_size=5)),
    ),
    max_size=30,
)


class FakeWriter:
    """Records transport writes; raises from the ``fail_at``-th on."""

    def __init__(self, fail_at: int | None = None):
        self.writes: list[bytes] = []
        self.fail_at = fail_at

    def write(self, data: bytes) -> None:
        if self.fail_at is not None and len(self.writes) >= self.fail_at:
            raise ConnectionResetError("peer went away")
        self.writes.append(data)


def golden(messages) -> bytes:
    return b"".join(encode(downlink_op(m)) for m in messages)


@given(messages=MESSAGES)
@settings(max_examples=100, deadline=None)
def test_flush_bytes_equal_per_message_encoding(messages):
    link = ClientLink(1)
    for message in messages:
        link.deliver(message)
    assert encode_downlink(link._inbox) == golden(messages)
    writer = FakeWriter()
    session = ClientSession(1, writer)
    assert session.flush_link(link) == len(messages)
    assert writer.writes == [] and session.lines_out == 0  # queued
    session.send({"op": "cycle_end"})
    assert session.flush()
    # One write per flush, however many links and lines it carries.
    assert writer.writes == [golden(messages) + encode({"op": "cycle_end"})]
    assert session.lines_out == len(messages) + 1
    assert link.drain() == []
    assert not session.flush() and len(writer.writes) == 1  # nothing queued


def test_writer_error_mid_flush_marks_the_session_closed():
    writer = FakeWriter(fail_at=1)
    session = ClientSession(1, writer)
    first, second = ClientLink(1), ClientLink(2)
    first.deliver(UpdateMessage(1, 2, 1))
    second.deliver(UpdateMessage(3, 4, -1))
    second.deliver(FullAnswerMessage(3, frozenset({4})))
    assert session.flush_link(first) == 1
    assert session.flush() and not session.closed
    # The transport dies under the second flush's write.
    assert session.flush_link(second) == 2
    assert not session.flush()
    assert session.closed
    assert session.lines_out == 1
    assert writer.writes == [golden([UpdateMessage(1, 2, 1)])]
    # A closed session swallows further output without touching the writer.
    session.send({"op": "cycle_end"})
    assert not session.flush()
    assert session.lines_out == 1
