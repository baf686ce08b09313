"""The column ``Inbox`` behind every link: indistinguishable from the
``list[Message]`` it replaced, and free until the first mail arrives."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    DELIVER,
    DROP,
    DUPLICATE,
    FAULT_ACTIONS,
    REORDER,
    ClientLink,
    FullAnswerMessage,
    NetworkStats,
    UpdateMessage,
)
from repro.net.link import _EMPTY

QIDS = st.integers(min_value=1, max_value=3)
OIDS = st.integers(min_value=0, max_value=9)
SIGNS = st.sampled_from((1, -1))
MESSAGES = st.one_of(
    st.builds(UpdateMessage, QIDS, OIDS, SIGNS),
    st.builds(FullAnswerMessage, QIDS, st.frozensets(OIDS, max_size=3)),
)
SLICES = st.lists(st.tuples(QIDS, OIDS, SIGNS), max_size=6)

#: One step against the link: ``deliver`` carries the fault verdict it
#: will meet, ``slice`` the verdict its hook gives every row, or none
#: (no hook: the slice joins the inbox as it is).
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), MESSAGES, st.sampled_from(FAULT_ACTIONS)),
        st.tuples(st.just("slice"), SLICES, st.sampled_from((None,) + FAULT_ACTIONS)),
        st.tuples(st.just("disconnect"), st.none(), st.none()),
        st.tuples(st.just("reconnect"), st.none(), st.none()),
        st.tuples(st.just("drain"), st.none(), st.none()),
    ),
    max_size=40,
)


class ListLink:
    """The reference: a plain ``list[Message]`` mailbox with the link's
    delivery rules spelled out one message at a time."""

    def __init__(self):
        self.inbox: list = []
        self.connected = True
        self.delivered = self.delivered_bytes = 0
        self.dropped = self.dropped_bytes = 0

    def deliver(self, message, action) -> None:
        if not self.connected or action == DROP:
            self.dropped += 1
            self.dropped_bytes += message.size_bytes
            return
        copies = 2 if action == DUPLICATE else 1
        self.delivered += copies
        self.delivered_bytes += copies * message.size_bytes
        if action == REORDER and self.inbox and self.inbox[-1].qid != message.qid:
            self.inbox.insert(len(self.inbox) - 1, message)
        else:
            self.inbox.extend([message] * copies)


def assert_same_mailbox(link: ClientLink, model: ListLink) -> None:
    inbox, want = link._inbox, model.inbox
    assert len(inbox) == link.queued_messages == len(want)
    assert bool(inbox) == bool(want)
    assert list(inbox) == want
    assert inbox == want and inbox == tuple(want)
    assert inbox[1:4] == want[1:4] and inbox[::-2] == want[::-2]
    if want:
        assert inbox[0] == want[0] and inbox[-1] == want[-1]
    with pytest.raises(IndexError):
        inbox[len(want)]
    with pytest.raises(IndexError):
        inbox[-len(want) - 1]
    assert (
        link.delivered_messages,
        link.delivered_bytes,
        link.dropped_messages,
        link.dropped_bytes,
    ) == (
        model.delivered,
        model.delivered_bytes,
        model.dropped,
        model.dropped_bytes,
    )


@given(steps=STEPS)
@settings(max_examples=200, deadline=None)
def test_link_mailbox_equals_a_list_of_messages(steps):
    stats = NetworkStats()
    link, model = ClientLink(1, stats), ListLink()
    verdict = [DELIVER]

    def hook(_link, _message):
        return verdict[0]

    for op, payload, action in steps:
        if op == "deliver":
            verdict[0], link.fault_hook = action, hook
            link.deliver(payload)
            model.deliver(payload, action)
        elif op == "slice":
            verdict[0], link.fault_hook = action, hook if action else None
            columns = [list(column) for column in zip(*payload)] or [[], [], []]
            verdicts = link.deliver_updates(*columns)
            received = model.connected and action != DROP
            if verdicts is None:
                assert received or not payload
            else:
                assert verdicts.tolist() == [received] * len(payload)
            for row in payload:
                model.deliver(UpdateMessage(*row), action or DELIVER)
        elif op == "disconnect":
            link.disconnect()
            model.connected = False
        elif op == "reconnect":
            link.reconnect()
            model.connected = True
        else:
            assert link.drain() == model.inbox
            model.inbox = []
            assert link._inbox is _EMPTY
        assert_same_mailbox(link, model)
        assert stats.registry.value_of("links_queued_messages") == len(model.inbox)
    assert stats.delivered_messages == model.delivered
    assert stats.dropped_messages == model.dropped


def test_the_shared_empty_mailbox_cannot_be_written():
    link = ClientLink(1)
    assert link.drain() is _EMPTY is link._inbox
    with pytest.raises(AttributeError):
        _EMPTY.add(UpdateMessage(1, 1, 1))
    assert len(_EMPTY) == 0 and list(_EMPTY) == []


def test_idle_links_cost_a_slot_each():
    """10k registered, idle links: no inbox, no instrument, no label
    dict — a few hundred bytes of slots apiece."""
    stats = NetworkStats()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        links = [ClientLink(client_id, stats) for client_id in range(10_000)]
        per_link = (tracemalloc.get_traced_memory()[0] - before) / len(links)
    finally:
        tracemalloc.stop()
    assert per_link <= 300, per_link
    assert stats.registry.value_of("links_registered") == len(links)


def test_series_count_does_not_grow_with_the_fleet():
    counts = []
    for fleet in (100, 10_000):
        stats = NetworkStats()
        links = [ClientLink(client_id, stats) for client_id in range(fleet)]
        for link in links[:50]:
            link.deliver(UpdateMessage(1, 1, 1))
            link.disconnect()
            link.deliver(UpdateMessage(1, 1, 1))
        counts.append(len(stats.registry))
    assert counts[0] == counts[1] < 40


def test_an_undrained_inbox_keeps_no_earlier_cycle_alive():
    """A slice joins the inbox as a view of its cycle's array; the next
    slice into an undrained inbox turns what it held into ints first,
    so the earlier cycle's array is freed."""
    link = ClientLink(1)
    cycle = np.arange(3_000, dtype=np.int64)  # a cycle's sorted column
    freed = weakref.ref(cycle)
    assert link.deliver_updates(cycle[:2], cycle[:2], np.ones(2, dtype=np.int64)) is None
    del cycle
    assert link.deliver_updates(*[np.full(1, 5, dtype=np.int64)] * 2, np.ones(1, dtype=np.int64)) is None
    gc.collect()
    assert freed() is None
    assert link.drain() == [UpdateMessage(0, 0, 1), UpdateMessage(1, 1, 1), UpdateMessage(5, 5, 1)]
