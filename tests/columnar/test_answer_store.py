"""The answer store: every answer is one run of a sorted int64 key array.

A hypothesis state machine drives a query store, an object store and
the evaluator's install through random registrations, unregistrations,
object removals (swap-removes on both sides, of middle and last rows),
toggles and installs, and holds every query's run to a dict-of-sets
model after each step: the same members, keys strictly ascending and
naming live rows, and every install and removal emitting exactly the
model's change.  A deterministic test bounds what the store costs.
"""

from __future__ import annotations

import gc
from array import array

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.columnar import KIND_RANGE, ColumnarEvaluator, ColumnarObjectStore, ColumnarQueryStore
from repro.columnar.store import ROW_BITS, ROW_MASK
from repro.core import IncrementalEngine
from repro.core.updates import UpdateBatch
from repro.geometry import Point, Rect
from repro.grid import Grid
from repro.obs import MetricsRegistry, Tracer

#: Ids far from their rows, int64 extremes included.
IDS = st.sampled_from([-(2**63), -7, 0, 3, 11, 10**12, 2**63 - 1, *range(20, 40)])


def key(qstore, ostore, qid, oid) -> int:
    return qstore.row_of(qid) << ROW_BITS | ostore.row_of(oid)


class AnswerStore(RuleBasedStateMachine):
    @initialize()
    def build(self):
        self.ostore = ColumnarObjectStore()
        self.qstore = ColumnarQueryStore()
        self.evaluator = ColumnarEvaluator(
            Grid(Rect(0.0, 0.0, 1.0, 1.0), 4), self.ostore, self.qstore, MetricsRegistry(), Tracer()
        )
        self.model: dict[int, set[int]] = {}

    def members(self, qid) -> set[int]:
        oids = np.frombuffer(self.ostore.oids, dtype=np.int64)
        return set(oids[self.qstore.answer_rows(self.qstore.row_of(qid))].tolist())

    @rule(qid=IDS)
    def register(self, qid):
        if qid not in self.model:
            self.qstore.add(qid, KIND_RANGE, 0.0, 0.0, 1.0, 1.0)
            self.model[qid] = set()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def unregister(self, data):
        qid = data.draw(st.sampled_from(sorted(self.model)))
        self.qstore.remove(qid)
        del self.model[qid]

    @rule(oids=st.sets(IDS, min_size=1, max_size=6))
    def report(self, oids):
        oids = np.array(sorted(oids), dtype=np.int64)
        count = len(oids)
        zeros = np.zeros(count)
        self.ostore.batch_apply(oids, zeros, zeros, zeros, zeros, zeros, np.zeros(count, np.int64))

    @precondition(lambda self: len(self.ostore))
    @rule(data=st.data())
    def remove_objects(self, data):
        gone = data.draw(st.sets(st.sampled_from(self.ostore.oids.tolist()), min_size=1))
        oids = np.frombuffer(self.ostore.oids, dtype=np.int64).copy()
        qids = np.frombuffer(self.qstore.qids, dtype=np.int64).copy()
        dropped = self.qstore.relabel_objects(self.ostore.remove_many(sorted(gone)))
        assert (dropped[1:] > dropped[:-1]).all()
        got = set(zip(qids[dropped >> ROW_BITS].tolist(), oids[dropped & ROW_MASK].tolist()))
        assert got == {(qid, oid) for qid, held in self.model.items() for oid in held & gone}
        for held in self.model.values():
            held -= gone

    @precondition(lambda self: self.model and len(self.ostore))
    @rule(data=st.data())
    def toggle(self, data):
        pairs = data.draw(
            st.sets(
                st.tuples(
                    st.sampled_from(sorted(self.model)),
                    st.sampled_from(self.ostore.oids.tolist()),
                ),
                max_size=8,
            )
        )
        leave, enter = [], []
        for qid, oid in pairs:
            held = self.model[qid]
            (leave if oid in held else enter).append(key(self.qstore, self.ostore, qid, oid))
            held ^= {oid}
        self.qstore.toggle(np.array(leave, dtype=np.int64), np.array(enter, dtype=np.int64))

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def install(self, data):
        qids = data.draw(st.lists(st.sampled_from(sorted(self.model)), unique=True, min_size=1))
        oids = self.ostore.oids.tolist()
        answers = [
            data.draw(st.lists(st.sampled_from(oids), unique=True)) if oids else [] for _ in qids
        ]
        qrows = np.array([self.qstore.row_of(qid) for qid in qids], dtype=np.int64)
        pos = np.repeat(np.arange(len(qids)), [len(answer) for answer in answers])
        orows = np.array([self.ostore.row_of(oid) for answer in answers for oid in answer], np.int64)
        updates = UpdateBatch()
        self.evaluator.install(updates, qrows, pos, orows)
        want = []
        for qid, answer in zip(qids, answers):
            held = self.model[qid]
            want += [(qid, oid, -1) for oid in held.difference(answer)]
            want += [(qid, oid, 1) for oid in answer if oid not in held]
            self.model[qid] = set(answer)
        assert sorted(updates.tuples()) == sorted(want)
        # Each query's change is one run, its leavers first.
        runs = [(qid, sign) for qid, _, sign in updates.tuples()]
        starts = [run for at, run in enumerate(runs) if at == 0 or run[0] != runs[at - 1][0]]
        assert len({qid for qid, _ in starts}) == len(starts)
        assert all(a[1] <= b[1] for a, b in zip(runs, runs[1:]) if a[0] == b[0])

    @invariant()
    def runs_equal_the_model(self):
        if not hasattr(self, "model"):
            return
        keys = self.qstore.keys
        assert keys.dtype == np.int64 and (keys[1:] > keys[:-1]).all()
        assert ((keys >> ROW_BITS) < len(self.qstore)).all()
        assert ((keys & ROW_MASK) < len(self.ostore)).all()
        assert {qid: self.members(qid) for qid in self.model} == self.model
        sizes = self.qstore.answer_sizes().tolist()
        assert sizes == [len(self.model[qid]) for qid in self.qstore.qids.tolist()]


TestAnswerStore = AnswerStore.TestCase
TestAnswerStore.settings = settings(deadline=None)


def test_the_answer_store_costs_at_most_16_bytes_per_member():
    """A populated engine holds its answers in one int64 array: 8 bytes
    per member (≤16 with slack for any future widening), and no Python
    set, list or dict per query anywhere in the query store."""
    engine = IncrementalEngine(grid_size=16)
    for qid in range(200):
        x, y = (qid % 20) / 20.0, (qid // 20) / 10.0
        engine.register_range_query(qid, Rect(x, y, x + 0.3, y + 0.3))
    for oid in range(2000):
        engine.report_object(oid, Point((oid * 7919 % 1000) / 1000, (oid * 104729 % 997) / 997), 0.0)
    engine.evaluate(0.0)
    qstore = engine._qstore
    members = sum(engine.answer_sizes())
    assert members > 10_000
    assert qstore.keys.nbytes <= 16 * members
    # The store's referents: its array columns, their tuple, the keys,
    # the cached run starts (one int64 per row) and the qid -> row
    # dict; nothing per query but ints.
    held = gc.get_referents(qstore)
    assert {type(ref) for ref in held} <= {array, tuple, np.ndarray, dict, int, type}
    arrays = [ref for ref in held if isinstance(ref, np.ndarray)]
    assert any(ref is qstore.keys for ref in arrays)
    assert all(ref is qstore.keys or ref.shape == (len(qstore) + 1,) for ref in arrays)
    assert [ref for ref in held if isinstance(ref, dict)] == [qstore._row_of]
    assert {type(row) for row in qstore._row_of.values()} == {int}
