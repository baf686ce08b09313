"""Property: shipping the downlink as one column slice per client, with
the bookkeeping done once per query run, is indistinguishable from
delivering one message per update.

Two identical server stacks get the same random update streams over the
same random mix of links.  One ships through ``evaluate_cycle`` and
``receive_wakeup`` (owners resolved per query run, one stable sort by
client, ``ClientLink.deliver_updates`` per slice, the lag behind
``delivered_answer`` kept from the verdict masks, the freshness
attribution over the delivered rows); the other through
:func:`reference_ship`, the per-message
loop the server used before slices, which folds every accepted update
into its own delivered dict.  Everything observable must match:
inboxes, traffic counters, per-link series, the cycle result, the
delivered answers, pending commits, freshness histograms and
flight-recorder events.

The streams flip, as the engine's do (``+o`` only when ``o`` is out of
the answer, ``-o`` only when it is in), and come in the shapes the
per-run paths see: scattered updates (runs of about one), long
per-query runs (a member flipped back and forth), sign-sorted runs, and
one query split across runs — over enough cycles for the pending-commit
cap to fold.  A last property puts a throttled, a hooked, an observed
and a dark link among plain ones: the plain links must see what they
see when all links are plain.
"""

import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IncrementalEngine
from repro.core.server import CycleResult, LocationAwareServer
from repro.core.updates import UpdateBatch
from repro.geometry import Rect
from repro.net import FAULT_ACTIONS, ThrottledLink, UpdateMessage
from repro.obs import FlightRecorder, FreshnessTracker, MetricsRegistry
from repro.obs.freshness import _MAX_PENDING_PER_QUERY
from tests.conftest import tracking_every_query

N_OIDS = 12
QIDS = range(1, 9)
REGION = Rect(0.0, 0.0, 0.5, 0.5)

LINK_KINDS = st.one_of(
    st.just(("plain", None)),
    st.tuples(st.just("throttled"), st.integers(min_value=17, max_value=120)),
    st.tuples(st.just("faulty"), st.integers(min_value=0, max_value=10**6)),
    st.tuples(
        st.just("throttled+faulty"),
        st.tuples(st.integers(min_value=17, max_value=120), st.integers(min_value=0, max_value=10**6)),
    ),
    st.just(("observed", None)),
    st.just(("dark", None)),
)

OIDS = st.integers(min_value=0, max_value=N_OIDS - 1)

#: A stream is a list of ``(qid, oids, sign_sorted)`` runs; each oid
#: flips its membership in the query's live answer when the stub emits
#: it, and ``sign_sorted`` puts the run's negatives first (its oids are
#: then distinct).  Small id ranges make ``+``/``-`` of one (qid, oid)
#: in one cycle common; qid 0 is never bound (a query unregistered in
#: the same batch).
QIDS_DRAWN = st.integers(min_value=0, max_value=8)
SCATTERED = st.lists(
    st.tuples(QIDS_DRAWN, st.lists(OIDS, min_size=1, max_size=1), st.just(False)),
    max_size=60,
)
RUNS = st.lists(
    st.one_of(
        st.tuples(QIDS_DRAWN, st.lists(OIDS, min_size=1, max_size=25), st.just(False)),
        st.tuples(
            QIDS_DRAWN, st.lists(OIDS, min_size=1, max_size=N_OIDS, unique=True), st.just(True)
        ),
    ),
    max_size=6,
)
STREAMS = st.one_of(SCATTERED, RUNS)

#: One cycle: the oids whose reports are stamped for it, the update
#: stream, then the qids whose clients commit and the client indices
#: that wake up after it.
CYCLES = st.lists(
    st.tuples(
        st.sets(OIDS),
        STREAMS,
        st.sets(st.sampled_from(QIDS), max_size=2),
        st.sets(st.integers(min_value=0, max_value=4), max_size=1),
    ),
    min_size=1,
    max_size=4,
)


class Stack:
    """One server over a stubbed engine that emits the given streams
    and answers, as its live answers, their fold (kept here: the
    engine's answers hold store rows, and these oids report nothing)."""

    def __init__(self, link_kinds, owners):
        registry = MetricsRegistry()
        self.recorder = FlightRecorder(capacity=100_000)
        engine = IncrementalEngine(
            grid_size=4,
            registry=registry,
            freshness=FreshnessTracker(registry, clock=lambda: 0.0),
            recorder=self.recorder,
        )
        self.server = server = LocationAwareServer(engine=engine)
        #: client -> what its delivery observer saw, in order (links
        #: are independent channels: only per-link order is defined).
        self.observed: dict[int, list] = {}
        for client_id, (kind, arg) in enumerate(link_kinds):
            if kind == "throttled+faulty":  # a budget and a hook on one link
                budget, seed = arg
            else:
                budget, seed = arg if kind == "throttled" else None, arg
            link = server.register_client(client_id, downlink_budget=budget)
            if kind in ("faulty", "throttled+faulty"):
                rng = random.Random(seed)
                link.fault_hook = lambda _l, _m, rng=rng: rng.choice(FAULT_ACTIONS)
            elif kind == "observed":
                link.delivery_observer = self._observe
            elif kind == "dark":
                link.disconnect()
        for qid, client_id in owners.items():
            server.register_range_query(client_id, qid, REGION)
        server.evaluate_cycle(0.0)  # installs the queries (no objects: no updates)
        self.live: dict[int, set[int]] = {}
        engine.answer_array = lambda qid: np.array(
            sorted(self.live.get(qid, ())), dtype=np.int64
        )
        engine.answer_arrays = lambda qids: [engine.answer_array(qid) for qid in qids]

    def _observe(self, client_id, message, delivered):
        self.observed.setdefault(client_id, []).append((message, delivered))

    def begin(self, stamped, stream):
        """Stamp this cycle's reports and stub the engine to emit
        ``stream``'s flips, folding them into the live answers."""
        freshness = self.server.freshness
        queries = self.server.engine.queries
        for oid in stamped:
            freshness.stamp_report(oid)
        updates = UpdateBatch()
        unbound: dict[int, set[int]] = {}
        for qid, oids, sign_sorted in stream:
            answer = (self.live if qid in queries else unbound).setdefault(qid, set())
            run = []
            for oid in oids:
                run.append((oid, -1 if oid in answer else 1))
                answer ^= {oid}
            if sign_sorted:
                run.sort(key=lambda update: update[1])
            for oid, sign in run:
                updates.push(qid, oid, sign)

        def evaluate(now):
            freshness.end_cycle()
            return updates

        self.server.engine.evaluate = evaluate

    def after(self, commits, wakeups):
        server = self.server
        for qid in sorted(commits):
            server.receive_commit(qid)
        for index in sorted(wakeups):
            if index in server._links:
                server.receive_wakeup(index)

    def observable(self) -> dict:
        server = self.server
        metrics = {
            name: family
            for name, family in server.registry.to_dict().items()
            if name.startswith(("net_", "link_", "freshness_", "server_recovery"))
        }
        downlink_events: dict[int, list] = {}
        for event in self.recorder.events():
            if event["kind"] == "downlink":
                downlink_events.setdefault(
                    server.client_of(event["qid"]), []
                ).append(
                    (event["qid"], event["oid"], event["sign"], event["ok"])
                )
        return {
            "inboxes": {c: server.link_of(c)._inbox for c in server.client_ids()},
            "by_type": server.stats.by_type,
            "metrics": metrics,
            "delivered_answers": {qid: server.delivered_answer(qid) for qid in server._owner},
            "committed": {qid: server.commits.committed_answer(qid) for qid in QIDS},
            "pending_commit": server.freshness.pending_commit(),
            "observed": self.observed,
            "downlink_events": downlink_events,
        }


class ReferenceStack(Stack):
    """A stack whose server ships per message (:func:`reference_ship`)
    and answers ``delivered_answers`` from its own dict: the committed
    base on every wakeup, plus each update a link accepted since."""

    def __init__(self, link_kinds, owners):
        super().__init__(link_kinds, owners)
        server = self.server
        self.delivered: dict[int, set[int]] = {qid: set() for qid in owners}
        server._ship = lambda slices: reference_ship(self, slices)
        server.delivered_answers = lambda qids: [
            np.array(sorted(self.delivered[qid]), dtype=np.int64) for qid in qids
        ]
        wakeup = server.receive_wakeup

        def receive_wakeup(client_id):
            for qid in server.queries_of(client_id):  # the client rolls back
                self.delivered[qid] = set(server.commits.committed_answer(qid))
            return wakeup(client_id)

        server.receive_wakeup = receive_wakeup


def reference_ship(stack: ReferenceStack, slices) -> tuple[int, UpdateBatch]:
    """``LocationAwareServer._ship`` as it was before slices: one
    ``deliver`` per update, in stream order, full bookkeeping per
    update."""
    server = stack.server
    attempted = 0
    delivered = UpdateBatch()
    for link, qids, oids, signs, _ in slices:
        for qid, oid, sign in zip(qids, oids, signs):
            attempted += 1
            ok = link.deliver(UpdateMessage(qid, oid, sign))
            if ok:
                delivered.push(qid, oid, sign)
                if sign == 1:
                    stack.delivered[qid].add(oid)
                else:
                    stack.delivered[qid].discard(oid)
                server.freshness.observe_delivered(qid, oid, sign)
            else:
                server.freshness.observe_undelivered(qid, oid, sign)
            server.recorder.record("downlink", qid=qid, oid=oid, sign=sign, ok=ok)
    return attempted, delivered


def reference_cycle(server: LocationAwareServer, now: float) -> CycleResult:
    """``evaluate_cycle`` as it shipped before slices: the stream in
    order, each update shipped on its own."""
    for link in server._links.values():
        if isinstance(link, ThrottledLink):
            link.new_cycle()
    updates = server.engine.evaluate(now)
    result = CycleResult(now, updates, 0, server.complete_answer_bytes())
    for qid, oid, sign in updates.tuples():
        if qid not in server._owner:
            continue
        link = server.link_of(server._owner[qid])
        attempted, delivered = server._ship([(link, [qid], [oid], [sign], None)])
        result.incremental_bytes += attempted * UpdateMessage.size_bytes
        result.delivered_updates += len(delivered)
        result.dropped_updates += attempted - len(delivered)
    return result


def run_both(link_kinds, owners, cycles, check_every: int = 1):
    """Drive a sliced and a reference stack through ``cycles`` and
    compare them; returns the sliced stack."""
    sliced, reference = Stack(link_kinds, owners), ReferenceStack(link_kinds, owners)
    for now, (stamped, stream, commits, wakeups) in enumerate(cycles, start=1):
        sliced.begin(stamped, stream)
        reference.begin(stamped, stream)
        got = sliced.server.evaluate_cycle(float(now))
        want = reference_cycle(reference.server, float(now))
        assert (
            got.incremental_bytes,
            got.delivered_updates,
            got.dropped_updates,
            got.complete_bytes,
        ) == (
            want.incremental_bytes,
            want.delivered_updates,
            want.dropped_updates,
            want.complete_bytes,
        )
        assert got.updates == want.updates
        sliced.after(commits, wakeups)
        reference.after(commits, wakeups)
        if now % check_every == 0 or now == len(cycles):
            assert sliced.observable() == reference.observable()
    return sliced


@given(
    link_kinds=st.lists(LINK_KINDS, min_size=1, max_size=5),
    owner_seed=st.integers(min_value=0, max_value=10**6),
    cycles=CYCLES,
)
@settings(deadline=None)
def test_slice_shipping_equals_per_message_reference(link_kinds, owner_seed, cycles):
    rng = random.Random(owner_seed)
    owners = {qid: rng.randrange(len(link_kinds)) for qid in QIDS}
    run_both(link_kinds, owners, cycles)


def long_cycles(seed: int, count: int) -> list[tuple]:
    """``count`` cycles in which every object reports and every query
    changes, in a shuffled query order, as one sign-sorted run — so
    each query gains a fresh stamp per cycle; only qids 5-8 commit and
    only clients 1-4 wake."""
    rng = random.Random(seed)
    cycles = []
    for _ in range(count):
        order = list(QIDS)
        rng.shuffle(order)
        stream = [(qid, rng.sample(range(N_OIDS), rng.randint(1, 3)), True) for qid in order]
        commits = {rng.choice(QIDS[4:])} if rng.random() < 0.3 else set()
        wakeups = {rng.randint(1, 4)} if rng.random() < 0.1 else set()
        cycles.append((range(N_OIDS), stream, commits, wakeups))
    return cycles


@given(
    link_kinds=st.lists(LINK_KINDS, max_size=3),
    owner_seed=st.integers(min_value=0, max_value=10**6),
    extra=st.integers(min_value=1, max_value=4),
)
@settings(deadline=None)
def test_pending_commit_cap_folds_alike(link_kinds, owner_seed, extra):
    """Past the 64-stamp pending cap the oldest stamps fold, in the
    same order for both stacks.  Client 0 is a plain link that owns
    qids 1-4 and never commits or wakes, so the cap is reached."""
    link_kinds = [("plain", None), *link_kinds]
    rng = random.Random(owner_seed)
    owners = {qid: rng.randrange(len(link_kinds)) for qid in QIDS}
    owners.update(dict.fromkeys(QIDS[:4], 0))
    cycles = long_cycles(owner_seed, _MAX_PENDING_PER_QUERY + extra)
    with tracking_every_query():  # qids 1-4 are not all in the sample
        sliced = run_both(link_kinds, owners, cycles, check_every=16)
    assert sliced.server.registry.value_of("freshness_pending_commit_folded_total") > 0


def test_one_qid_split_across_two_runs_of_one_slice():
    """``+o`` then ``-o`` of one query with another client's run
    between: the query's two runs meet in one client slice and settle
    in stream order; then ``+o, -o`` inside one run."""
    cycles = [
        ({5}, [(1, [5], False), (2, [5], False), (1, [5, 6], False)], set(), set()),
        ({7}, [(1, [7, 7], False)], set(), set()),
    ]
    sliced = run_both([("plain", None), ("plain", None)], {1: 0, 2: 1}, cycles)
    assert sliced.server.delivered_answer(1) == {6}
    assert sliced.server.delivered_answer(2) == {5}


def test_a_lag_is_held_only_while_a_refusal_is_unsettled():
    """Plain links store no lag whatever they carry.  A refused update
    lags its query until a delivered reversal settles it."""
    owners = {qid: qid % 2 for qid in QIDS}
    sliced = run_both([("plain", None), ("plain", None)], owners, long_cycles(7, 8))
    assert sliced.server._lag == {}
    stack = Stack([("plain", None)], {1: 0})
    server, link = stack.server, stack.server.link_of(0)
    link.disconnect()
    stack.begin((), [(1, [5, 6], False)])
    server.evaluate_cycle(1.0)
    assert server._lag == {1: {5, 6}}
    assert server.delivered_answer(1) == frozenset()
    link.reconnect()
    stack.begin((), [(1, [5], False)])
    server.evaluate_cycle(2.0)
    assert server._lag == {1: {6}}
    assert server.delivered_answer(1) == frozenset()
    stack.begin((), [(1, [6], False)])
    server.evaluate_cycle(3.0)
    assert server._lag == {}
    assert server.delivered_answer(1) == frozenset()


#: One link of each kind that acts inside the slice, set among plain ones.
SPECIAL_LINKS = [("throttled", 34), ("faulty", 7), ("observed", None), ("dark", None)]


@given(owner_seed=st.integers(min_value=0, max_value=10**6), cycles=CYCLES)
@settings(deadline=None)
def test_a_link_that_cuts_its_slice_leaves_its_plain_neighbours_alone(owner_seed, cycles):
    """The downlink half of the neighbour property: a fleet of plain
    links with one throttled, one hooked, one observed and one dark link
    among them gives every plain link the inbox, link counters, lag and
    delivered answers it gets when those four are plain too."""
    plain = ("plain", None)
    kinds = [plain, plain, *SPECIAL_LINKS, plain, plain]
    rng = random.Random(owner_seed)
    owners = {qid: rng.randrange(len(kinds)) for qid in QIDS}
    mixed, uniform = Stack(kinds, owners), Stack([plain] * len(kinds), owners)
    neighbours = [client for client, kind in enumerate(kinds) if kind == plain]

    def seen_by_neighbours(stack: Stack) -> dict:
        server = stack.server
        seen = {}
        for client in neighbours:
            link = server.link_of(client)
            counters = (link.delivered_messages, link.delivered_bytes, link.dropped_messages, link.dropped_bytes)
            owned = sorted(server.queries_of(client))
            lag = {qid: server._lag.get(qid) for qid in owned}
            answers = {qid: server.delivered_answer(qid) for qid in owned}
            seen[client] = (link._inbox, counters, lag, answers)
        return seen

    for now, (stamped, stream, commits, wakeups) in enumerate(cycles, start=1):
        for stack in (mixed, uniform):
            stack.begin(stamped, stream)
            stack.server.evaluate_cycle(float(now))
            stack.after(commits, wakeups)
        assert seen_by_neighbours(mixed) == seen_by_neighbours(uniform)
