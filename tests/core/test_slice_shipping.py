"""Property: shipping the downlink as one column slice per client, with
the bookkeeping done once per query run, is indistinguishable from
delivering one message per update.

Two identical server stacks get the same random update streams over the
same random mix of links.  One ships through ``evaluate_cycle`` and
``receive_wakeup`` (owners resolved per query run,
``ClientLink.deliver_updates`` per slice, the delivered-answer fold and
the freshness attribution per run); the other through
:func:`reference_ship`, the per-message loop the server used before
slices, kept here as the reference.  Everything observable must match:
inboxes, traffic counters, per-link series, the cycle result, the
delivered-answer view, pending commits, freshness histograms and
flight-recorder events.

The streams come in the shapes the per-run fast paths rely on and the
ones they must fall back on: scattered updates (runs of about one),
long per-query runs, sign-sorted runs, and one query split across runs
— over enough cycles for the pending-commit cap to fold.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IncrementalEngine
from repro.core.server import CycleResult, LocationAwareServer
from repro.core.updates import UpdateBatch
from repro.geometry import Rect
from repro.net import FAULT_ACTIONS, ThrottledLink, UpdateMessage
from repro.obs import FlightRecorder, FreshnessTracker, MetricsRegistry
from repro.obs.freshness import _MAX_PENDING_PER_QUERY

N_OIDS = 12
QIDS = range(1, 9)
REGION = Rect(0.0, 0.0, 0.5, 0.5)

LINK_KINDS = st.one_of(
    st.just(("plain", None)),
    st.tuples(st.just("throttled"), st.integers(min_value=17, max_value=120)),
    st.tuples(st.just("faulty"), st.integers(min_value=0, max_value=10**6)),
    st.just(("observed", None)),
    st.just(("dark", None)),
)

OIDS = st.integers(min_value=0, max_value=N_OIDS - 1)
SIGNS = st.sampled_from((1, -1))

#: Updates in any order: small id ranges make ``-``/``+`` of one
#: (qid, oid) in one cycle common; qid 0 is never bound (a query
#: unregistered in the same batch).
SCATTERED = st.lists(
    st.tuples(st.integers(min_value=0, max_value=8), OIDS, SIGNS), max_size=60
)


@st.composite
def run_streams(draw, sign_sorted: bool, max_runs: int = 6):
    """A stream of per-query runs (what the engine emits), a query
    possibly in several of them; ``sign_sorted`` puts each run's
    negatives first."""
    stream = []
    for qid in draw(st.lists(st.integers(min_value=0, max_value=8), max_size=max_runs)):
        body = draw(st.lists(st.tuples(OIDS, SIGNS), min_size=1, max_size=25))
        if sign_sorted:
            body.sort(key=lambda update: update[1])
        stream += [(qid, oid, sign) for oid, sign in body]
    return stream


STREAMS = st.one_of(SCATTERED, run_streams(False), run_streams(True))

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
    (and holds, as its live answers, their fold)."""

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
            link = server.register_client(
                client_id, downlink_budget=arg if kind == "throttled" else None
            )
            if kind == "faulty":
                rng = random.Random(arg)
                link.fault_hook = lambda _l, _m, rng=rng: rng.choice(FAULT_ACTIONS)
            elif kind == "observed":
                link.delivery_observer = self._observe
            elif kind == "dark":
                link.disconnect()
        for qid, client_id in owners.items():
            server.register_range_query(client_id, qid, REGION)
        server.evaluate_cycle(0.0)  # installs the queries (no objects: no updates)

    def _observe(self, client_id, message, delivered):
        self.observed.setdefault(client_id, []).append((message, delivered))

    def begin(self, stamped, stream):
        """Stamp this cycle's reports and stub the engine to emit
        ``stream``."""
        freshness = self.server.freshness
        queries = self.server.engine.queries
        for oid in stamped:
            freshness.stamp_report(oid)
        updates = UpdateBatch()
        for qid, oid, sign in stream:
            updates.push(qid, oid, sign)
            if qid in queries and sign == 1:
                queries[qid].answer.add(oid)
            elif qid in queries:
                queries[qid].answer.discard(oid)

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
            "delivered_answers": server._delivered_answers,
            "committed": {qid: server.commits.committed_answer(qid) for qid in QIDS},
            "pending_commit": server.freshness._pending_commit,
            "observed": self.observed,
            "downlink_events": downlink_events,
        }


def reference_ship(server: LocationAwareServer, slices) -> tuple[int, UpdateBatch]:
    """``LocationAwareServer._ship`` as it was before slices: one
    ``deliver`` per update, in stream order, full bookkeeping per
    update."""
    attempted = 0
    delivered = UpdateBatch()
    for link, qids, oids, signs, _ in slices:
        for qid, oid, sign in zip(qids, oids, signs):
            attempted += 1
            ok = link.deliver(UpdateMessage(qid, oid, sign))
            if ok:
                delivered.push(qid, oid, sign)
                if sign == 1:
                    server._delivered_answers[qid].add(oid)
                else:
                    server._delivered_answers[qid].discard(oid)
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
        if qid not in server._bindings:
            continue
        link = server.link_of(server.client_of(qid))
        attempted, delivered = reference_ship(server, [(link, [qid], [oid], [sign], None)])
        result.incremental_bytes += attempted * UpdateMessage.size_bytes
        result.delivered_updates += len(delivered)
        result.dropped_updates += attempted - len(delivered)
    return result


def run_both(link_kinds, owners, cycles, check_every: int = 1):
    """Drive a sliced and a reference stack through ``cycles`` and
    compare them; returns the sliced stack."""
    sliced, reference = Stack(link_kinds, owners), Stack(link_kinds, owners)
    # Recovery ships through _ship: the reference's is the per-message loop.
    reference.server._ship = lambda slices: reference_ship(reference.server, slices)
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
        stream = []
        for qid in order:
            body = [(rng.randrange(N_OIDS), rng.choice((1, -1))) for _ in range(rng.randint(1, 3))]
            stream += [(qid, oid, sign) for oid, sign in sorted(body, key=lambda u: u[1])]
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
    sliced = run_both(link_kinds, owners, cycles, check_every=16)
    assert sliced.server.registry.value_of("freshness_pending_commit_folded_total") > 0


def test_one_qid_split_across_two_runs_of_one_slice():
    """``+o`` then ``-o`` of one query with another client's run
    between: the query's two runs meet in one client slice and fold in
    stream order; then ``+o, -o`` inside one run, which is not
    negatives-first and folds update by update."""
    cycles = [
        ({5}, [(1, 5, 1), (2, 5, 1), (1, 5, -1), (1, 6, 1)], set(), set()),
        ({7}, [(1, 7, 1), (1, 7, -1)], set(), set()),
    ]
    sliced = run_both([("plain", None), ("plain", None)], {1: 0, 2: 1}, cycles)
    assert sliced.server._delivered_answers[1] == {6}
    assert sliced.server._delivered_answers[2] == {5}
