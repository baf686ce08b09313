"""Property: shipping the downlink as one column slice per client is
indistinguishable from delivering one message per update.

Two identical server stacks get the same random update streams over the
same random mix of links.  One ships through ``evaluate_cycle`` (sort by
owning client, ``ClientLink.deliver_updates`` per slice, grouped
freshness); the other through the per-message loop the server used
before slices, kept here as the reference.  Everything observable must
match: inboxes, traffic counters, per-link series, the cycle result,
the delivered-answer view, freshness histograms and flight-recorder
events.
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

N_OIDS = 12
REGION = Rect(0.0, 0.0, 0.5, 0.5)

LINK_KINDS = st.one_of(
    st.just(("plain", None)),
    st.tuples(st.just("throttled"), st.integers(min_value=17, max_value=120)),
    st.tuples(st.just("faulty"), st.integers(min_value=0, max_value=10**6)),
    st.just(("observed", None)),
    st.just(("dark", None)),
)

#: One cycle: the oids whose reports are stamped for it, then the
#: update stream.  Small id ranges make ``-``/``+`` of one (qid, oid)
#: in one cycle common; qid 0 is never bound (a query unregistered in
#: the same batch).
CYCLES = st.lists(
    st.tuples(
        st.sets(st.integers(min_value=0, max_value=N_OIDS - 1)),
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=8),
                st.integers(min_value=0, max_value=N_OIDS - 1),
                st.sampled_from((1, -1)),
            ),
            max_size=60,
        ),
    ),
    min_size=1,
    max_size=4,
)


class Stack:
    """One server over a stubbed engine that emits the given streams."""

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

    def _observe(self, client_id, message, delivered):
        self.observed.setdefault(client_id, []).append((message, delivered))

    def begin(self, stamped, stream):
        """Stamp this cycle's reports and stub the engine to emit
        ``stream``."""
        freshness = self.server.freshness
        for oid in stamped:
            freshness.stamp_report(oid)
        updates = UpdateBatch()
        for qid, oid, sign in stream:
            updates.push(qid, oid, sign)

        def evaluate(now):
            freshness.end_cycle()
            return updates

        self.server.engine.evaluate = evaluate

    def observable(self) -> dict:
        server = self.server
        metrics = {
            name: family
            for name, family in server.registry.to_dict().items()
            if name.startswith(("net_", "link_", "freshness_"))
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
            "pending_commit": server.freshness._pending_commit,
            "observed": self.observed,
            "downlink_events": downlink_events,
        }


def reference_cycle(server: LocationAwareServer, now: float) -> CycleResult:
    """``evaluate_cycle`` as it shipped before slices: one ``deliver``
    per update, in stream order, full bookkeeping per update."""
    for link in server._links.values():
        if isinstance(link, ThrottledLink):
            link.new_cycle()
    updates = server.engine.evaluate(now)
    result = CycleResult(now, updates, 0, server.complete_answer_bytes())
    for update in updates:
        qid, oid, sign = update.qid, update.oid, update.sign
        if qid not in server._bindings:
            continue
        result.incremental_bytes += UpdateMessage.size_bytes
        ok = server.link_of(server.client_of(qid)).deliver(
            UpdateMessage(qid, oid, sign)
        )
        if ok:
            result.delivered_updates += 1
            if sign == 1:
                server._delivered_answers[qid].add(oid)
            else:
                server._delivered_answers[qid].discard(oid)
            server.freshness.observe_delivered(qid, oid, sign)
        else:
            result.dropped_updates += 1
            server.freshness.observe_undelivered(qid, oid, sign)
        server.recorder.record("downlink", qid=qid, oid=oid, sign=sign, ok=ok)
    return result


@given(
    link_kinds=st.lists(LINK_KINDS, min_size=1, max_size=5),
    owner_seed=st.integers(min_value=0, max_value=10**6),
    cycles=CYCLES,
)
@settings(max_examples=150, deadline=None)
def test_slice_shipping_equals_per_message_reference(link_kinds, owner_seed, cycles):
    rng = random.Random(owner_seed)
    owners = {qid: rng.randrange(len(link_kinds)) for qid in range(1, 9)}
    sliced, reference = Stack(link_kinds, owners), Stack(link_kinds, owners)
    for now, (stamped, stream) in enumerate(cycles, start=1):
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
        assert sliced.observable() == reference.observable()
