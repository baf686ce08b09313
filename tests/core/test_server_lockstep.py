"""The location-aware server and the consistency oracle, in lock-step.

A hypothesis state machine drives a columnar
:class:`~repro.core.server.LocationAwareServer`, with a
:class:`~repro.check.ConsistencyOracle` attached, through a random
protocol run: objects reported and removed; range, k-NN and predictive
queries registered, moved (a commit riding on the uplink) and
unregistered, owned by plain and throttled clients; explicit commits;
links cut, throttled links squeezed to a budget of one or two updates;
wakeups, naive recoveries and evaluations.  It holds:

* after every evaluation, no oracle divergence (replay, snapshot,
  commit, desync);
* after every step, for every bound query, the server's derived
  ``delivered_answer`` — the live answer XOR the query's lag — equals
  the oracle mirror's answer, an independent per-message fold of what
  the link accepted since the client's last rollback;
* after a wakeup or a naive recovery on an unthrottled link, the
  mirror holds the live answer.
"""

from __future__ import annotations

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.check import ConsistencyOracle
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.net import ThrottledLink

HORIZON = 30.0

#: A 16-step lattice over the world: points on cell and region edges.
coords = st.sampled_from([i / 16 for i in range(17)])
points = st.builds(Point, coords, coords)
speeds = st.sampled_from([0.0, 0.0, -1 / 16, 1 / 32])
oids = st.integers(0, 11)
#: ``None`` is a plain link; the rest are byte budgets (17 B an update).
budgets = st.sampled_from([None, None, 17, 60, 200])


@st.composite
def rects(draw):
    x0, x1 = sorted((draw(coords), draw(coords)))
    y0, y1 = sorted((draw(coords), draw(coords)))
    return Rect(x0, y0, x1, y1)


class ServerLockstep(RuleBasedStateMachine):
    @initialize(links=st.lists(budgets, min_size=1, max_size=3))
    def build(self, links):
        self.server = LocationAwareServer(grid_size=8, prediction_horizon=HORIZON)
        for client_id, budget in enumerate(links):
            self.server.register_client(client_id, downlink_budget=budget)
        self.oracle = ConsistencyOracle(self.server)
        self.clients = list(range(len(links)))
        self.now = 0.0
        self.cycle = 0
        #: Bound queries, by kind.
        self.kinds: dict[int, str] = {}
        self.live: set[int] = set()
        self.next_qid = 1

    def _live_answer(self, qid: int) -> frozenset[int]:
        query = self.server.engine.queries.get(qid)
        return frozenset() if query is None else frozenset(query.answer)

    def _register(self, kind: str, client: int, *args) -> None:
        qid = self.next_qid
        self.next_qid += 1
        getattr(self.server, f"register_{kind}_query")(client, qid, *args, self.now)
        self.kinds[qid] = kind

    def _recovered(self, client: int) -> None:
        if not isinstance(self.server.link_of(client), ThrottledLink):
            for qid in self.server.queries_of(client):
                assert self.oracle.mirror_answer(client, qid) == self._live_answer(qid), qid

    @rule(oid=oids, location=points, vx=speeds, vy=speeds)
    def report(self, oid, location, vx, vy):
        velocity = Velocity(vx, vy) if vx or vy else Velocity.ZERO
        self.server.receive_object_report(oid, location, self.now, velocity)
        self.live.add(oid)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def remove(self, data):
        oid = data.draw(st.sampled_from(sorted(self.live)))
        self.server.remove_object(oid)
        self.live.discard(oid)

    @rule(data=st.data(), region=rects())
    def register_range(self, data, region):
        self._register("range", data.draw(st.sampled_from(self.clients)), region)

    @rule(data=st.data(), center=points, k=st.integers(1, 5))
    def register_knn(self, data, center, k):
        self._register("knn", data.draw(st.sampled_from(self.clients)), center, k)

    @rule(data=st.data(), region=rects(), horizon=st.sampled_from([1.0, HORIZON]))
    def register_predictive(self, data, region, horizon):
        client = data.draw(st.sampled_from(self.clients))
        self._register("predictive", client, region, horizon)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data(), region=rects(), center=points)
    def move(self, data, region, center):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        kind = self.kinds[qid]
        target = center if kind == "knn" else region
        getattr(self.server, f"receive_{kind}_query_move")(qid, target, self.now)

    @precondition(lambda self: self.kinds)
    @rule(data=st.data())
    def unregister(self, data):
        qid = data.draw(st.sampled_from(sorted(self.kinds)))
        self.server.unregister_query(qid)
        del self.kinds[qid]

    @precondition(lambda self: self.kinds)
    @rule(data=st.data())
    def commit(self, data):
        self.server.receive_commit(data.draw(st.sampled_from(sorted(self.kinds))))

    @rule(data=st.data())
    def disconnect(self, data):
        self.server.link_of(data.draw(st.sampled_from(self.clients))).disconnect()

    @rule(data=st.data(), budget=st.sampled_from([17, 34]))
    def squeeze(self, data, budget):
        link = self.server.link_of(data.draw(st.sampled_from(self.clients)))
        if isinstance(link, ThrottledLink):
            link.budget_bytes_per_cycle = budget

    @rule(data=st.data())
    def wakeup(self, data):
        client = data.draw(st.sampled_from(self.clients))
        self.server.receive_wakeup(client)
        self._recovered(client)

    @rule(data=st.data())
    def recover_naive(self, data):
        client = data.draw(st.sampled_from(self.clients))
        self.server.recover_naive(client)
        self._recovered(client)

    @rule(dt=st.sampled_from([0.0, 1.0, 7.0]))
    def evaluate(self, dt):
        self.now += dt
        self.oracle.begin_cycle()
        result = self.server.evaluate_cycle(self.now)
        found = self.oracle.end_cycle(self.cycle, result.updates)
        self.cycle += 1
        assert found == [], [str(divergence) for divergence in found]

    @invariant()
    def delivered_is_what_the_client_holds(self):
        server = self.server
        for qid in self.kinds:
            mirrored = self.oracle.mirror_answer(server.client_of(qid), qid)
            assert server.delivered_answer(qid) == mirrored, qid


TestServerLockstep = ServerLockstep.TestCase
TestServerLockstep.settings = settings(deadline=None)
