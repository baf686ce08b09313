"""The chaos harness: a seeded hostile workload with the oracle watching.

:func:`run_chaos` builds a small but complete deployment — three
clients (one behind a throttled downlink) owning range, k-NN and
predictive queries, a population of moving objects — installs a
:class:`~repro.faults.FaultInjector`, and runs evaluation cycles with
the :class:`~repro.check.ConsistencyOracle` checking every one.  After
the hostile phase the faults are uninstalled and clients are woken
repeatedly until every mirror matches the engine (a throttled link may
need several wakeups — each advances the committed base by what fits).

Everything is derived from the plan's seed; a failing seed replays
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.check import ConsistencyOracle, Divergence
from repro.core.server import LocationAwareServer
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.geometry import Point, Rect, Velocity
from repro.obs import DEFAULT_RING_SIZE, FlightRecorder

#: A moderately hostile default: every fault dimension exercised.
DEFAULT_PLAN_RATES = dict(
    disconnect_rate=0.10,
    reconnect_after=2,
    drop_rate=0.08,
    duplicate_rate=0.05,
    reorder_rate=0.05,
    uplink_delay_rate=0.10,
)


@dataclass(slots=True)
class ChaosReport:
    """What one chaos run did and found."""

    seed: int
    cycles: int
    faults: dict[str, int] = field(default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)
    converged: bool = False
    wakeup_rounds: int = 0
    #: Failing runs only: the flight-recorder ring (protocol events
    #: leading up to the failure) and a full metrics snapshot.
    flight_events: list[dict] = field(default_factory=list)
    metrics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.converged and not self.divergences

    def to_dict(self) -> dict:
        out = {
            "seed": self.seed,
            "cycles": self.cycles,
            "faults": dict(self.faults),
            "total_faults": sum(self.faults.values()),
            "divergences": [str(d) for d in self.divergences],
            "converged": self.converged,
            "wakeup_rounds": self.wakeup_rounds,
            "ok": self.ok,
        }
        if self.flight_events:
            out["flight_events"] = self.flight_events
        if self.metrics:
            out["metrics"] = self.metrics
        return out


def run_chaos(
    plan: FaultPlan,
    cycles: int = 30,
    n_objects: int = 40,
    max_wakeup_rounds: int = 50,
) -> ChaosReport:
    """One seeded chaos run; returns the report (never raises on
    divergence — the caller decides what failure means)."""
    report = ChaosReport(seed=plan.seed, cycles=cycles)
    rng = random.Random(f"{plan.seed}:workload")
    # Every chaos run flies with the black box armed: a failure report
    # embeds the protocol events that led to it, not just tallies.
    recorder = FlightRecorder(capacity=DEFAULT_RING_SIZE)
    server = LocationAwareServer(grid_size=16, recorder=recorder)
    # -- deployment: 3 clients, 5 queries, moving objects ----------
    server.register_client(0)
    server.register_client(1)
    server.register_client(2, downlink_budget=60)  # ~3 updates/cycle
    server.register_range_query(0, qid=1, region=Rect(0.1, 0.1, 0.5, 0.5))
    server.register_range_query(0, qid=2, region=Rect(0.4, 0.4, 0.9, 0.9))
    server.register_knn_query(1, qid=3, center=Point(0.5, 0.5), k=5)
    server.register_predictive_query(
        2, qid=4, region=Rect(0.2, 0.2, 0.8, 0.8), horizon=5.0
    )
    server.register_range_query(2, qid=5, region=Rect(0.0, 0.0, 0.4, 0.9))
    for oid in range(n_objects):
        velocity = (
            Velocity(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
            if oid % 2
            else Velocity.ZERO
        )
        server.receive_object_report(
            oid, Point(rng.random(), rng.random()), t=0.0, velocity=velocity
        )

    oracle = ConsistencyOracle(server)
    injector = FaultInjector(server, plan)
    injector.install()

    # -- hostile phase --------------------------------------------
    for cycle in range(cycles):
        now = float(cycle + 1)
        injector.begin_cycle(cycle)
        for oid in rng.sample(range(n_objects), k=max(1, n_objects // 3)):
            velocity = (
                Velocity(rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02))
                if oid % 2
                else Velocity.ZERO
            )
            server.receive_object_report(
                oid, Point(rng.random(), rng.random()), now, velocity
            )
        if cycle % 3 == 1:  # the moving queries report new anchors
            server.receive_range_query_move(
                2, _jittered_rect(rng), now
            )
            server.receive_knn_query_move(
                3, Point(rng.random(), rng.random()), now
            )
        if cycle % 4 == 2:  # a stationary client acknowledges
            server.receive_commit(1)
            server.receive_commit(5)
        oracle.begin_cycle()
        result = server.evaluate_cycle(now)
        oracle.end_cycle(cycle, result.updates)

    # -- clean convergence phase ----------------------------------
    injector.uninstall()
    rounds = 0
    while rounds < max_wakeup_rounds and not all(
        oracle.in_sync(cid) for cid in server.client_ids()
    ):
        rounds += 1
        for client_id in server.client_ids():
            if not oracle.in_sync(client_id):
                server.receive_wakeup(client_id)
    report.wakeup_rounds = rounds
    report.converged = all(
        oracle.in_sync(cid) for cid in server.client_ids()
    )
    # One last fault-free cycle: the oracle must stay clean on a
    # healthy network too.
    oracle.begin_cycle()
    result = server.evaluate_cycle(float(cycles + 1))
    oracle.end_cycle(cycles, result.updates)

    report.faults = dict(injector.counts)
    report.divergences = list(oracle.divergences)
    if not report.ok:
        if recorder.triggered is None:
            recorder.trigger(
                "chaos_failure",
                converged=report.converged,
                divergences=len(report.divergences),
            )
        report.flight_events = recorder.events()
        report.metrics = server.registry.to_dict()
    return report


def default_plan(seed: int) -> FaultPlan:
    """The harness's standard hostile plan for ``seed``."""
    return FaultPlan(seed=seed, **DEFAULT_PLAN_RATES)


def _jittered_rect(rng: random.Random) -> Rect:
    x = rng.uniform(0.0, 0.6)
    y = rng.uniform(0.0, 0.6)
    return Rect(x, y, x + 0.35, y + 0.35)
