"""Chaos scenario: throttle exhaustion and outage in the same cycle.

A client behind a byte-budgeted downlink generates more update traffic
than fits each cycle (budget exhaustion), while disconnect/wakeup pairs
land *within* the same cycles — the interleaving where budget
accounting and recovery bookkeeping can double-charge or double-count.
The consistency oracle must stay clean throughout and after clean
convergence, and throttle drops must stay disjoint from outage drops in
the exported counters.
"""

import random

import pytest

from repro.check import ConsistencyOracle
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect

BUDGET = 40  # two 17-byte updates per cycle
N_OBJECTS = 12
REGION = Rect(0.05, 0.05, 0.95, 0.95)


def churn(server: LocationAwareServer, rng: random.Random, now: float) -> None:
    """Move every object somewhere random: plenty of +/- updates."""
    for oid in range(N_OBJECTS):
        inside = rng.random() < 0.5
        x = rng.uniform(0.1, 0.9) if inside else rng.uniform(0.96, 0.99)
        server.receive_object_report(oid, Point(x, x), now)


@pytest.mark.parametrize("seed", [42, 7])
def test_same_cycle_throttle_and_outage_keeps_oracle_clean(seed):
    server = LocationAwareServer(grid_size=8)
    server.register_client(1, downlink_budget=BUDGET)
    server.register_range_query(1, qid=10, region=REGION)
    link = server.link_of(1)
    oracle = ConsistencyOracle(server)
    rng = random.Random(seed)
    churn(server, rng, 0.0)

    for cycle in range(16):
        now = float(cycle + 1)
        churn(server, rng, now)
        phase = cycle % 4
        if phase == 1:
            link.disconnect()  # this cycle's evaluation runs dark
        elif phase == 2:
            # Wakeup AND a fresh outage inside one cycle: the partial
            # recovery (what fits the budget) must commit correctly
            # even though the link is dark again before evaluation.
            server.receive_wakeup(1)
            link.disconnect()
        elif phase == 3:
            # Wakeup in the same cycle as budget exhaustion: recovery
            # diffs and the cycle's own updates compete for 40 bytes.
            server.receive_wakeup(1)
        oracle.begin_cycle()
        result = server.evaluate_cycle(now)
        oracle.end_cycle(cycle, result.updates)

    # Clean convergence: repeated wakeups, each shipping what fits.
    rounds = 0
    while not oracle.in_sync(1):
        rounds += 1
        assert rounds <= 50, "throttled recovery failed to converge"
        server.receive_wakeup(1)
    oracle.begin_cycle()
    result = server.evaluate_cycle(100.0)
    oracle.end_cycle(99, result.updates)

    assert oracle.divergences == [], "\n".join(map(str, oracle.divergences))

    # Both fault families actually happened, and their counters are
    # disjoint: every rejected delivery is either throttled or dropped
    # (outage), never both.
    throttled = link.throttled_messages
    dropped = link.dropped_messages
    assert throttled > 0
    assert dropped > 0
    assert throttled + dropped == server.stats.dropped_messages
    assert server.registry.value_of("net_throttled_messages_total") == throttled


def test_throttled_rejections_never_charge_budget_during_outage():
    """Regression companion: a cycle's outage losses must not eat the
    budget that post-reconnect recovery relies on in the same cycle."""
    server = LocationAwareServer(grid_size=8)
    server.register_client(1, downlink_budget=BUDGET)
    server.register_range_query(1, qid=10, region=REGION)
    link = server.link_of(1)
    rng = random.Random(7)
    churn(server, rng, 0.0)
    server.evaluate_cycle(0.5)
    link.drain()

    link.disconnect()
    churn(server, rng, 1.0)
    server.evaluate_cycle(1.0)  # everything dropped in the outage
    assert link.remaining_budget == BUDGET  # outage losses cost nothing
    batch = server.receive_wakeup(1)  # same-"period" recovery
    # The recovery had the whole budget available, so something landed.
    assert link.drain() or batch is not None
    assert server.commits.committed_answer(10) is not None
