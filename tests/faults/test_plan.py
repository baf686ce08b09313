"""Fault plans: validation, determinism, dimension independence."""

import pytest

from repro.faults import FaultPlan
from repro.net import DELIVER, DROP, DUPLICATE, FAULT_ACTIONS, REORDER


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(disconnect_rate=-0.1)

    def test_downlink_rates_partition_one_roll(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_rate=0.5, duplicate_rate=0.4, reorder_rate=0.3)

    def test_reconnect_after_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultPlan(reconnect_after=0)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        plan = FaultPlan(
            seed=42, drop_rate=0.2, duplicate_rate=0.1, reorder_rate=0.1,
            disconnect_rate=0.3, uplink_delay_rate=0.2,
        )
        a, b = plan.schedule(), plan.schedule()
        assert [a.downlink_action() for _ in range(200)] == [
            b.downlink_action() for _ in range(200)
        ]
        assert [a.should_disconnect() for _ in range(50)] == [
            b.should_disconnect() for _ in range(50)
        ]

    def test_different_seeds_differ(self):
        a = FaultPlan(seed=1, drop_rate=0.5).schedule()
        b = FaultPlan(seed=2, drop_rate=0.5).schedule()
        assert [a.downlink_action() for _ in range(100)] != [
            b.downlink_action() for _ in range(100)
        ]

    def test_dimensions_are_independent_streams(self):
        """Consuming downlink decisions must not perturb the disconnect
        stream: each dimension owns its own seeded RNG."""
        plan = FaultPlan(seed=7, drop_rate=0.5, disconnect_rate=0.5)
        undisturbed = plan.schedule()
        disturbed = plan.schedule()
        for _ in range(500):
            disturbed.downlink_action()  # burn the downlink stream only
        assert [undisturbed.should_disconnect() for _ in range(50)] == [
            disturbed.should_disconnect() for _ in range(50)
        ]


class TestActionDistribution:
    def test_all_actions_reachable(self):
        plan = FaultPlan(
            seed=3, drop_rate=0.25, duplicate_rate=0.25, reorder_rate=0.25
        )
        schedule = plan.schedule()
        seen = {schedule.downlink_action() for _ in range(500)}
        assert seen == set(FAULT_ACTIONS)

    def test_zero_rates_always_deliver(self):
        schedule = FaultPlan(seed=9).schedule()
        assert all(schedule.downlink_action() == DELIVER for _ in range(100))

    def test_full_drop_rate_always_drops(self):
        schedule = FaultPlan(seed=9, drop_rate=1.0).schedule()
        assert all(schedule.downlink_action() == DROP for _ in range(100))

    def test_precedence_order(self):
        """drop, then duplicate, then reorder partition the unit roll."""
        schedule = FaultPlan(seed=5, duplicate_rate=1.0).schedule()
        assert all(
            schedule.downlink_action() == DUPLICATE for _ in range(50)
        )
        schedule = FaultPlan(seed=5, reorder_rate=1.0).schedule()
        assert all(schedule.downlink_action() == REORDER for _ in range(50))
