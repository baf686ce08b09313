"""Seeded fault injection for the continuous-query stack.

Three layers:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (frozen, seeded rates)
  and :class:`FaultSchedule` (one independent RNG stream per fault
  dimension, so runs replay exactly);
* :mod:`repro.faults.injector` — :class:`FaultInjector` wires a plan
  into the stack's injectable hooks: downlink ``link.fault_hook``
  (drop / duplicate / cross-query reorder) and the server's
  ``uplink_gate`` (delayed uplinks), plus cycle-level client
  disconnects with scheduled wakeups;
* :mod:`repro.faults.harness` — :func:`run_chaos` runs a seeded
  workload under a plan with the
  :class:`~repro.check.ConsistencyOracle` checking every cycle, then
  converges every client on a clean network.

``python -m repro.faults`` runs the chaos suite across seeds and
writes a JSON report (non-zero exit on any divergence or
non-convergence).
"""

from repro.faults.harness import (
    DEFAULT_PLAN_RATES,
    ChaosReport,
    default_plan,
    run_chaos,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSchedule

__all__ = [
    "DEFAULT_PLAN_RATES",
    "ChaosReport",
    "FaultInjector",
    "FaultPlan",
    "FaultSchedule",
    "default_plan",
    "run_chaos",
]
