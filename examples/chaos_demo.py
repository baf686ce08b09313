"""Chaos engineering for the continuous-query stack.

Runs a seeded fault plan — link drops, duplicate and reordered
deliveries, client outages with scheduled wakeups, delayed uplinks —
against the engine while the differential consistency oracle
cross-checks four independent answer derivations every cycle (replay,
snapshot, commit invariant, desync).
A healthy stack survives all of it with zero divergences and every
client converging back to the live answer.

Run:  python examples/chaos_demo.py
"""

from repro.faults import default_plan, run_chaos


def main() -> None:
    seed = 7
    plan = default_plan(seed)
    print(f"fault plan (seed={seed}):")
    for name, value in sorted(plan.to_dict().items()):
        if name != "seed":
            print(f"  {name:18} {value}")
    print()

    report = run_chaos(plan, cycles=20, n_objects=40)
    verdict = "clean" if report.ok else "DIVERGED"
    print(f"{verdict}: "
          f"{sum(report.faults.values())} faults injected "
          f"({', '.join(f'{k}={v}' for k, v in sorted(report.faults.items()))}), "
          f"{len(report.divergences)} divergences, "
          f"converged in {report.wakeup_rounds} wakeup rounds")
    for divergence in report.divergences:
        print(f"    {divergence}")

    print()
    print("the oracle checked every cycle: committed ⊆ delivered held, "
          "incremental answers matched from-scratch recomputation, and "
          "loss-free clients never desynced.")


if __name__ == "__main__":
    main()
