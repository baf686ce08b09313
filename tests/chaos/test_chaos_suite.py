"""The seeded chaos suite: both pipelines, several seeds, zero
divergences allowed.

Each run injects link drops, duplicates, cross-query reorders, client
outages with scheduled wakeups and delayed uplinks — with the
consistency oracle cross-checking replay, snapshot, commit and desync
derivations every cycle, and a clean convergence phase at the end.
"""

import pytest

from repro.faults import PIPELINES, default_plan, run_chaos

SEEDS = [1, 2, 3, 4, 5]


@pytest.mark.parametrize("pipeline", PIPELINES)
@pytest.mark.parametrize("seed", SEEDS)
def test_chaos_run_is_clean(pipeline, seed):
    report = run_chaos(pipeline, default_plan(seed), cycles=15, n_objects=30)
    assert sum(report.faults.values()) > 0, "plan injected no faults"
    assert report.divergences == [], "\n".join(
        str(d) for d in report.divergences
    )
    assert report.converged, (
        f"clients failed to converge after {report.wakeup_rounds} wakeup rounds"
    )


def test_chaos_runs_are_deterministic():
    """Same (pipeline, seed) -> identical fault counts and outcomes."""
    a = run_chaos("columnar", default_plan(1), cycles=10, n_objects=20)
    b = run_chaos("columnar", default_plan(1), cycles=10, n_objects=20)
    assert a.faults == b.faults
    assert a.wakeup_rounds == b.wakeup_rounds
    assert a.to_dict() == b.to_dict()


def test_report_shape():
    report = run_chaos("per-object", default_plan(3), cycles=5, n_objects=10)
    payload = report.to_dict()
    assert payload["pipeline"] == "per-object"
    assert payload["seed"] == 3
    assert payload["ok"] is True
    assert isinstance(payload["faults"], dict)
