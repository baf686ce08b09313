"""The black box under fire: forced divergences trip the recorder and
failing chaos runs ship their last-N protocol events with the report."""

from __future__ import annotations

import json

from repro.check import ConsistencyOracle
from repro.core.server import LocationAwareServer
from repro.faults import default_plan, run_chaos
from repro.faults import __main__ as chaos_cli
from repro.geometry import Point, Rect
from repro.obs import FlightRecorder


def test_forced_divergence_dumps_causal_chain(tmp_path):
    """Tampering with the committed-answer store (a commit the client
    never saw) must trip the recorder, and the JSONL dump must let the
    reader reconstruct the divergent report -> delivery -> commit chain.
    """
    recorder = FlightRecorder(capacity=512)
    recorder.auto_dump_prefix = tmp_path / "blackbox"
    server = LocationAwareServer(grid_size=8, recorder=recorder)
    server.register_client(1)
    server.register_range_query(1, 100, Rect(0.0, 0.0, 0.5, 0.5))
    oracle = ConsistencyOracle(server)

    # A clean cycle: object 7 enters the answer, the update delivers.
    server.receive_object_report(7, Point(0.1, 0.1), 0.0)
    oracle.begin_cycle()
    result = server.evaluate_cycle(1.0)
    assert oracle.end_cycle(0, result.updates) == []
    server.receive_commit(100)

    # Corrupt the committed base: an object the client never received.
    server.commits.commit(100, frozenset({7, 999}))
    oracle.begin_cycle()
    result = server.evaluate_cycle(2.0)
    found = oracle.end_cycle(1, result.updates)
    assert any(d.kind == "commit" for d in found)

    assert recorder.triggered == "oracle_divergence"
    dump = tmp_path / "blackbox.jsonl"
    assert dump.exists()
    events = [json.loads(line) for line in dump.read_text().splitlines()]

    def first(kind, **match):
        return next(
            e
            for e in events
            if e["kind"] == kind
            and all(e.get(k) == v for k, v in match.items())
        )

    # The full causal chain around the divergent query is in the dump,
    # in protocol order: the report, its delivery, the (healthy)
    # acknowledgement, then the check that caught the corruption.
    report = first("uplink_report", oid=7)
    delivery = first("downlink", qid=100, oid=7, ok=True)
    commit = first("commit", qid=100)
    divergence = first("oracle_divergence", qid=100, check="commit")
    trigger = first("trigger", reason="oracle_divergence")
    assert (
        report["seq"]
        < delivery["seq"]
        < commit["seq"]
        < divergence["seq"]
        < trigger["seq"]
    )
    # The divergence names exactly the phantom object.
    assert divergence["oids"] == [999]
    # And the trace overlay dump rode along.
    assert (tmp_path / "blackbox.trace.json").exists()


def test_failed_chaos_run_embeds_flight_events_and_metrics():
    """A run that cannot converge (zero wakeup rounds allowed) must
    carry the ring and a metrics snapshot in its report."""
    report = run_chaos(
        "columnar",
        default_plan(1),
        cycles=10,
        n_objects=30,
        max_wakeup_rounds=0,
    )
    assert not report.ok
    assert report.flight_events, "failing run shipped no flight events"
    kinds = {e["kind"] for e in report.flight_events}
    assert "fault" in kinds  # injections are part of the story
    assert report.metrics["fault_injected_total"]["series"]
    payload = report.to_dict()
    assert payload["flight_events"] == report.flight_events
    json.dumps(payload)  # CHAOS_REPORT.json embeds it verbatim


def test_clean_chaos_run_ships_no_flight_events():
    report = run_chaos(
        "columnar", default_plan(1), cycles=10, n_objects=20
    )
    assert report.ok
    assert report.flight_events == []
    assert report.metrics == {}
    assert "flight_events" not in report.to_dict()


def test_cli_writes_flight_dump_per_failure(tmp_path, capsys):
    rc = chaos_cli.main(
        [
            "--pipelines",
            "columnar",
            "--seeds",
            "1",
            "--cycles",
            "10",
            "--objects",
            "30",
            "--report",
            str(tmp_path / "CHAOS_REPORT.json"),
            "--flight-dir",
            str(tmp_path / "flight"),
        ]
    )
    assert rc == 0  # healthy matrix: no dumps
    assert not (tmp_path / "flight").exists()


def test_cli_flight_dump_on_failure(tmp_path, monkeypatch):
    from repro.faults.harness import ChaosReport

    failing = ChaosReport(pipeline="columnar", seed=9, cycles=1)
    failing.flight_events = [
        {"seq": 1, "t": 0.0, "cycle": 0, "kind": "fault", "fault": "drop"}
    ]
    monkeypatch.setattr(
        chaos_cli, "run_chaos", lambda *args, **kwargs: failing
    )
    rc = chaos_cli.main(
        [
            "--pipelines",
            "columnar",
            "--seeds",
            "9",
            "--flight-dir",
            str(tmp_path / "flight"),
        ]
    )
    assert rc == 1
    dump = tmp_path / "flight" / "CHAOS_FLIGHT_columnar_9.jsonl"
    assert dump.exists()
    (line,) = dump.read_text().splitlines()
    assert json.loads(line)["kind"] == "fault"
