"""Naive recovery must keep the same observability bookkeeping as the
incremental wakeup path (the ablation compares strategies, not gaps).

Regression: ``recover_naive`` used to skip the flight recorder's
``wakeup_begin``/``wakeup_end`` events and never attributed the
full-answer members in the freshness tracker, so a naive-recovery run
looked artificially quiet next to ``receive_wakeup``.
"""

import pytest

from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect
from repro.obs import FlightRecorder

REGION = Rect(0.1, 0.1, 0.9, 0.9)


def make_server(budget: int | None = None) -> LocationAwareServer:
    server = LocationAwareServer(
        grid_size=8, recorder=FlightRecorder(capacity=256)
    )
    server.register_client(1, downlink_budget=budget)
    server.register_range_query(1, qid=10, region=REGION)
    for oid in range(4):
        server.receive_object_report(oid, Point(0.5, 0.5), 0.0)
    server.evaluate_cycle(1.0)
    return server


def events_of(server: LocationAwareServer, kind: str) -> list[dict]:
    return [
        event
        for event in server.recorder.events()
        if event["kind"] == kind and event.get("via") == "naive"
    ]


class TestRecorderParity:
    def test_naive_recovery_brackets_with_wakeup_events(self):
        server = make_server()
        server.link_of(1).disconnect()
        server.recover_naive(1)
        begins = events_of(server, "wakeup_begin")
        ends = events_of(server, "wakeup_end")
        assert len(begins) == 1
        assert begins[0]["client"] == 1
        assert len(ends) == 1
        assert ends[0]["recovered"] == 1  # one query's answer delivered

    def test_rejected_answer_reports_zero_recovered(self):
        # Budget below one FullAnswerMessage: delivery is rejected.
        server = make_server(budget=16)
        server.link_of(1).disconnect()
        server.recover_naive(1)
        ends = events_of(server, "wakeup_end")
        assert len(ends) == 1
        assert ends[0]["recovered"] == 0


@pytest.mark.usefixtures("full_tracking")
class TestFreshnessParity:
    def test_delivered_answer_members_are_attributed(self):
        server = make_server()
        before = server.freshness.stage_summary()
        delivered_before = (
            before.get("delivery", {}).get("positive", {}).get("count", 0)
        )
        server.link_of(1).disconnect()
        server.recover_naive(1)
        after = server.freshness.stage_summary()
        delivered_after = after["delivery"]["positive"]["count"]
        # All four answer members attributed by the full-answer delivery.
        assert delivered_after == delivered_before + 4

    def test_tracker_is_handed_finite_aligned_sequences(self):
        """The tracker cuts its columns into query runs by length and
        slicing: an iterator such as ``repeat(qid)`` must never reach
        it (one that is infinite would never be exhausted).  A full
        answer is one query run, the shape of a wakeup delta."""
        server = make_server()
        observe = server.freshness.observe_delivered_runs
        handed = []

        def spy(runs, oids, signs):
            for column in (runs, oids, signs):
                assert isinstance(column, (list, tuple)), type(column)
            assert len(oids) == len(signs)
            handed.append(runs)
            observe(runs, oids, signs)

        server.freshness.observe_delivered_runs = spy
        server.link_of(1).disconnect()
        server.recover_naive(1)
        assert handed == [[(10, 0, 4)]]

    def test_rejected_answer_counts_undelivered(self):
        server = make_server(budget=16)
        server.link_of(1).disconnect()
        before = server.registry.value_of(
            "freshness_undelivered_updates_total"
        )
        server.recover_naive(1)
        after = server.registry.value_of("freshness_undelivered_updates_total")
        assert after == before + 4  # every member of the rejected answer


def test_naive_and_incremental_wakeup_record_symmetrically():
    """Same outage, both strategies: both paths emit one begin/end pair."""
    naive = make_server()
    naive.link_of(1).disconnect()
    naive.recover_naive(1)

    incremental = make_server()
    incremental.link_of(1).disconnect()
    incremental.receive_wakeup(1)

    def kinds(server):
        return [
            event["kind"]
            for event in server.recorder.events()
            if event["kind"] in ("wakeup_begin", "wakeup_end")
        ]

    assert kinds(naive) == kinds(incremental) == ["wakeup_begin", "wakeup_end"]
