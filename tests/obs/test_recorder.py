"""Flight recorder: ring semantics, triggers, dumps, the null object."""

import json

import pytest

from repro.obs import NULL_RECORDER, FlightRecorder


class TickClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestRing:
    def test_events_in_order_with_cycle_stamps(self):
        recorder = FlightRecorder(capacity=8, clock=TickClock())
        recorder.record("uplink_report", oid=1)
        recorder.advance_cycle()
        recorder.record("downlink", qid=2, ok=True)
        events = recorder.events()
        assert [e["kind"] for e in events] == ["uplink_report", "downlink"]
        assert [e["cycle"] for e in events] == [0, 1]
        assert events[0]["oid"] == 1
        assert events[1]["qid"] == 2
        assert events[0]["seq"] == 1

    def test_ring_overwrites_oldest(self):
        recorder = FlightRecorder(capacity=3)
        for i in range(5):
            recorder.record("e", i=i)
        assert len(recorder) == 3
        assert recorder.recorded == 5
        assert recorder.overwritten == 2
        assert [e["i"] for e in recorder.events()] == [2, 3, 4]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_data_key_cannot_shadow_envelope(self):
        """A data key named like an envelope field (``kind``, ``seq``,
        ...) must neither raise nor let the event masquerade as a
        different kind in a dump."""
        recorder = FlightRecorder(capacity=4)
        recorder.record("fault", kind="drop")
        recorder.trigger("oracle_divergence", reason="commit")
        events = recorder.events()
        assert events[0]["kind"] == "fault"
        assert events[1]["kind"] == "trigger"
        assert events[1]["reason"] == "commit"
        assert recorder.triggered == "oracle_divergence"

    def test_clear_resets_everything(self):
        recorder = FlightRecorder(capacity=4)
        recorder.record("e")
        recorder.trigger("boom")
        recorder.clear()
        assert len(recorder) == 0
        assert recorder.recorded == 0
        assert recorder.triggered is None


class TestTrigger:
    def test_first_trigger_wins(self):
        recorder = FlightRecorder(capacity=8)
        recorder.trigger("oracle_divergence", qid=3)
        recorder.trigger("chaos_failure", divergences=1)
        assert recorder.triggered == "oracle_divergence"
        # Both triggers are still in the ring as events.
        kinds = [e["kind"] for e in recorder.events()]
        assert kinds == ["trigger", "trigger"]

    def test_auto_dump_on_trigger(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.auto_dump_prefix = tmp_path / "blackbox"
        recorder.record("downlink", qid=1, ok=False)
        paths = recorder.trigger("oracle_divergence", qid=1)
        assert paths is not None
        assert all(p.exists() for p in paths)
        # A second trigger does not re-dump.
        assert recorder.trigger("again") is None


class TestDumps:
    def test_jsonl_round_trip(self, tmp_path):
        recorder = FlightRecorder(capacity=8, clock=TickClock())
        recorder.record("uplink_report", oid=7)
        recorder.advance_cycle()
        recorder.record("commit", qid=1, via="explicit")
        path = recorder.write_jsonl(tmp_path / "flight.jsonl")
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert lines == recorder.events()

    def test_chrome_trace_instant_events(self):
        recorder = FlightRecorder(capacity=8, clock=TickClock())
        recorder.record("a")
        recorder.record("b", x=1)
        trace = recorder.to_chrome_trace()
        events = trace["traceEvents"]
        assert [e["ph"] for e in events] == ["i", "i"]
        assert events[0]["ts"] == 0.0
        assert events[1]["ts"] == 1e6  # one TickClock second later
        assert events[1]["args"]["x"] == 1
        assert all(e["cat"] == "flight" for e in events)

    def test_dump_writes_both_files(self, tmp_path):
        recorder = FlightRecorder(capacity=8)
        recorder.record("e")
        jsonl, trace = recorder.dump(tmp_path / "box")
        assert jsonl.name == "box.jsonl"
        assert trace.name == "box.trace.json"
        parsed = json.loads(trace.read_text())
        assert len(parsed["traceEvents"]) == 1


class TestNullRecorder:
    def test_null_recorder_noops(self):
        NULL_RECORDER.record("anything", x=1)
        NULL_RECORDER.advance_cycle()
        assert NULL_RECORDER.trigger("boom") is None
        assert NULL_RECORDER.enabled is False
        assert len(NULL_RECORDER) == 0
        assert NULL_RECORDER.events() == []
