"""In-process transport: the generator's ops applied straight to a
``LocationAwareServer``.

A round's window opens at the first ``receive_*`` call and closes when
``evaluate_cycle`` has returned and every client link is drained.
Argument objects (``Point``/``Rect``/``Velocity``) are built before the
window and the drained messages are folded after it.  The garbage
collector is collected before and disabled inside every window, setup
included: one gen-2 pass over a 100 MB heap landing in a round is the
difference between rounds, not between programs.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from time import perf_counter

from repro.core.engine import IncrementalEngine
from repro.core.server import LocationAwareServer
from repro.geometry import Point, Rect, Velocity
from repro.obs import prometheus_text

import config
import harness
import layers
import measure
import tracing
import verify

#: Exceptions the server raises for an op it will not apply; anything
#: else is a broken run and propagates.
_OP_ERRORS = (KeyError, ValueError)


def _compile(server, ops: list[tuple]) -> list[tuple]:
    """``(bound method, args)`` per op, argument objects already built."""
    report = server.receive_object_report
    moves = {
        "range": server.receive_range_query_move,
        "predictive": server.receive_predictive_query_move,
    }
    calls = []
    for op in ops:
        kind = op[0]
        if kind == "report":
            _, oid, x, y, vx, vy, t = op
            velocity = Velocity(vx, vy) if (vx or vy) else Velocity.ZERO
            calls.append((report, (oid, Point(x, y), t, velocity)))
        elif kind == "move":
            if op[2] == "knn":
                _, qid, _, cx, cy, t = op
                calls.append(
                    (server.receive_knn_query_move, (qid, Point(cx, cy), t))
                )
            else:
                _, qid, qkind, minx, miny, maxx, maxy, t = op
                calls.append(
                    (moves[qkind], (qid, Rect(minx, miny, maxx, maxy), t))
                )
        elif kind == "commit":
            calls.append((server.receive_commit, (op[1],)))
        elif kind == "hello":
            calls.append((server.register_client, (op[1],)))
        elif kind == "register":
            if op[3] == "knn":
                _, client, qid, _, cx, cy, k = op
                calls.append(
                    (server.register_knn_query, (client, qid, Point(cx, cy), k))
                )
            else:
                _, client, qid, qkind, minx, miny, maxx, maxy, horizon = op
                rect = Rect(minx, miny, maxx, maxy)
                if qkind == "range":
                    calls.append((server.register_range_query, (client, qid, rect)))
                else:
                    calls.append(
                        (
                            server.register_predictive_query,
                            (client, qid, rect, horizon),
                        )
                    )
        else:
            raise ValueError(f"unknown op {op!r}")
    return calls


def _apply(calls: list[tuple]) -> int:
    """Make every call; returns how many the server refused."""
    refused = 0
    for method, args in calls:
        try:
            method(*args)
        except _OP_ERRORS:
            refused += 1
    return refused


class InProcess:
    """Transport over direct method calls."""

    def __init__(self, shape: config.Shape, trace: bool):
        self.shape = shape
        self.trace = trace
        self.server = None
        self.links: list = []
        self._round = 0
        self._bytes_per: dict[str, float] = {}
        self.recorder = None
        self._span = lambda name: nullcontext()  # the untraced pass records nothing
        if trace:
            self.recorder = recorder = tracing.SpanRecorder()
            recorder.wrap(LocationAwareServer, "evaluate_cycle", "server.evaluate_cycle")
            recorder.wrap(IncrementalEngine, "evaluate", "engine.evaluate")
            self._span = recorder.span
        gc.collect()
        self._baseline_kb = measure.rss_kb()

    def build(self, workload, fold: verify.Fold, tally: verify.Tally) -> float:
        """A fresh server through its first cycle; returns the seconds.

        Clients, then initial reports, then queries — three stages so
        resident memory can be weighed per client, object and query."""
        hellos, registrations, reports = workload.setup_ops()
        stages = (hellos, reports, registrations)
        if self.recorder is not None:
            self.recorder.cycle = 0  # rounds count from 1; 0 is setup
        gc.collect()
        gc.disable()
        try:
            started = perf_counter()
            rss = [measure.rss_kb()]
            self.server = server = LocationAwareServer(
                engine=IncrementalEngine(**config.engine_kwargs())
            )
            refused = 0
            for stage in stages:
                refused += _apply(_compile(server, stage))
                rss.append(measure.rss_kb())
            self.links = [server.link_of(c) for c in server.client_ids()]
            server.evaluate_cycle(0.0)
            inboxes = [link.drain() for link in self.links]
            seconds = perf_counter() - started
        finally:
            gc.enable()
        tally.ops(sum(len(stage) for stage in stages), refused)
        self.fold(inboxes, fold, tally)
        if not self._bytes_per:  # the first build's: the heap was clean
            shape = self.shape
            self._bytes_per = {
                "mem.bytes_per_client": (rss[1] - rss[0]) * 1024 / shape.clients,
                "mem.bytes_per_object": (rss[2] - rss[1]) * 1024 / shape.objects,
                "mem.bytes_per_query": (rss[3] - rss[2]) * 1024 / shape.queries,
            }
        return seconds

    def prepare(self, ops: list[tuple]) -> list[tuple]:
        return _compile(self.server, ops)

    def cycle(self, calls: list[tuple], now: float) -> harness.Cycle:
        server, links, span = self.server, self.links, self._span
        self._round += 1
        if self.recorder is not None:
            self.recorder.cycle = self._round
        gc.collect()
        gc.disable()
        try:
            opened = perf_counter()
            with span("server.uplink_apply"):
                refused = _apply(calls)
            result = server.evaluate_cycle(now)
            with span("net.drain"):
                inboxes = [link.drain() for link in links]
            closed = perf_counter()
        finally:
            gc.enable()
        return harness.Cycle(
            seconds=closed - opened,
            number=self._round,
            downlink_bytes=result.incremental_bytes,
            delivered=result.delivered_updates,
            emitted=len(result.updates),
            refused=refused,
            received=inboxes,
        )

    @staticmethod
    def fold(inboxes, fold: verify.Fold, tally: verify.Tally) -> None:
        apply = fold.apply
        for inbox in inboxes:
            for message in inbox:
                apply(message.qid, message.oid, message.sign)

    def program_counters(self) -> dict[str, float]:
        return layers.read_program_counters(self.server.registry.value_of)

    def rss_kb(self) -> int:
        return measure.rss_kb()

    def peak_rss_kb(self) -> int:
        return measure.hwm_kb() - self._baseline_kb

    @staticmethod
    def answer_sample(qids: list[int], rng) -> list[int]:
        return qids  # the engine is in reach: check every query

    def answer_of(self, qid: int):
        return self.server.engine.answer_of(qid)

    def check_invariants(self, tally: verify.Tally) -> None:
        try:
            self.server.engine.check_invariants()
        except AssertionError as exc:
            tally.checks(1, [f"engine.check_invariants: {exc!r}"])
        else:
            tally.checks(1, [])

    def layer_extras(self) -> dict[str, float]:
        """Staged memory, and the series count read off the exposition
        the service would serve (there is no HTTP plane in-process)."""
        return {
            **self._bytes_per,
            "obs.series_count": layers.series_count(
                prometheus_text(self.server.registry)
            ),
        }

    def spans(self) -> list[dict]:
        return self.recorder.rows()

    def teardown(self) -> None:
        self.server = None
        self.links = []

    def close(self) -> None:
        self.teardown()
        if self.recorder is not None:
            self.recorder.unwrap_all()
