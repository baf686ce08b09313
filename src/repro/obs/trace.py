"""Per-cycle span tracing.

A :class:`Tracer` records wall-clock spans — one per evaluation phase,
one per server cycle, one per downlink ship — as lightweight tuples
that export directly to Chrome's trace-event JSON (open the file at
``chrome://tracing`` or https://ui.perfetto.dev).  Spans nest through
plain ``with`` blocks: the tracer tracks a depth counter, and the
exporter emits complete ("ph": "X") events whose nesting the viewer
reconstructs from timestamps.

A span *always* records, including when the body raises — an exception
mid-phase must not lose the lap (the failed phase is exactly the one an
operator wants to see).  Errored spans are flagged in their args.

Spans can feed metrics on the way out: ``span(name, counter=c)`` adds
the measured duration to ``c`` (the engine's per-phase second counters
ride on this), ``histogram=h`` observes it (cycle latency).
"""

from __future__ import annotations

import time


class SpanRecord:
    """One finished (or in-flight) span.

    ``span_id`` / ``parent_id`` form the causal chain (0 = no parent).
    """

    __slots__ = ("name", "start", "duration", "depth", "error", "span_id", "parent_id")

    def __init__(
        self,
        name: str,
        start: float,
        duration: float,
        depth: int,
        error: bool,
        span_id: int = 0,
        parent_id: int = 0,
    ):
        self.name = name
        self.start = start
        self.duration = duration
        self.depth = depth
        self.error = error
        self.span_id = span_id
        self.parent_id = parent_id


class _Span:
    """Context manager for one span; records on exit, even on raise."""

    __slots__ = (
        "_tracer", "name", "counter", "histogram", "start", "duration",
        "error", "span_id", "parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, counter, histogram):
        self._tracer = tracer
        self.name = name
        self.counter = counter
        self.histogram = histogram
        self.start = 0.0
        self.duration = 0.0
        self.error = False
        self.span_id = 0
        self.parent_id = 0

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        tracer._depth += 1
        stack = tracer._stack
        self.parent_id = stack[-1] if stack else 0
        self.span_id = tracer._next_id
        tracer._next_id += 1
        stack.append(self.span_id)
        self.start = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        self.duration = tracer._clock() - self.start
        self.error = exc_type is not None
        tracer._depth -= 1
        tracer._stack.pop()
        tracer._record(self)
        if self.counter is not None:
            self.counter.inc(self.duration)
        if self.histogram is not None:
            self.histogram.observe(self.duration)


class _NullSpan:
    """Shared no-op span — stateless, so reentrancy is safe."""

    __slots__ = ()

    name = ""
    start = 0.0
    duration = 0.0
    error = False

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _MetricOnlySpan:
    """Times the body and feeds attached metrics, records no trace event.

    Handed out by :class:`NullTracer` when a span carries a counter or
    histogram: disabling *tracing* must not silently disable the
    *metrics* that ride on spans (the engine's per-phase seconds).
    """

    __slots__ = ("counter", "histogram", "start", "duration", "error")

    name = ""

    def __init__(self, counter, histogram):
        self.counter = counter
        self.histogram = histogram
        self.start = 0.0
        self.duration = 0.0
        self.error = False

    def __enter__(self) -> "_MetricOnlySpan":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration = time.perf_counter() - self.start
        self.error = exc_type is not None
        if self.counter is not None:
            self.counter.inc(self.duration)
        if self.histogram is not None:
            self.histogram.observe(self.duration)


class Tracer:
    """Bounded in-memory span recorder.

    ``max_events`` caps memory for long simulations; once full, new
    spans are counted in ``dropped`` instead of recorded (the head of
    the trace — startup and early cycles — is usually what you open
    the viewer for).
    """

    enabled = True

    def __init__(self, max_events: int = 65_536, clock=time.perf_counter):
        if max_events < 1:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self.events: list[SpanRecord] = []
        self.max_events = max_events
        self.dropped = 0
        self._clock = clock
        self._depth = 0
        self._next_id = 1
        self._stack: list[int] = []
        self._origin = clock()

    def span(self, name: str, counter=None, histogram=None) -> _Span:
        """A context manager timing one span.

        ``counter.inc(duration)`` / ``histogram.observe(duration)`` run
        on exit when given — including when the body raises, so metric
        and trace stay consistent with each other.
        """
        return _Span(self, name, counter, histogram)

    def _record(self, span: _Span) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            SpanRecord(
                span.name,
                span.start - self._origin,
                span.duration,
                self._depth,
                span.error,
                span.span_id,
                span.parent_id,
            )
        )

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0

    def to_chrome_trace(self) -> dict[str, object]:
        """Chrome trace-event JSON (complete events, microsecond times)."""
        trace_events = []
        for record in self.events:
            args: dict[str, object] = {}
            if record.span_id:
                args["id"] = record.span_id
                args["parent"] = record.parent_id
            if record.error:
                args["error"] = True
            event: dict[str, object] = {
                "name": record.name,
                "ph": "X",
                "ts": record.start * 1e6,
                "dur": record.duration * 1e6,
                "pid": 0,
                "tid": 0,
                "cat": "repro",
            }
            if args:
                event["args"] = args
            trace_events.append(event)
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


class NullTracer(Tracer):
    """Tracing off: spans are shared no-ops, nothing is recorded."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_events=1)

    def span(self, name: str, counter=None, histogram=None):  # type: ignore[override]
        if counter is None and histogram is None:
            return _NULL_SPAN
        return _MetricOnlySpan(counter, histogram)


NULL_TRACER = NullTracer()
