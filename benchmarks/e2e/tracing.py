"""Spans recorded from the benchmark's side of each layer boundary.

A span is ``{name, start, end, parent, cycle, calls}``: ``parent`` is the
index of the span that was open when this one began (``-1`` for a root)
and spans of one cycle share the cycle number.  They stay in memory and
are written out when the workload ends.

A per-op callable (``receive_object_report``: ten thousand calls a
cycle) is wrapped as a *leaf*: a run of back-to-back calls under one
parent is one span — ``start`` of the first call, ``end`` = ``start`` +
the time spent inside the calls, ``calls`` = how many.  The time between
the calls stays with the parent, where it belongs.

Nothing here touches the program's own ``repro.obs`` tracer: the
wrappers go around public callables, from outside, so the traced and
untraced passes run the same program code.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

NAME, START, END, PARENT, CYCLE, CALLS = range(6)


class SpanRecorder:
    """An in-memory span log with the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent, cycle, calls]`` rows, in start order.
        self.spans: list[list] = []
        self.cycle = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        row = [name, 0.0, 0.0, stack[-1] if stack else -1, self.cycle, 1]
        stack.append(len(self.spans))
        self.spans.append(row)
        row[START] = perf_counter()
        return row

    def _close(self, row: list) -> None:
        row[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        row = self._open(name)
        try:
            yield
        finally:
            self._close(row)

    def wrap(
        self, owner: type, attr: str, name: str, starts_cycle: bool = False
    ) -> None:
        """Replace ``owner.attr`` with a span-recording twin.

        ``starts_cycle`` marks the callable whose every call *is* one
        cycle (the service's ``run_cycle``): the cycle number advances
        after it returns, so everything it caused shares its number.
        """
        inner = getattr(owner, attr)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            row = open_span(name)
            try:
                return inner(*args, **kwargs)
            finally:
                close_span(row)
                if starts_cycle:
                    self.cycle += 1

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, inner))

    def wrap_leaf(self, owner: type, attr: str, name: str) -> None:
        """Wrap a per-op callable that calls nothing wrapped itself;
        back-to-back calls fold into one span (see the module docstring)."""
        inner = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            started = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                elapsed = perf_counter() - started
                parent = stack[-1] if stack else -1
                last = spans[-1] if spans else None
                if (
                    last is not None
                    and last[NAME] == name
                    and last[PARENT] == parent
                    and last[CYCLE] == self.cycle
                ):
                    last[END] += elapsed
                    last[CALLS] += 1
                else:
                    spans.append(
                        [name, started, started + elapsed, parent, self.cycle, 1]
                    )

        traced.__wrapped__ = inner
        setattr(owner, attr, traced)
        self._wrapped.append((owner, attr, inner))

    def unwrap_all(self) -> None:
        while self._wrapped:
            owner, attr, inner = self._wrapped.pop()
            setattr(owner, attr, inner)

    def rows(self) -> list[dict]:
        return [
            {"name": s[NAME], "start": s[START], "end": s[END],
             "parent": s[PARENT], "cycle": s[CYCLE], "calls": s[CALLS]}
            for s in self.spans
        ]


def dump(path: Path, **document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document), encoding="utf-8")


# -- analysis (pure functions over span rows as dicts) ------------------


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children are clipped to the parent's interval and overlapping
    children are merged, so a moment is never subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span["parent"] >= 0:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = []
    for index, span in enumerate(spans):
        lo, hi = span["start"], span["end"]
        covered = 0.0
        cursor = lo
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, cursor), min(end, hi)
            if end > start:
                covered += end - start
                cursor = end
        result.append((hi - lo) - covered)
    return result


def per_cycle(
    spans: list[dict], amounts: list[float], cycles: list[int], name: str | None = None
) -> list[float]:
    """``amounts`` (one per span: durations, or ``self_times``) summed
    over the spans called ``name`` — every span when ``None`` — in each
    of ``cycles``."""
    totals = dict.fromkeys(cycles, 0.0)
    for span, amount in zip(spans, amounts):
        if span["cycle"] in totals and name in (None, span["name"]):
            totals[span["cycle"]] += amount
    return [totals[c] for c in cycles]
