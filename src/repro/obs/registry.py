"""Metric instruments and the registry that owns them.

Three instrument kinds, modelled after the Prometheus data model but
dependency-free and tuned for a single-process simulation server:

* :class:`Counter` — a monotonically increasing float (work done,
  bytes shipped, updates emitted).
* :class:`Gauge` — a value that goes up and down (queue depth, savings
  ratio, resident pages).
* :class:`Histogram` — fixed upper-bound buckets plus sum/count;
  ``observe()`` is a ``bisect`` over a small tuple, so the hot-path
  cost is O(log buckets) with no allocation.

A :class:`MetricsRegistry` hands out instruments by ``(name, labels)``
and get-or-creates, so instrumented components can resolve a handle
once and hit only attribute adds afterwards.  :class:`NullRegistry` is
the "telemetry off" mode: it returns shared no-op instruments with the
same API, which is what the overhead benchmark gates against.

A process-wide default registry exists for zero-config use
(:func:`default_registry`); components that need isolation (every
engine/server/pool owns its own counters) create private registries
and accept an injected one for aggregation.
"""

from __future__ import annotations

from bisect import bisect_left
from threading import Lock

#: Default histogram buckets for second-valued latencies (upper bounds).
DEFAULT_SECONDS_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Empty-label sentinel shared by all unlabelled instruments.
_NO_LABELS: tuple[tuple[str, str], ...] = ()


def _label_key(labels: dict[str, str] | None) -> tuple[tuple[str, str], ...]:
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing value.  ``inc()`` is the hot path."""

    __slots__ = ("name", "labels", "value")

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"labels": self.labels, "value": self.value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "labels", "value")

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str] | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, object]:
        return {"labels": self.labels, "value": self.value}


class Histogram:
    """Fixed-bucket histogram: per-bucket counts, sum, and count.

    ``bounds`` are inclusive upper bounds; one implicit +Inf bucket
    catches everything beyond the last bound (Prometheus ``le`` model).
    Internally the counts are per-bucket; exporters cumulate them.
    """

    __slots__ = ("name", "labels", "bounds", "bucket_counts", "sum", "count")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        bounds: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
        labels: dict[str, str] | None = None,
    ):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram {name} bounds must be sorted and non-empty")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.bounds = tuple(float(b) for b in bounds)
        self.bucket_counts = [0] * (len(bounds) + 1)  # +1 for +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_n(self, value: float, n: int) -> None:
        """``n`` observations of the same ``value`` in one bisect."""
        self.bucket_counts[bisect_left(self.bounds, value)] += n
        self.sum += value * n
        self.count += n

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile from the bucket counts.

        Linear interpolation inside the bucket holding the rank
        (Prometheus ``histogram_quantile`` semantics); observations in
        the +Inf bucket clamp to the last finite bound.  0.0 when the
        histogram is empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.bounds, self.bucket_counts):
            if running + n >= rank and n > 0:
                fraction = (rank - running) / n
                return lower + (bound - lower) * max(0.0, min(1.0, fraction))
            running += n
            lower = bound
        return self.bounds[-1]

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ending at +Inf."""
        out: list[tuple[float, int]] = []
        running = 0
        for bound, n in zip(self.bounds, self.bucket_counts):
            running += n
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out

    def snapshot(self) -> dict[str, object]:
        return {
            "labels": self.labels,
            "sum": self.sum,
            "count": self.count,
            "mean": self.mean,
            "buckets": [
                {"le": bound, "count": n} for bound, n in self.cumulative_buckets()
            ],
        }


class _NullInstrument:
    """One object that satisfies every instrument API and does nothing.

    Shared across all names and labels — handing the same instance out
    everywhere is what makes the no-op registry free on the hot path.
    """

    __slots__ = ()

    kind = "null"
    name = "null"
    labels: dict[str, str] = {}
    value = 0.0
    sum = 0.0
    count = 0
    mean = 0.0
    bounds: tuple[float, ...] = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def observe_n(self, value: float, n: int) -> None:
        pass

    def snapshot(self) -> dict[str, object]:
        return {"labels": {}, "value": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Owns instruments; get-or-create by ``(name, labels)``.

    The registry itself stays off the hot path: components resolve
    handles once (construction time or first use) and then touch only
    the instrument.  Lookups are also cheap enough to call per
    evaluation (one dict hit), which the per-cycle samplers rely on.
    """

    #: Telemetry-on flag; samplers consult it to skip whole blocks
    #: (not just individual observes) under the no-op registry.
    enabled = True

    def __init__(self) -> None:
        self._instruments: dict[tuple[str, tuple[tuple[str, str], ...]], object] = {}
        self._kinds: dict[str, str] = {}
        self._lock = Lock()

    # -- instrument factories ------------------------------------------

    def counter(self, name: str, labels: dict[str, str] | None = None) -> Counter:
        return self._get_or_create(name, labels, Counter, "counter")

    def gauge(self, name: str, labels: dict[str, str] | None = None) -> Gauge:
        return self._get_or_create(name, labels, Gauge, "gauge")

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_SECONDS_BUCKETS,
        labels: dict[str, str] | None = None,
    ) -> Histogram:
        key = (name, _label_key(labels))
        found = self._instruments.get(key)
        if found is not None:
            self._check_kind(name, "histogram")
            return found  # type: ignore[return-value]
        with self._lock:
            found = self._instruments.get(key)
            if found is not None:
                return found  # type: ignore[return-value]
            self._check_kind(name, "histogram")
            instrument = Histogram(name, buckets, labels)
            self._instruments[key] = instrument
            return instrument

    def _get_or_create(self, name, labels, cls, kind):
        key = (name, _label_key(labels))
        found = self._instruments.get(key)
        if found is not None:
            self._check_kind(name, kind)
            return found
        with self._lock:
            found = self._instruments.get(key)
            if found is not None:
                return found
            self._check_kind(name, kind)
            instrument = cls(name, labels)
            self._instruments[key] = instrument
            return instrument

    def _check_kind(self, name: str, kind: str) -> None:
        existing = self._kinds.get(name)
        if existing is None:
            self._kinds[name] = kind
        elif existing != kind:
            raise TypeError(
                f"metric {name!r} already registered as {existing}, not {kind}"
            )

    # -- introspection / export ----------------------------------------

    def __iter__(self):
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    def kind_of(self, name: str) -> str | None:
        return self._kinds.get(name)

    def families(self) -> dict[str, list[object]]:
        """Instruments grouped by metric name, label-sorted within."""
        grouped: dict[str, list[object]] = {}
        for (name, __), instrument in sorted(self._instruments.items()):
            grouped.setdefault(name, []).append(instrument)
        return grouped

    def to_dict(self) -> dict[str, object]:
        """A JSON-ready snapshot of every instrument."""
        out: dict[str, object] = {}
        for name, instruments in self.families().items():
            out[name] = {
                "type": self._kinds[name],
                "series": [i.snapshot() for i in instruments],  # type: ignore[attr-defined]
            }
        return out

    def value_of(self, name: str, labels: dict[str, str] | None = None) -> float:
        """Convenience: the current value of one counter/gauge (0.0 if absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        return getattr(instrument, "value", 0.0) if instrument else 0.0


class NullRegistry(MetricsRegistry):
    """Telemetry off: every factory returns the shared no-op instrument."""

    enabled = False

    def counter(self, name, labels=None):  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def gauge(self, name, labels=None):  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]

    def histogram(self, name, buckets=DEFAULT_SECONDS_BUCKETS, labels=None):  # type: ignore[override]
        return NULL_INSTRUMENT  # type: ignore[return-value]


NULL_REGISTRY = NullRegistry()

_default_registry = MetricsRegistry()


def default_registry() -> MetricsRegistry:
    """The process-wide default registry (zero-config aggregation point)."""
    return _default_registry


def set_default_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide default; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous
