"""Counters and gauges: the queryable side of the observability layer.

The simulators accumulated ad-hoc statistics in several places — the
simulation caches count hits and misses, the KV-block manager tracks
peak occupancy, the schedulers count preemptions.  This registry is
the one place those numbers become *queryable*: instrumented code
creates named :class:`Counter`/:class:`Gauge` instances through a
:class:`MetricsRegistry`, and :meth:`MetricsRegistry.snapshot` renders
everything as one JSON-ready document (embedded in trace summaries and
``repro trace`` output).

Like the tracer, the registry has a null twin (:data:`NULL_METRICS`)
so instrumentation is free when observability is off.
"""

from __future__ import annotations


class Counter:
    """A monotonically accumulating value (events, tokens, seconds)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, n: float = 1.0) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    #: ``add`` reads better for non-unit increments (seconds, bytes).
    add = inc


class Gauge:
    """A sampled value with last/min/max tracking."""

    __slots__ = ("last", "min", "max", "samples")

    def __init__(self) -> None:
        self.last = 0.0
        self.min = 0.0
        self.max = 0.0
        self.samples = 0

    def set(self, value: float) -> None:
        """Record a new sample."""
        value = float(value)
        if self.samples == 0:
            self.min = self.max = value
        elif value < self.min:
            self.min = value
        elif value > self.max:
            self.max = value
        self.last = value
        self.samples += 1

    def to_json(self) -> "dict[str, float]":
        """JSON-ready summary of the samples seen so far."""
        return {"last": self.last, "min": self.min, "max": self.max,
                "samples": self.samples}


class MetricsRegistry:
    """Named counters and gauges, created on first use."""

    def __init__(self) -> None:
        self._counters: "dict[str, Counter]" = {}
        self._gauges: "dict[str, Gauge]" = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def snapshot(self) -> "dict[str, object]":
        """JSON-ready dump of every counter and gauge, name-sorted."""
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].to_json()
                       for name in sorted(self._gauges)},
        }


class _NullCounter:
    __slots__ = ()
    value = 0.0

    def inc(self, n: float = 1.0) -> None:
        pass

    add = inc


class _NullGauge:
    __slots__ = ()
    last = min = max = 0.0
    samples = 0

    def set(self, value: float) -> None:
        pass

    def to_json(self) -> "dict[str, float]":
        return {"last": 0.0, "min": 0.0, "max": 0.0, "samples": 0}


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()


class NullMetricsRegistry:
    """The disabled registry: hands out shared no-op instruments."""

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def snapshot(self) -> "dict[str, object]":
        return {"counters": {}, "gauges": {}}


#: The shared disabled registry (used by the null tracer).
NULL_METRICS = NullMetricsRegistry()


def absorb_simcache(registry: MetricsRegistry) -> None:
    """Mirror the simulation caches' hit/miss stats into ``registry``.

    The caches (:mod:`repro.gpu.simcache`) keep their own counters;
    this copies them under ``simcache.<name>.*`` gauges so one
    snapshot covers everything.  Imported lazily to keep ``repro.obs``
    free of non-stdlib dependencies at import time.
    """
    from repro.gpu.simcache import stats

    for name, cache_stats in stats().items():
        registry.gauge(f"simcache.{name}.hits").set(cache_stats.hits)
        registry.gauge(f"simcache.{name}.misses").set(cache_stats.misses)
        registry.gauge(f"simcache.{name}.hit_rate").set(
            cache_stats.hit_rate)
