"""Structured span/event tracing over the simulators' clocks.

The paper's argument starts from profiler evidence — Nsight Compute
rooflines and memory-traffic counters showing where time actually
goes.  This module is the equivalent layer for the *simulators*: a
:class:`Tracer` records spans (``ph="X"``), instant events
(``ph="i"``) and counter samples (``ph="C"``) stamped with **simulated
time**, never wall-clock time, so a fixed seed always produces an
identical trace.

Design points:

- **Off by default, near-zero overhead.**  Instrumented code calls
  :func:`current_tracer`; when no tracer is installed that returns the
  :data:`NULL_TRACER` singleton, whose methods are all no-ops, so the
  only cost on the hot path is one attribute check
  (``tracer.enabled``).
- **Sim-clock timestamps.**  The tracer carries a monotonic ``clock``
  that the discrete-event simulators advance as their own clocks move;
  :meth:`Tracer.span` brackets a region between two clock readings.
  Code that has explicit timestamps (the serving event loop knows when
  each engine step started and ended) records complete spans directly
  via :meth:`Tracer.complete`.  Kernel-level costs, which have no
  global timeline position, append onto a per-track cursor via
  :meth:`Tracer.push`.
- **Deterministic tracks.**  Chrome-trace ``pid``/``tid`` lanes are
  assigned by :meth:`Tracer.track` in first-use order, which is itself
  deterministic because the simulators are.
- **Bulk writes.**  The serving engine hands its trace consumer one
  block of steps per advance; the consumer appends the block's events
  to :attr:`Tracer.events` in one pass, so the per-step cost is
  building the events themselves.

Install a tracer with the :func:`tracing` context manager::

    from repro.obs import Tracer, tracing
    from repro.serving import ServingWorkload, simulate_serving

    tracer = Tracer()
    with tracing(tracer):
        simulate_serving("bert-large", "a100",
                         ServingWorkload(rate=4.0, duration=10.0))
    print(tracer.summary())

Export with :mod:`repro.obs.export` (Chrome trace-event JSON, loadable
in Perfetto / ``chrome://tracing``).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Any, Iterator, NamedTuple, Optional

from repro.common.errors import TraceError
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetricsRegistry,
    absorb_simcache,
    sequential_sum,
)


class TraceEvent(NamedTuple):
    """One trace record, timestamped in simulated seconds.

    ``ph`` follows the Chrome trace-event phase vocabulary: ``"X"`` is
    a complete span (``ts`` + ``dur``), ``"i"`` an instant event and
    ``"C"`` a counter sample whose ``args`` carry the sampled values.
    An immutable named tuple: a traced run records one or two per
    engine step, so construction cost and size matter.  Treat ``args``
    as read-only too: the serving engine's per-step events share one
    ``args`` dict across the steps of a stretch whose counts agree.
    """

    name: str
    cat: str
    ph: str
    ts: float
    dur: float = 0.0
    pid: int = 0
    tid: int = 0
    args: "dict[str, Any] | None" = None


class Tracer:
    """Records spans, instants and counters against a simulated clock."""

    #: Instrumented code guards on this before building event payloads.
    enabled = True

    def __init__(self, name: str = "repro") -> None:
        self.name = name
        self.events: "list[TraceEvent]" = []
        #: The current simulated time, advanced by the instrumented
        #: simulators (:meth:`set_clock` / :meth:`advance`).
        self.clock = 0.0
        #: Counters/gauges registry shared by everything recording into
        #: this tracer.
        self.metrics = MetricsRegistry()
        self._processes: "dict[str, int]" = {}
        self._threads: "dict[tuple[int, str], int]" = {}
        self._thread_names: "dict[tuple[int, int], str]" = {}
        self._next_tid: "dict[int, int]" = {}
        self._cursors: "dict[tuple[int, int], float]" = {}

    # -- clock ----------------------------------------------------------

    def set_clock(self, t: float) -> None:
        """Move the simulated clock to ``t`` (seconds)."""
        self.clock = float(t)

    def advance(self, dt: float) -> float:
        """Advance the simulated clock by ``dt``; returns the new time."""
        self.clock += float(dt)
        return self.clock

    # -- tracks ---------------------------------------------------------

    def track(self, process: str, thread: str = "main") -> "tuple[int, int]":
        """The ``(pid, tid)`` lane for ``process``/``thread``.

        Lanes are created on first use; repeated calls with the same
        names return the same ids, and first-use order (deterministic
        for a seeded simulation) fixes the numbering.
        """
        pid = self._processes.get(process)
        if pid is None:
            pid = len(self._processes) + 1
            self._processes[process] = pid
        key = (pid, thread)
        tid = self._threads.get(key)
        if tid is None:
            tid = self._next_tid.get(pid, 0)
            self._next_tid[pid] = tid + 1
            self._threads[key] = tid
            self._thread_names[(pid, tid)] = thread
        return pid, tid

    @property
    def processes(self) -> "dict[str, int]":
        """Process name -> pid, in assignment order."""
        return dict(self._processes)

    @property
    def thread_names(self) -> "dict[tuple[int, int], str]":
        """(pid, tid) -> thread name."""
        return dict(self._thread_names)

    # -- recording ------------------------------------------------------

    @property
    def event_count(self) -> int:
        """Events recorded so far (checkpoint for :meth:`summary`)."""
        return len(self.events)

    def complete(
        self,
        name: str,
        cat: str,
        *,
        ts: float,
        dur: float,
        pid: int = 0,
        tid: int = 0,
        args: "dict[str, Any] | None" = None,
    ) -> None:
        """Record a complete span ``[ts, ts + dur]`` on lane (pid, tid)."""
        if dur < 0:
            raise TraceError(
                f"span {name!r} has negative duration {dur!r}"
            )
        self.events.append(TraceEvent(name, cat, "X", float(ts),
                                      float(dur), pid, tid, args))

    def instant(
        self,
        name: str,
        cat: str,
        *,
        ts: "float | None" = None,
        pid: int = 0,
        tid: int = 0,
        args: "dict[str, Any] | None" = None,
    ) -> None:
        """Record an instant event (defaults to the current clock)."""
        when = self.clock if ts is None else float(ts)
        self.events.append(TraceEvent(name, cat, "i", when, 0.0,
                                      pid, tid, args))

    def counter(
        self,
        name: str,
        *,
        values: "dict[str, float]",
        ts: "float | None" = None,
        pid: int = 0,
    ) -> None:
        """Record a counter sample; ``values`` maps series -> value."""
        when = self.clock if ts is None else float(ts)
        self.events.append(TraceEvent(name, "counter", "C", when, 0.0,
                                      pid, 0, dict(values)))

    def push(
        self,
        name: str,
        cat: str,
        dur: float,
        *,
        pid: int = 0,
        tid: int = 0,
        args: "dict[str, Any] | None" = None,
    ) -> float:
        """Append a span at the lane's running cursor and advance it.

        For work with a duration but no global timeline position
        (kernel cost-model evaluations): each lane lays its spans back
        to back in evaluation order.  Returns the span's start time.
        """
        key = (pid, tid)
        start = self._cursors.get(key, 0.0)
        self.complete(name, cat, ts=start, dur=dur, pid=pid, tid=tid,
                      args=args)
        self._cursors[key] = start + dur
        return start

    @contextmanager
    def span(
        self,
        name: str,
        cat: str,
        *,
        pid: int = 0,
        tid: int = 0,
        args: "dict[str, Any] | None" = None,
    ) -> Iterator["Tracer"]:
        """Bracket a region between two readings of the sim clock.

        The span starts at the clock value on entry and ends at the
        clock value on exit — the body is responsible for advancing
        the clock (:meth:`set_clock` / :meth:`advance`).
        """
        start = self.clock
        try:
            yield self
        finally:
            self.complete(name, cat, ts=start,
                          dur=max(0.0, self.clock - start),
                          pid=pid, tid=tid, args=args)

    # -- summaries ------------------------------------------------------

    def summary(
        self,
        since: int = 0,
        *,
        include_metrics: "bool | None" = None,
    ) -> "dict[str, object]":
        """Aggregate the recorded events into a JSON-ready summary.

        ``since`` restricts the span/event counts to events recorded
        after that checkpoint (see :attr:`event_count`), which is how
        per-plan summaries are sliced out of a shared tracer.  Metrics
        (which are not sliceable) are included for full summaries only,
        unless ``include_metrics`` says otherwise.
        """
        events = self.events
        spans = [e for e in itertools.islice(events, since, None)
                 if e.ph == "X"]
        categories: "dict[str, dict[str, float]]" = {}
        for cat in sorted({e.cat for e in spans}):
            durations = [e.dur for e in spans if e.cat == cat]
            categories[cat] = {"count": len(durations),
                               "time_s": sequential_sum(0.0, durations)}
        doc: "dict[str, object]" = {
            "events": max(len(events) - since, 0),
            "spans": len(spans),
            "span_categories": categories,
        }
        if include_metrics is None:
            include_metrics = since == 0
        if include_metrics:
            absorb_simcache(self.metrics)
            doc["metrics"] = self.metrics.snapshot()
        return doc


class NullTracer:
    """The disabled tracer: every method is a no-op.

    Instrumentation stays in place at all times; when tracing is off
    this object absorbs the calls for the cost of a method dispatch.
    """

    enabled = False
    clock = 0.0
    events: "tuple[TraceEvent, ...]" = ()
    metrics: NullMetricsRegistry = NULL_METRICS

    def set_clock(self, t: float) -> None:
        pass

    def advance(self, dt: float) -> float:
        return 0.0

    def track(self, process: str, thread: str = "main") -> "tuple[int, int]":
        return (0, 0)

    @property
    def event_count(self) -> int:
        return 0

    def complete(self, name, cat, **kwargs) -> None:
        pass

    def instant(self, name, cat, **kwargs) -> None:
        pass

    def counter(self, name, **kwargs) -> None:
        pass

    def push(self, name, cat, dur, **kwargs) -> float:
        return 0.0

    @contextmanager
    def span(self, name, cat, **kwargs) -> Iterator["NullTracer"]:
        yield self

    def summary(self, since: int = 0, *,
                include_metrics: "bool | None" = None) -> "dict[str, object]":
        return {"events": 0, "spans": 0, "span_categories": {}}


#: The shared disabled tracer (tracing is off by default).
NULL_TRACER = NullTracer()

_ACTIVE: "Optional[Tracer]" = None


def current_tracer() -> "Tracer | NullTracer":
    """The installed tracer, or :data:`NULL_TRACER` when tracing is off."""
    return _ACTIVE if _ACTIVE is not None else NULL_TRACER


@contextmanager
def tracing(tracer: "Optional[Tracer]" = None) -> Iterator[Tracer]:
    """Install ``tracer`` (a fresh one if omitted) for the duration.

    Nested installs stack: the previous tracer is restored on exit.
    """
    global _ACTIVE
    active = tracer if tracer is not None else Tracer()
    previous = _ACTIVE
    _ACTIVE = active
    try:
        yield active
    finally:
        _ACTIVE = previous
