"""SLO metrics for simulated serving runs.

A serving system is judged on tail latency and sustained throughput,
not on any single forward pass.  This module distills a finished
simulation into the standard numbers:

- **TTFT** — time to first token: arrival until the prefill's output
  token is emitted.  Dominated by queueing plus prefill compute.
- **TPOT** — time per output token after the first: the decode cadence
  a streaming client observes.
- **throughput** — generated tokens (and finished requests) per second
  of makespan: the capacity number that decides how many GPUs a
  deployment needs.

Latency metrics report p50/p95/p99 and the mean; percentiles use the
linear-interpolation definition (:func:`numpy.percentile` default) so
reports are reproducible across runs and machines.  For a stream of
at most :data:`EXACT_PERCENTILE_CUTOVER` requests (rejected ones
included) a report's percentiles are exact (computed from the retained
per-request values, byte-identical to every earlier release); above it
the simulator stops retaining per-request latencies and the same
summaries come from the streaming
:class:`~repro.serving.sketch.QuantileSketch`, flagged
``approx_percentiles`` in the serialized envelope.  Whether to retain
is decided by each front-end, the serving and the cluster simulator,
which also retain whenever tracing is on; how the retained or streamed
outcomes become summaries is decided in one place,
:func:`latency_summaries`, for a single run's :class:`RunOutcome` and
for the union of a cluster's runs alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import MetricsError, ServingError
from repro.serving.memory import MemoryStats
from repro.serving.requests import Request
from repro.serving.sketch import QuantileSketch

#: Stream length (every request in the stream, rejected ones included)
#: up to which reports compute percentiles exactly from retained
#: values.  Above it, per-request latency lists
#: are not retained and percentiles come from the streaming sketch
#: (see docs/performance.md for the accuracy contract).
EXACT_PERCENTILE_CUTOVER = 8192

#: The percentile ranks every latency summary reports.
SUMMARY_RANKS = (50.0, 95.0, 99.0)


def percentiles(values, qs=SUMMARY_RANKS) -> "list[float]":
    """Linear-interpolation percentiles of ``values`` in one pass.

    Converts ``values`` to an ndarray exactly once and evaluates every
    rank from it — :func:`numpy.percentile` with a rank vector is
    bitwise-identical to repeated scalar calls, so this is a pure
    speedup.  Ranks must lie in [0, 100]; out-of-range ranks raise
    :class:`~repro.common.errors.MetricsError` rather than whatever
    :func:`numpy.percentile` would do with them.
    """
    qs = list(qs)
    for q in qs:
        if not 0.0 <= q <= 100.0:
            raise MetricsError(
                f"percentile rank must be in [0, 100], got {q!r}"
            )
    array = np.asarray(values, dtype=np.float64)
    if array.size == 0:
        return [0.0 for _ in qs]
    return [float(p) for p in np.percentile(array, qs)]


def percentile(values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile of ``values`` (0 if empty)."""
    return percentiles(values, (q,))[0]


@dataclass(frozen=True)
class LatencyStats:
    """Distribution summary of one latency metric, in seconds."""

    mean: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_values(cls, values: "list[float]") -> "LatencyStats":
        """Summarize ``values``; all-zero when no samples exist."""
        if not values:
            return cls(mean=0.0, p50=0.0, p95=0.0, p99=0.0)
        array = np.asarray(values, dtype=np.float64)
        p50, p95, p99 = (float(p) for p in
                         np.percentile(array, SUMMARY_RANKS))
        return cls(mean=float(np.mean(array)), p50=p50, p95=p95, p99=p99)

    def to_json(self) -> "dict[str, float]":
        """JSON-ready mapping."""
        return {"mean": self.mean, "p50": self.p50,
                "p95": self.p95, "p99": self.p99}

    #: Latency summaries nest inside larger documents; the versioned
    #: envelope lives on the enclosing report.
    to_dict = to_json


class LatencyAccumulator:
    """O(1)-memory stream summary of one latency metric.

    Tracks the exact count and running sum (for the mean) next to a
    :class:`~repro.serving.sketch.QuantileSketch` (for the tail), so a
    million-request run never retains a per-request latency list.
    Accumulators merge associatively; the cluster aggregator merges
    per-replica accumulators in replica-id order so sharded runs are
    deterministic across worker counts.
    """

    __slots__ = ("count", "total", "sketch")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sketch = QuantileSketch()

    def add(self, value: float) -> None:
        """Fold one observation in."""
        self.count += 1
        self.total += value
        self.sketch.add(value)

    def merge(self, other: "LatencyAccumulator") -> None:
        """Fold ``other``'s summary in (order-sensitive; see class doc).

        ``other``'s sketch is flushed first, so the result does not
        depend on whether ``other`` was queried before the merge.
        """
        other.sketch.flush()
        self.count += other.count
        self.total += other.total
        self.sketch.merge(other.sketch)

    def stats(self) -> LatencyStats:
        """The summary of everything streamed so far: percentiles come
        from the sketch, the mean stays exact up to summation order."""
        if self.count == 0:
            return LatencyStats(mean=0.0, p50=0.0, p95=0.0, p99=0.0)
        p50, p95, p99 = self.sketch.quantiles(SUMMARY_RANKS)
        return LatencyStats(mean=self.total / self.count,
                            p50=p50, p95=p95, p99=p99)


@dataclass
class RunOutcome:
    """Everything one finished engine run contributes to a report.

    Built by :meth:`repro.serving.engine.EpochEngine.outcome`.  The
    counters and latency accumulators are kept in every mode;
    ``requests`` is the run's request list when it retained one and
    ``None`` when it streamed.  A plain, picklable record, so sharded
    cluster workers ship it back to the parent.
    """

    #: Total HBM across the GPUs the run's KV pool spans.
    hbm_bytes: int
    memory: MemoryStats
    clock: float
    busy: float
    comm_time: float
    steps: int
    prefill_tokens: int
    preemption_events: int
    finished: int
    rejected: int
    preempted_requests: int
    generated_tokens: int
    ttft: LatencyAccumulator
    tpot: LatencyAccumulator
    e2e: LatencyAccumulator
    requests: "list[Request] | None"


def latency_summaries(
    runs: "list[RunOutcome]",
) -> "tuple[LatencyStats, LatencyStats, LatencyStats, bool]":
    """``(ttft, tpot, e2e, approx)`` over the union of ``runs``.

    The one place a report chooses between exact and sketch
    percentiles.  When every run retained its requests, the summaries
    are exact over the union of finished requests, in list order; when
    none did, the runs' accumulators merge in list order (percentiles
    do not compose, sketches do) and ``approx`` is True.  Mixing the
    two would silently bias the union, so it raises
    :class:`~repro.common.errors.ServingError`.
    """
    retained = [run.requests is not None for run in runs]
    if all(retained):
        done = [r for run in runs for r in run.requests
                if r.finish_time is not None]
        return (LatencyStats.from_values([r.ttft for r in done]),
                LatencyStats.from_values([r.tpot for r in done]),
                LatencyStats.from_values([r.e2e_latency for r in done]),
                False)
    if any(retained):
        raise ServingError(
            "cannot aggregate a mix of retained and streaming run outcomes")
    ttft, tpot, e2e = (LatencyAccumulator() for _ in range(3))
    for run in runs:
        ttft.merge(run.ttft)
        tpot.merge(run.tpot)
        e2e.merge(run.e2e)
    return ttft.stats(), tpot.stats(), e2e.stats(), True


@dataclass(frozen=True)
class PlanReport:
    """Serving-level results of one plan's simulation run."""

    plan: str
    num_requests: int
    finished: int
    rejected: int
    preemption_events: int
    preempted_requests: int
    makespan: float
    busy_time: float
    steps: int
    generated_tokens: int
    prefill_tokens: int
    ttft: LatencyStats
    tpot: LatencyStats
    e2e: LatencyStats
    throughput_tokens_per_s: float
    throughput_requests_per_s: float
    mean_step_tokens: float
    kv_peak_blocks: int
    kv_total_blocks: int
    kv_peak_bytes: int
    kv_peak_fraction: float
    #: Span/event summary of this plan's slice of the trace; ``None``
    #: when the run was not traced (the default), which keeps untraced
    #: serialized output byte-identical to pre-observability reports.
    trace_summary: "dict | None" = None
    #: True when the latency percentiles came from the streaming
    #: sketch instead of retained per-request values (runs above
    #: :data:`EXACT_PERCENTILE_CUTOVER`).  Omitted from JSON when
    #: False so small-scenario reports stay byte-identical to seed.
    approx_percentiles: bool = False

    @classmethod
    def from_run(cls, plan: str, outcome: RunOutcome, *,
                 trace_summary: "dict | None" = None) -> "PlanReport":
        """The report of one finished run: exact percentiles when it
        retained its requests, sketch percentiles when it streamed."""
        return cls.from_aggregates(plan, outcome,
                                   *latency_summaries([outcome]),
                                   trace_summary=trace_summary)

    @classmethod
    def from_aggregates(
        cls,
        plan: str,
        outcome: RunOutcome,
        ttft: LatencyStats,
        tpot: LatencyStats,
        e2e: LatencyStats,
        approx: bool,
        *,
        trace_summary: "dict | None" = None,
    ) -> "PlanReport":
        """Build a report from ``outcome``'s counters and the given
        latency summaries (see :func:`latency_summaries`)."""
        generated = outcome.generated_tokens
        steps = outcome.steps
        span = outcome.clock if outcome.clock > 0 else 1.0
        return cls(
            plan=plan,
            num_requests=outcome.finished + outcome.rejected,
            finished=outcome.finished,
            rejected=outcome.rejected,
            preemption_events=outcome.preemption_events,
            preempted_requests=outcome.preempted_requests,
            makespan=outcome.clock,
            busy_time=outcome.busy,
            steps=steps,
            generated_tokens=generated,
            prefill_tokens=outcome.prefill_tokens,
            ttft=ttft,
            tpot=tpot,
            e2e=e2e,
            throughput_tokens_per_s=generated / span,
            throughput_requests_per_s=outcome.finished / span,
            mean_step_tokens=(
                (outcome.prefill_tokens + generated) / steps if steps
                else 0.0),
            kv_peak_blocks=outcome.memory.peak_blocks,
            kv_total_blocks=outcome.memory.total_blocks,
            kv_peak_bytes=outcome.memory.peak_bytes,
            kv_peak_fraction=outcome.memory.peak_bytes / outcome.hbm_bytes,
            trace_summary=trace_summary,
            approx_percentiles=approx,
        )

    def to_json(self) -> "dict[str, object]":
        """JSON-ready mapping (plain scalars and nested dicts only)."""
        doc: "dict[str, object]" = {
            "plan": self.plan,
            "num_requests": self.num_requests,
            "finished": self.finished,
            "rejected": self.rejected,
            "preemption_events": self.preemption_events,
            "preempted_requests": self.preempted_requests,
            "makespan_s": self.makespan,
            "busy_time_s": self.busy_time,
            "steps": self.steps,
            "generated_tokens": self.generated_tokens,
            "prefill_tokens": self.prefill_tokens,
            "ttft_s": self.ttft.to_json(),
            "tpot_s": self.tpot.to_json(),
            "e2e_s": self.e2e.to_json(),
            "throughput_tokens_per_s": self.throughput_tokens_per_s,
            "throughput_requests_per_s": self.throughput_requests_per_s,
            "mean_step_tokens": self.mean_step_tokens,
            "kv_peak_blocks": self.kv_peak_blocks,
            "kv_total_blocks": self.kv_total_blocks,
            "kv_peak_bytes": self.kv_peak_bytes,
            "kv_peak_fraction": self.kv_peak_fraction,
        }
        if self.trace_summary is not None:
            doc["trace_summary"] = self.trace_summary
        if self.approx_percentiles:
            doc["approx_percentiles"] = True
        return doc

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict("serving-plan", **self.to_json())


@dataclass(frozen=True)
class ServingReport:
    """Full report of one ``serve-sim`` invocation: config + per-plan
    results, serializable to a deterministic JSON document."""

    model: str
    gpu: str
    rate: float
    duration: float
    seed: int
    num_requests: int
    plans: "dict[str, PlanReport]"
    #: Full-trace summary (all plans, metrics included); ``None`` when
    #: the run was not traced.
    trace_summary: "dict | None" = None
    #: Arrival-process parameters (``ArrivalProcess.describe()``);
    #: ``None`` for the default stationary Poisson stream, which keeps
    #: historical serialized output byte-identical.
    arrival: "dict | None" = None

    def to_json(self) -> "dict[str, object]":
        """JSON-ready mapping; key order is fixed by ``sort_keys``."""
        doc: "dict[str, object]" = {
            "model": self.model,
            "gpu": self.gpu,
            "rate": self.rate,
            "duration_s": self.duration,
            "seed": self.seed,
            "num_requests": self.num_requests,
            "plans": {name: report.to_json()
                      for name, report in self.plans.items()},
        }
        if self.arrival is not None:
            doc["arrival"] = self.arrival
        if self.trace_summary is not None:
            doc["trace_summary"] = self.trace_summary
        return doc

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict("serving-report", **self.to_json())

    def speedup(self, baseline: str = "baseline",
                candidate: str = "sdf") -> float:
        """Sustained-throughput ratio of ``candidate`` over ``baseline``."""
        base = self.plans[baseline].throughput_tokens_per_s
        cand = self.plans[candidate].throughput_tokens_per_s
        if base == 0:
            return 0.0
        return cand / base
