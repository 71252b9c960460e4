"""Discrete-event serving simulator.

The simulator advances a clock one engine step at a time: the
scheduler builds a step (decode tokens + prefill chunks), the
:class:`~repro.serving.costmodel.StepCostModel` prices it from the
kernel-level GPU model, the clock jumps by that latency, and the
step's effects (tokens emitted, requests finished) land at the step's
completion time.  When no request is resident the clock fast-forwards
to the next arrival — idle time costs nothing to simulate.

The simulator is a one-lane caller of the shared event loop
(:func:`~repro.serving.loop.run_loop`); stepping is delegated to
:class:`~repro.serving.engine.EpochEngine`: by default pure-decode
stretches advance in vectorized epochs that are bit-identical to the
classic per-step loop, and ``engine="event"`` pins the run to the
classic loop (equivalence tests and benchmarking diff the two).
Above :data:`~repro.serving.metrics.EXACT_PERCENTILE_CUTOVER`
requests in the stream (rejected ones included), and unless the run is
traced, the simulator stops retaining per-request state
and reports stream through O(1)-memory accumulators instead
(``approx_percentiles`` in the output); below it reports stay
byte-identical to earlier releases.

Determinism: the only randomness is in the workload generator, which
is seeded; the event loop itself is pure, so a fixed (model, gpu,
plan, request stream) always yields a byte-identical report.
"""

from __future__ import annotations

import functools

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import TraceEvent, check_span, current_tracer
from repro.serving.costmodel import (
    StepCostModel,
    check_softmax_rows,
    shared_cost_model,
)
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.loop import arrival_events, run_loop
from repro.serving.memory import KVBlockManager
from repro.serving.metrics import (
    EXACT_PERCENTILE_CUTOVER,
    PlanReport,
    ServingReport,
)
from repro.serving.requests import (
    Request,
    ServingWorkload,
    arrivals,
    replay_stream,
)
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.specdecode import spec_decode_runtime

#: Execution modes: ``epoch`` (vectorized fast path, the default) and
#: ``event`` (the classic one-step-per-iteration loop).
ENGINE_MODES = ("epoch", "event")


class ServingSimulator:
    """Replay a request stream through a simulated serving engine.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans for an apples-to-apples
    comparison.  Pass a :class:`~repro.serving.requests.ServingWorkload`
    instead of a request list and the stream stays in numpy arrays
    until each request actually arrives — at fleet scale nothing
    allocates a million dataclasses up front.

    >>> from repro.core.plansource import PlanSource
    >>> sim = ServingSimulator("bert-large", "a100",
    ...     plan=PlanSource.of("sdf"),
    ...     requests=[Request(request_id=0, arrival_time=0.0,
    ...                       prompt_len=512, output_len=4)])
    >>> report = sim.run()
    >>> report.finished
    1
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str | None" = None,
        requests: "list[Request] | None" = None,
        workload: "ServingWorkload | None" = None,
        dtype: DType = DType.FP16,
        chunk_tokens: int = 512,
        max_batch: int = 32,
        block_tokens: int = 64,
        reserve_fraction: float = 0.1,
        t: int = 64,
        max_steps: int = 2_000_000,
        engine: str = "epoch",
        max_epoch: int = DEFAULT_MAX_EPOCH,
        latency_cutover: int = EXACT_PERCENTILE_CUTOVER,
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
        costs: "dict | None" = None,
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        self.model = get_model(model)
        self.gpu = get_gpu(gpu)
        # Resolved exactly once, here, from anything PlanSource.of
        # accepts.
        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
        )
        self.t = t
        self.dtype = dtype
        self.chunk_tokens = chunk_tokens
        self.max_batch = max_batch
        self.block_tokens = block_tokens
        self.reserve_fraction = reserve_fraction
        self.max_steps = max_steps
        self.engine = engine
        self.max_epoch = max_epoch
        self.latency_cutover = latency_cutover
        #: The last ``run``'s own request copies with their final
        #: state, in arrival order; empty when that run streamed.
        self.retained: "list[Request]" = []
        #: What ``run`` replays: the time-sorted request templates, or
        #: the workload's arrays (materialized one arrival at a time).
        self._stream = replay_stream(requests, workload,
                                     block_tokens=block_tokens)
        # ``costs`` lets a caller (the tuner) share priced models across
        # simulators; see :func:`~repro.serving.costmodel.shared_cost_model`.
        self.cost = shared_cost_model(costs, StepCostModel, self.model,
                                      self.gpu, plan=self.plan,
                                      dtype=self.dtype, t=self.t,
                                      kv_bucket=block_tokens)
        self._spec_runtime = spec_decode_runtime(
            draft_model, self.gpu, draft_len=draft_len,
            accept_rate=accept_rate, plan=self.plan, dtype=self.dtype,
            t=self.t, kv_bucket=block_tokens, costs=costs)
        check_softmax_rows(
            self._stream, self.model, self.gpu, self.plan, dtype=dtype,
            block_tokens=block_tokens, reserve_fraction=reserve_fraction,
            draft_model=draft_model, draft_len=draft_len,
            accept_rate=accept_rate)

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        return len(self._stream)

    def run(self) -> PlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        trace_start = tracer.event_count
        lane = f"{self.plan.value}:engine"
        memory = KVBlockManager.for_model(
            self.model, self.gpu, block_tokens=self.block_tokens,
            dtype=self.dtype, reserve_fraction=self.reserve_fraction,
        )
        scheduler = ContinuousBatchingScheduler(
            memory, chunk_tokens=self.chunk_tokens,
            max_batch=self.max_batch,
            tracer=tracer, trace_process=lane,
        )

        engine = EpochEngine(
            cost=self.cost, memory=memory, scheduler=scheduler,
            tracer=tracer, epoch=self.engine == "epoch",
            max_epoch=self.max_epoch,
            on_step=_EngineLaneTrace(tracer, lane),
            spec_decode=self._spec_runtime,
        )
        # Below the cutover (or whenever tracing needs per-request
        # spans) requests are retained and the report is exact; above
        # it, finished requests are dropped and the engine's streaming
        # accumulators carry the metrics in O(1) memory.
        retain = tracer.enabled or self.num_requests <= self.latency_cutover
        stream = self.retained = []

        def submit(request: Request) -> None:
            if retain:
                stream.append(request)
            engine.submit(request, request.arrival_time)

        source = arrivals(self._stream)
        run_loop([engine], arrival_events(source, submit),
                 max_steps=self.max_steps, what="simulation")

        trace_summary = None
        if tracer.enabled:
            tracer.set_clock(engine.clock)
            emit_request_phase_spans(
                tracer, stream, process=f"{self.plan.value}:requests")
            trace_summary = tracer.summary(since=trace_start,
                                           include_metrics=False)
        return PlanReport.from_run(
            self.plan.value,
            engine.outcome(self.gpu.hbm_bytes, stream if retain else None),
            trace_summary=trace_summary)


#: A :class:`TraceEvent` from its full field tuple, without the named
#: tuple's Python-level ``__new__``: the engine lane builds two events
#: per step, the largest part of what tracing adds to a run.
_event = functools.partial(tuple.__new__, TraceEvent)


class _EngineLaneTrace:
    """A run's ``on_step`` callback: each engine step's span and
    occupancy sample on the plan's engine lane, and the lane's metrics,
    from each :class:`~repro.serving.engine.Stretch` of steps.

    The lane and instruments are looked up once, on the first step.
    Looking them up earlier would number the lane's tracks ahead of the
    scheduler's and add metrics to a run that never steps.
    """

    def __init__(self, tracer, lane: str) -> None:
        self.tracer = tracer
        self.lane = lane
        self.occupancy = f"{lane} occupancy"
        self.pid = None

    def _bind(self, spec: bool) -> None:
        lane, metrics = self.lane, self.tracer.metrics
        self.pid, self.tid = self.tracer.track(lane, "steps")
        self.steps = metrics.counter(f"{lane}.steps")
        self.decode_tokens = metrics.counter(f"{lane}.decode_tokens")
        self.prefill_tokens = metrics.counter(f"{lane}.prefill_tokens")
        self.batch = metrics.gauge(f"{lane}.batch")
        self.kv_blocks = metrics.gauge(f"{lane}.kv_blocks")
        if spec:
            self.spec_emitted = metrics.counter(f"{lane}.spec_emitted")

    def __call__(self, stretch) -> None:
        """Write the stretch's ``engine step`` span and occupancy sample
        per step, every step sharing both ``args`` dicts, then update
        each instrument once."""
        (times, total, _, decode, running, waiting, kv, prefill_chunks,
         prefill_tokens, emitted, verify_rows) = stretch
        if self.pid is None:
            self._bind(spec=emitted is not None)
        check_span("engine step", total)
        pid, tid, occupancy = self.pid, self.tid, self.occupancy
        args = {"decode": decode, "prefill_chunks": prefill_chunks,
                "prefill_tokens": prefill_tokens, "running": running,
                "waiting": waiting}
        if emitted is not None:
            args["spec_emitted"] = emitted
            args["spec_verify_rows"] = verify_rows
        values = {"running": running, "waiting": waiting, "kv_blocks": kv}
        dur = float(total)
        append = self.tracer.events.append
        for ts in times:
            ts = float(ts)
            append(_event(("engine step", "engine-step", "X", ts, dur, pid,
                           tid, args)))
            append(_event((occupancy, "counter", "C", ts, 0.0, pid, 0,
                           values)))
        steps = len(times)
        self.steps.add(steps)
        self.decode_tokens.add(decode * steps)
        self.prefill_tokens.add(prefill_tokens * steps)
        self.batch.merge(running, running, running, steps)
        self.kv_blocks.merge(kv, kv, kv, steps)
        if emitted is not None:
            self.spec_emitted.add(emitted * steps)


def simulate_serving(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    workload: ServingWorkload,
    *,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    **kwargs,
) -> ServingReport:
    """Replay ``workload`` under several plans and bundle the reports.

    Extra keyword arguments are forwarded to :class:`ServingSimulator`
    (``chunk_tokens``, ``max_batch``, ``block_tokens``, ``engine``,
    ...).  ``plans`` entries may be plan names, enums, ``"auto"``, or
    :class:`PlanSource` objects — this is the scenario-level API, so
    every spelling is accepted without ceremony.  Every plan replays
    the workload's shared arrays, and the report header (rate,
    duration, seed, arrival, request count) comes from the workload.
    """
    model = get_model(model)
    gpu = get_gpu(gpu)
    reports = {}
    for plan in plans:
        sim = ServingSimulator(model, gpu, plan=PlanSource.of(plan),
                               workload=workload, **kwargs)
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ServingReport(
        model=model.name,
        gpu=gpu.name,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        **workload.report_header(),
    )
