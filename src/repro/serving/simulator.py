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
finished requests the simulator stops retaining per-request state
and reports stream through O(1)-memory accumulators instead
(``approx_percentiles`` in the output); below it reports stay
byte-identical to earlier releases.

Determinism: the only randomness is in the workload generator, which
is seeded; the event loop itself is pure, so a fixed (model, gpu,
plan, request stream) always yields a byte-identical report.
"""

from __future__ import annotations

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.serving.costmodel import StepCostModel, shared_cost_model
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.loop import arrival_events, run_loop
from repro.serving.memory import KVBlockManager
from repro.serving.metrics import (
    EXACT_PERCENTILE_CUTOVER,
    PlanReport,
    ServingReport,
)
from repro.serving.requests import Request, ServingWorkload, arrivals
from repro.serving.scheduler import ContinuousBatchingScheduler

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
        if (requests is None) == (workload is None):
            raise ServingError(
                "provide exactly one of `requests` or `workload`"
            )
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        # Resolved exactly once, here, from anything PlanSource.of
        # accepts.
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
            candidates=SUPPORTED_PLANS,
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
        self._stream = (workload.request_arrays() if requests is None
                        else sorted(requests, key=lambda r: (
                            r.arrival_time, r.request_id)))
        # ``costs`` lets a caller (the tuner) share priced models across
        # simulators; see :func:`~repro.serving.costmodel.shared_cost_model`.
        self.cost = shared_cost_model(costs, StepCostModel, self.model,
                                      self.gpu, plan=self.plan,
                                      dtype=self.dtype, t=self.t)
        # Speculative decoding: the draft model gets its own cost model
        # on the same GPU/plan/dtype so its γ decode steps per round are
        # priced through the identical kernel stack.
        self._spec_runtime = None
        if draft_model is not None:
            from repro.serving.specdecode import (
                SpecDecodeConfig,
                SpecDecodeRuntime,
            )

            config = SpecDecodeConfig(
                draft_model=(get_model(draft_model)
                             if isinstance(draft_model, str)
                             else draft_model),
                draft_len=draft_len,
                accept_rate=accept_rate,
            )
            draft_cost = shared_cost_model(
                costs, StepCostModel, config.draft_model, self.gpu,
                plan=self.plan, dtype=self.dtype, t=self.t)
            self._spec_runtime = SpecDecodeRuntime(config, draft_cost)

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

        def trace_step(step, *, ts, dur, comm):
            self._trace_step(tracer, lane, step, scheduler, memory,
                             ts=ts, dur=dur)

        engine = EpochEngine(
            cost=self.cost, memory=memory, scheduler=scheduler,
            tracer=tracer, epoch=self.engine == "epoch",
            max_epoch=self.max_epoch, on_step=trace_step,
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
        if retain:
            return PlanReport.from_run(
                plan=self.plan.value,
                requests=stream,
                memory=memory.stats(),
                hbm_bytes=self.gpu.hbm_bytes,
                makespan=engine.clock,
                busy_time=engine.busy,
                steps=engine.steps,
                prefill_tokens=engine.prefill_tokens,
                preemption_events=scheduler.preemption_events,
                trace_summary=trace_summary,
            )
        return PlanReport.from_aggregates(
            plan=self.plan.value,
            num_requests=self.num_requests,
            finished=engine.finished,
            rejected=engine.rejected,
            preemption_events=scheduler.preemption_events,
            preempted_requests=engine.preempted_requests,
            generated_tokens=engine.generated_tokens,
            ttft=engine.ttft,
            tpot=engine.tpot,
            e2e=engine.e2e,
            memory=memory.stats(),
            hbm_bytes=self.gpu.hbm_bytes,
            makespan=engine.clock,
            busy_time=engine.busy,
            steps=engine.steps,
            prefill_tokens=engine.prefill_tokens,
            trace_summary=trace_summary,
        )

    def _trace_step(self, tracer, lane, step, scheduler, memory,
                    *, ts, dur):
        """Record one engine iteration: a step span plus occupancy
        counters on the plan's engine lane."""
        pid, tid = tracer.track(lane, "steps")
        decode = len(step.decode)
        chunk_tokens = sum(chunk for _, chunk, _ in step.prefill)
        args = {"decode": decode,
                "prefill_chunks": len(step.prefill),
                "prefill_tokens": chunk_tokens,
                "running": len(scheduler.running),
                "waiting": len(scheduler.waiting)}
        if self._spec_runtime is not None:
            # Called before complete_step, so kv_tokens is still the
            # pre-round length — the delta is this round's emission.
            emitted = sum(kv - r.kv_tokens for r, kv in step.decode)
            args["spec_emitted"] = emitted
            args["spec_verify_rows"] = sum(
                1 for r, kv in step.decode if kv - r.kv_tokens > 1)
            tracer.metrics.counter(f"{lane}.spec_emitted").add(emitted)
        tracer.complete(
            "engine step", "engine-step", ts=ts, dur=dur, pid=pid, tid=tid,
            args=args,
        )
        tracer.counter(
            f"{lane} occupancy", ts=ts, pid=pid,
            values={"running": len(scheduler.running),
                    "waiting": len(scheduler.waiting),
                    "kv_blocks": memory.used_blocks},
        )
        tracer.metrics.counter(f"{lane}.steps").inc()
        tracer.metrics.counter(f"{lane}.decode_tokens").add(decode)
        tracer.metrics.counter(f"{lane}.prefill_tokens").add(chunk_tokens)
        tracer.metrics.gauge(f"{lane}.batch").set(
            len(scheduler.running))
        tracer.metrics.gauge(f"{lane}.kv_blocks").set(
            memory.used_blocks)


def simulate_serving(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    rate: float,
    duration: float,
    seed: int = 0,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    requests: "list[Request] | None" = None,
    arrival=None,
    **kwargs,
) -> ServingReport:
    """Run one workload under several plans and bundle the reports.

    Extra keyword arguments are forwarded to :class:`ServingSimulator`
    (``chunk_tokens``, ``max_batch``, ``block_tokens``, ``engine``,
    ...).  ``plans`` entries may be plan names, enums, ``"auto"``, a
    tuned-plan artifact path, or :class:`PlanSource` objects — this is
    the scenario-level API, so every spelling is accepted without
    ceremony.  Pass ``requests`` to replay a trace instead of the
    synthetic workload; otherwise the synthetic stream is sampled once
    into shared arrays and every plan replays the same values.  An
    ``arrival`` process (:mod:`repro.serving.arrivals`) replaces the
    stationary Poisson stream and is echoed into the report.
    """
    model = get_model(model) if isinstance(model, str) else model
    gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
    workload = None
    if requests is None:
        block_tokens = kwargs.get("block_tokens", 64)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=block_tokens, arrival=arrival,
        )
    reports = {}
    # Counted up front from the stream itself, not inside the plan
    # loop: a trace-driven run (or an empty ``plans`` tuple) must still
    # report how many requests were actually loaded.
    if requests is not None:
        num_requests = len(requests)
    else:
        num_requests = len(workload.request_arrays())
    for plan in plans:
        sim = ServingSimulator(model, gpu, plan=PlanSource.of(plan),
                               requests=requests, workload=workload,
                               **kwargs)
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ServingReport(
        model=model.name,
        gpu=gpu.name,
        rate=rate,
        duration=duration,
        seed=seed,
        num_requests=num_requests,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        arrival=arrival.describe() if arrival is not None else None,
    )
