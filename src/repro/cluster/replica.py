"""One serving replica: a TP×PP GPU group with its own engine state.

A replica owns its engine state — a paged
:class:`~repro.serving.memory.KVBlockManager` sized for the whole GPU
group (weights shard, per-GPU reserve replicates) and a
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, driven
by one :class:`~repro.serving.engine.EpochEngine` — but not its
prices.  Its :class:`~repro.cluster.costmodel.ShardedStepCostModel`
(and a speculative run's draft model) come from the run's pool of
priced models (:func:`~repro.serving.costmodel.shared_cost_model`),
so every replica of one configuration reads the same memo.  The event
loop (:mod:`repro.serving.loop`) interleaves replica advances in
global time order; each replica's clock reads "when this replica is
next free", so a request submitted to an idle replica starts
immediately while one submitted mid-step queues until the step
completes.

Replicas stream their aggregates through the engine's O(1) latency
accumulators; the routed-request list is retained only while
``retain_requests`` is set (the default, and what exact small-run
reports need), so a million-request shard holds per-request state only
for the requests currently resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.footprint import weight_bytes
from repro.obs.tracer import NULL_TRACER
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.memory import KVBlockManager, MemoryStats
from repro.serving.metrics import LatencyAccumulator
from repro.serving.requests import Request
from repro.serving.scheduler import ContinuousBatchingScheduler


@dataclass
class ReplicaOutcome:
    """Everything a finished replica contributes to a cluster report.

    A plain, picklable record: the sharded cluster mode ships one per
    worker process back to the parent, and the serial loop produces
    the same shape, so both aggregate through one code path
    (:meth:`repro.cluster.metrics.ClusterPlanReport.from_outcomes`).
    ``requests`` is ``None`` when the replica ran in streaming mode.
    """

    replica_id: int
    n_gpus: int
    weight_bytes_per_gpu: float
    #: Total HBM across the replica's GPU group, for peak fractions.
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


class Replica:
    """One model replica inside a cluster simulation."""

    def __init__(
        self,
        replica_id: int,
        model: ModelConfig,
        gpu: GPUSpec,
        *,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        tp: int = 1,
        pp: int = 1,
        ep: int = 1,
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
        chunk_tokens: int = 512,
        max_batch: int = 32,
        block_tokens: int = 64,
        reserve_fraction: float = 0.1,
        t: int = 64,
        tracer=None,
        engine: str = "epoch",
        max_epoch: int = DEFAULT_MAX_EPOCH,
        retain_requests: bool = True,
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
        costs: "dict | None" = None,
    ) -> None:
        from repro.cluster.costmodel import ShardedStepCostModel
        from repro.serving.costmodel import StepCostModel, shared_cost_model

        self.replica_id = replica_id
        # ``costs`` is the owning run's pool; without one the replica
        # prices through a private model.
        self.cost = shared_cost_model(
            costs, ShardedStepCostModel, model, gpu,
            plan=AttentionPlan.from_name(plan), dtype=dtype, t=t, tp=tp,
            pp=pp, ep=ep, interconnect=interconnect, algorithm=algorithm,
        )
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Trace process name; plan-prefixed so several plans can share
        #: one tracer without lane collisions.
        self.trace_process = f"{self.cost.plan.value}:replica{replica_id}"
        self.memory = KVBlockManager.for_model(
            model, gpu, block_tokens=block_tokens, dtype=dtype,
            reserve_fraction=reserve_fraction, n_gpus=tp * pp * ep,
        )
        self.scheduler = ContinuousBatchingScheduler(
            self.memory, chunk_tokens=chunk_tokens, max_batch=max_batch,
            tracer=self.tracer, trace_process=self.trace_process,
        )
        # The draft model is small and replicates across the group, so
        # its per-round cost is priced unsharded on one GPU.
        spec_runtime = None
        if draft_model is not None:
            from repro.models.config import get_model
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
            spec_runtime = SpecDecodeRuntime(config, shared_cost_model(
                costs, StepCostModel, config.draft_model, gpu,
                plan=self.cost.plan, dtype=dtype, t=t,
            ))
        self.engine = EpochEngine(
            cost=self.cost, memory=self.memory, scheduler=self.scheduler,
            tracer=self.tracer, epoch=engine == "epoch",
            max_epoch=max_epoch, on_step=self._trace_step,
            spec_decode=spec_runtime,
        )
        self.retain_requests = retain_requests
        #: Every request ever routed here, in submission order; empty
        #: in streaming mode (``retain_requests=False``).
        self.requests: "list[Request]" = []

    @property
    def n_gpus(self) -> int:
        """GPUs in this replica's group."""
        return self.cost.n_gpus

    @property
    def weight_bytes_per_gpu(self) -> float:
        """Sharded parameter footprint per GPU."""
        return weight_bytes(self.cost.model, self.cost.dtype) / self.n_gpus

    # -- engine state, delegated ----------------------------------------

    @property
    def clock(self) -> float:
        """Global time this replica is next free."""
        return self.engine.clock

    @property
    def has_work(self) -> bool:
        """Whether any routed request is still unfinished on-device."""
        return self.scheduler.has_work

    @property
    def outstanding_tokens(self) -> int:
        """Remaining prefill + decode tokens across unfinished requests.

        The router's load signal: the total token work this replica
        still owes, regardless of admission state.  Computed over the
        resident (running + waiting) requests plus the constant
        contribution of rejected ones, so reading it is O(batch), not
        O(every request ever routed).
        """
        resident = sum(
            (r.prefill_target - r.prefilled) + (r.output_len - r.generated)
            for r in self.scheduler.running
        ) + sum(
            (r.prefill_target - r.prefilled) + (r.output_len - r.generated)
            for r in self.scheduler.waiting
        )
        return resident + self.engine.rejected_outstanding

    def submit(self, request: Request, now: float) -> None:
        """Route ``request`` here; it arrives at global time ``now``."""
        if self.retain_requests:
            self.requests.append(request)
        self.engine.submit(request, now)

    def advance(self, limit_time: "float | None" = None,
                max_new_steps: "int | None" = None) -> int:
        """Advance this replica's engine; returns steps taken (0 =
        nothing runnable).  No step starts at or after ``limit_time``
        — the event loop passes its next event, so replica state is
        final when a handler reads it — and at most ``max_new_steps``
        are taken (the loop's remaining step budget)."""
        return self.engine.advance(limit_time=limit_time,
                                   max_new_steps=max_new_steps)

    def _trace_step(self, step, *, ts, dur, comm) -> None:
        pid, tid = self.tracer.track(self.trace_process, "steps")
        self.tracer.complete(
            "replica step", "engine-step", ts=ts, dur=dur,
            pid=pid, tid=tid,
            args={"decode": len(step.decode),
                  "prefill_tokens": sum(
                      c for _, c, _ in step.prefill),
                  "compute_s": dur - comm,
                  "comm_s": comm,
                  "running": len(self.scheduler.running)},
        )
        self.tracer.metrics.counter(
            f"{self.trace_process}.comm_time_s").add(comm)
        self.tracer.metrics.gauge(
            f"{self.trace_process}.kv_blocks").set(
                self.memory.used_blocks)

    def outcome(self) -> ReplicaOutcome:
        """Snapshot this replica's contribution to the cluster report."""
        engine = self.engine
        return ReplicaOutcome(
            replica_id=self.replica_id,
            n_gpus=self.n_gpus,
            weight_bytes_per_gpu=self.weight_bytes_per_gpu,
            hbm_bytes=self.n_gpus * self.cost.gpu.hbm_bytes,
            memory=self.memory.stats(),
            clock=engine.clock,
            busy=engine.busy,
            comm_time=engine.comm_time,
            steps=engine.steps,
            prefill_tokens=engine.prefill_tokens,
            preemption_events=self.scheduler.preemption_events,
            finished=engine.finished,
            rejected=engine.rejected,
            preempted_requests=engine.preempted_requests,
            generated_tokens=engine.generated_tokens,
            ttft=engine.ttft,
            tpot=engine.tpot,
            e2e=engine.e2e,
            requests=self.requests if self.retain_requests else None,
        )
