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
for the requests currently resident.  A finished replica reports
through :meth:`Replica.outcome`: its engine's
:class:`~repro.serving.metrics.RunOutcome` plus the sharding numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.footprint import weight_bytes
from repro.obs.tracer import NULL_TRACER, TraceEvent
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.memory import KVBlockManager
from repro.serving.metrics import RunOutcome
from repro.serving.requests import Request
from repro.serving.scheduler import ContinuousBatchingScheduler


@dataclass
class ReplicaOutcome:
    """Everything a finished replica contributes to a cluster report.

    The replica's identity and sharding numbers around its engine's
    :class:`~repro.serving.metrics.RunOutcome`.  A plain, picklable
    record: the sharded cluster mode ships one per worker process back
    to the parent, and the serial loop produces the same shape, so
    both aggregate through one code path
    (:meth:`repro.cluster.metrics.ClusterPlanReport.from_outcomes`).
    """

    replica_id: int
    n_gpus: int
    weight_bytes_per_gpu: float
    run: RunOutcome


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
        from repro.serving.costmodel import shared_cost_model
        from repro.serving.specdecode import spec_decode_runtime

        self.replica_id = replica_id
        # ``costs`` is the owning run's pool; without one the replica
        # prices through a private model.  Decode KV lengths are priced
        # at the KV block granularity.
        self.cost = shared_cost_model(
            costs, ShardedStepCostModel, model, gpu,
            plan=AttentionPlan.from_name(plan), dtype=dtype, t=t,
            kv_bucket=block_tokens, tp=tp, pp=pp, ep=ep,
            interconnect=interconnect, algorithm=algorithm,
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
        #: ``(pid, tid)`` of the step lane, bound by the first traced step.
        self._steps_lane = None
        self.engine = EpochEngine(
            cost=self.cost, memory=self.memory, scheduler=self.scheduler,
            tracer=self.tracer, epoch=engine == "epoch",
            max_epoch=max_epoch, on_step=self._trace_step,
            spec_decode=spec_decode_runtime(
                draft_model, gpu, draft_len=draft_len,
                accept_rate=accept_rate, plan=self.cost.plan, dtype=dtype,
                t=t, kv_bucket=block_tokens, costs=costs),
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
                max_new_steps: "int | None" = None,
                lockstep: bool = False) -> int:
        """Advance this replica's engine; returns steps taken (0 =
        nothing runnable).  No step starts at or after ``limit_time``
        — the event loop passes its next event, so replica state is
        final when a handler reads it — and at most ``max_new_steps``
        are taken (the loop's remaining step budget); ``lockstep`` as
        in :meth:`~repro.serving.engine.EpochEngine.advance`."""
        return self.engine.advance(limit_time=limit_time,
                                   max_new_steps=max_new_steps,
                                   lockstep=lockstep)

    def _trace_step(self, block) -> None:
        """The engine's ``on_step``: one ``replica step`` span per step
        of the advance's :class:`~repro.serving.engine.StepBlock`, plus
        its communication time and KV occupancy in the metrics.  The
        lane and instruments are looked up on the first step (earlier
        would renumber the replica's tracks)."""
        if self._steps_lane is None:
            metrics = self.tracer.metrics
            self._steps_lane = self.tracer.track(self.trace_process,
                                                 "steps")
            self._comm_counter = metrics.counter(
                f"{self.trace_process}.comm_time_s")
            self._kv_gauge = metrics.gauge(
                f"{self.trace_process}.kv_blocks")
        pid, tid = self._steps_lane
        events = []
        kv_blocks = []
        for start, stop, decode, running, kv, _, _ in block.stretches:
            events.extend(
                TraceEvent("replica step", "engine-step", "X", float(ts),
                           float(dur), pid, tid,
                           {"decode": decode,
                            "prefill_tokens": block.prefill_tokens,
                            "compute_s": dur - comm, "comm_s": comm,
                            "running": running})
                for ts, dur, comm in zip(block.times[start:stop],
                                         block.totals[start:stop],
                                         block.comm[start:stop]))
            kv_blocks.append(kv)
        block.emit(self.tracer, "replica step", events, per_step=1)
        self._comm_counter.add_all(block.comm)
        self._kv_gauge.merge(kv, min(kv_blocks), max(kv_blocks),
                             len(block.totals))

    def outcome(self) -> ReplicaOutcome:
        """Snapshot this replica's contribution to the cluster report."""
        return ReplicaOutcome(
            replica_id=self.replica_id,
            n_gpus=self.n_gpus,
            weight_bytes_per_gpu=self.weight_bytes_per_gpu,
            run=self.engine.outcome(
                self.n_gpus * self.cost.gpu.hbm_bytes,
                self.requests if self.retain_requests else None),
        )
