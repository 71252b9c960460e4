"""One serving replica: a TP×PP GPU group with its own engine state.

A replica owns its engine state — a paged
:class:`~repro.serving.memory.KVBlockManager` sized for the whole GPU
group (weights shard, per-GPU reserve replicates) and a
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler`, driven
by one :class:`~repro.serving.engine.EpochEngine`, all assembled by its
:class:`~repro.serving.config.EngineConfig` — but not its prices.
Its :class:`~repro.cluster.costmodel.ShardedStepCostModel` (and a
speculative run's draft model) come from the run's pool of
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

import itertools
from dataclasses import dataclass

from repro.cluster.costmodel import ShardedStepCostModel
from repro.models.footprint import weight_bytes
from repro.obs.tracer import NULL_TRACER, TraceEvent, check_span
from repro.serving.config import EngineConfig
from repro.serving.metrics import RunOutcome
from repro.serving.requests import Request


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

    def __init__(self, replica_id: int, config: EngineConfig, *,
                 tracer=None, retain_requests: bool = True,
                 costs: "dict | None" = None) -> None:
        self.replica_id = replica_id
        # ``costs`` is the owning run's pool; without one the replica
        # prices through private models.
        self.cost, spec_decode = config.priced(
            ShardedStepCostModel, costs, **config.sharding)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: Trace process name; plan-prefixed so several plans can share
        #: one tracer without lane collisions.
        self.trace_process = f"{config.plan.value}:replica{replica_id}"
        #: ``(pid, tid)`` of the step lane, bound by the first traced step.
        self._steps_lane = None
        self.engine = config.build_engine(
            self.cost, spec_decode, tracer=self.tracer,
            lane=self.trace_process, on_step=self._trace_step)
        self.memory, self.scheduler = self.engine.memory, self.engine.scheduler
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
                lockstep: bool = False, other_lanes: bool = False) -> int:
        """Advance this replica's engine; returns steps taken (0 =
        nothing runnable).  No step starts at or after ``limit_time``
        — the event loop passes its next event, so replica state is
        final when a handler reads it — and at most ``max_new_steps``
        are taken (the loop's remaining step budget); ``lockstep`` and
        ``other_lanes`` as in
        :meth:`~repro.serving.engine.EpochEngine.advance`."""
        return self.engine.advance(limit_time=limit_time,
                                   max_new_steps=max_new_steps,
                                   lockstep=lockstep,
                                   other_lanes=other_lanes)

    def _trace_step(self, stretch) -> None:
        """The engine's ``on_step``: one ``replica step`` span per step
        of the :class:`~repro.serving.engine.Stretch`, every step
        sharing one ``args`` dict, plus its communication time and KV
        occupancy in the metrics.  The lane and instruments are looked
        up on the first step (earlier would renumber the replica's
        tracks)."""
        if self._steps_lane is None:
            metrics = self.tracer.metrics
            self._steps_lane = self.tracer.track(self.trace_process,
                                                 "steps")
            self._comm_counter = metrics.counter(
                f"{self.trace_process}.comm_time_s")
            self._kv_gauge = metrics.gauge(
                f"{self.trace_process}.kv_blocks")
        pid, tid = self._steps_lane
        times, total, comm = stretch.times, stretch.total, stretch.comm
        check_span("replica step", total)
        args = {"decode": stretch.decode,
                "prefill_tokens": stretch.prefill_tokens,
                "compute_s": total - comm, "comm_s": comm,
                "running": stretch.running}
        dur = float(total)
        self.tracer.events.extend(
            TraceEvent("replica step", "engine-step", "X", float(ts), dur,
                       pid, tid, args) for ts in times)
        steps = len(times)
        self._comm_counter.add_all(itertools.repeat(comm, steps))
        kv = stretch.kv_blocks
        self._kv_gauge.merge(kv, kv, kv, steps)

    def outcome(self, exact: bool = True) -> ReplicaOutcome:
        """Snapshot this replica's contribution to the cluster report,
        exact from its retained requests unless ``exact`` is false (a
        traced run above the cutover retains them for its spans only)."""
        return ReplicaOutcome(
            replica_id=self.replica_id,
            n_gpus=self.n_gpus,
            weight_bytes_per_gpu=self.weight_bytes_per_gpu,
            run=self.engine.outcome(
                self.n_gpus * self.cost.gpu.hbm_bytes,
                self.requests if exact and self.retain_requests else None),
        )
