"""Sharded parallel cluster mode: one worker process per replica.

Under round-robin routing the cluster decomposes exactly: arrival
``i`` of the time-sorted stream lands on replica ``i % R``, and after
routing, replicas never interact — each one is an independent
single-replica serving simulation.  So instead of interleaving every
replica's steps in one global event loop, the sharded mode partitions
the stream by replica up front, simulates each replica's substream to
completion in its own worker process (via
:func:`repro.workloads.sweep.fanout`), and merges the per-replica
outcomes in replica-id order.  The merged
:class:`~repro.cluster.metrics.ClusterPlanReport` is byte-identical to
the serial :class:`~repro.cluster.router.ClusterSimulator` loop's, and
identical across any ``--jobs`` value — parallelism only changes which
process runs a shard, never what the shard computes.

State-dependent policies (least-outstanding, prefix-affinity) read
*other* replicas' load at each arrival, so they cannot shard; the
router rejects ``jobs > 1`` for them.  Tracing interleaves all lanes
in one tracer, so traced runs stay serial too.

Each worker holds O(stream/R) arrival arrays and O(batch) resident
requests; with streaming aggregation (above the exact-percentile
cutover) the parent only ever sees O(1)-sized outcome records per
replica, which is what lets a million-request scenario run in a few
hundred MB.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.serving.engine import DEFAULT_MAX_EPOCH
from repro.serving.requests import Request, RequestArrays
from repro.workloads.sweep import fanout

__all__ = ["ReplicaShard", "simulate_shard", "run_sharded"]


@dataclass(frozen=True)
class ReplicaShard:
    """One replica's share of a round-robin-routed cluster run.

    Frozen and picklable — the unit of work :func:`fanout` ships to a
    worker process.  The substream arrives either as materialized
    request templates (``requests``) or as the full stream's columnar
    arrays (``arrays``) that the worker strides lazily — at fleet
    scale the arrays pickle as a few numpy buffers instead of a
    million dataclasses.
    """

    replica_id: int
    num_replicas: int
    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    replica_kwargs: "dict[str, object]"
    engine: str
    max_epoch: int
    retain: bool
    max_steps: int
    requests: "tuple[Request, ...] | None" = None
    arrays: "RequestArrays | None" = None

    def stream(self):
        """This replica's arrivals, oldest first, as fresh requests."""
        if self.requests is not None:
            for r in self.requests:
                yield Request(
                    request_id=r.request_id, arrival_time=r.arrival_time,
                    prompt_len=r.prompt_len, output_len=r.output_len,
                    prefix_group=r.prefix_group,
                )
        else:
            for index in range(self.replica_id, len(self.arrays),
                               self.num_replicas):
                yield self.arrays.materialize(index)


def simulate_shard(shard: ReplicaShard):
    """Simulate one replica's substream to completion.

    Module-level so it pickles to pool workers; the serial ``jobs=1``
    path calls it in-process, which is what makes the output identical
    across worker counts.  Returns the replica's
    :class:`~repro.cluster.replica.ReplicaOutcome`.
    """
    from repro.cluster.replica import Replica

    replica = Replica(
        shard.replica_id, shard.model, shard.gpu, plan=shard.plan,
        engine=shard.engine, max_epoch=shard.max_epoch,
        retain_requests=shard.retain, **shard.replica_kwargs,
    )
    source = shard.stream()
    pending = next(source, None)
    while True:
        while (pending is not None
               and pending.arrival_time <= replica.clock):
            replica.submit(pending, pending.arrival_time)
            pending = next(source, None)
        limit = pending.arrival_time if pending is not None else None
        advanced = replica.advance(
            limit_time=limit,
            max_new_steps=shard.max_steps - replica.steps + 1)
        if advanced == 0:
            if pending is not None:
                # Idle: the next submit fast-forwards the clock.
                replica.submit(pending, pending.arrival_time)
                pending = next(source, None)
                continue
            if replica.has_work:
                raise ServingError(
                    f"replica {shard.replica_id} stalled with work "
                    f"outstanding"
                )
            break
        if replica.steps > shard.max_steps:
            raise ServingError(
                f"replica {shard.replica_id} exceeded {shard.max_steps} "
                f"steps; lower the rate or duration"
            )
    return replica.outcome()


def run_sharded(
    *,
    model: ModelConfig,
    gpu: GPUSpec,
    plan: AttentionPlan,
    replica_kwargs: "dict[str, object]",
    num_replicas: int,
    engine: str = "epoch",
    max_epoch: int = DEFAULT_MAX_EPOCH,
    retain: bool = True,
    max_steps: int = 2_000_000,
    jobs: int = 1,
    requests: "list[Request] | None" = None,
    arrays: "RequestArrays | None" = None,
) -> "list":
    """Partition the stream round-robin and simulate every replica.

    Returns the per-replica outcomes in replica-id order.  Exactly one
    of ``requests`` (time-sorted) or ``arrays`` must be provided.
    """
    if (requests is None) == (arrays is None):
        raise ServingError("provide exactly one of `requests` or `arrays`")
    shards = []
    for replica_id in range(num_replicas):
        sub = (tuple(requests[replica_id::num_replicas])
               if requests is not None else None)
        shards.append(ReplicaShard(
            replica_id=replica_id,
            num_replicas=num_replicas,
            model=model,
            gpu=gpu,
            plan=plan,
            replica_kwargs=dict(replica_kwargs),
            engine=engine,
            max_epoch=max_epoch,
            retain=retain,
            max_steps=max_steps,
            requests=sub,
            arrays=arrays if requests is None else None,
        ))
    return fanout(simulate_shard, shards, jobs=jobs)
