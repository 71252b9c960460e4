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

from repro.core.plan import AttentionPlan
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.serving.engine import DEFAULT_MAX_EPOCH
from repro.serving.loop import arrival_events, run_loop
from repro.serving.requests import Request, RequestArrays, arrivals
from repro.workloads.sweep import fanout

__all__ = ["ReplicaShard", "simulate_shard", "run_sharded"]


@dataclass(frozen=True)
class ReplicaShard:
    """One replica's share of a round-robin-routed cluster run.

    Frozen and picklable — the unit of work :func:`fanout` ships to a
    worker process.  ``stream`` is either this replica's request
    templates or the full stream's columnar arrays, which the worker
    strides lazily — at fleet scale the arrays pickle as a few numpy
    buffers instead of a million dataclasses.
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
    stream: "tuple[Request, ...] | RequestArrays"


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
    if isinstance(shard.stream, RequestArrays):
        source = arrivals(shard.stream, start=shard.replica_id,
                          step=shard.num_replicas)
    else:
        source = arrivals(shard.stream)
    run_loop([replica],
             arrival_events(source, lambda r: replica.submit(
                 r, r.arrival_time)),
             max_steps=shard.max_steps, what=f"replica {shard.replica_id}")
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
    stream: "list[Request] | RequestArrays",
) -> "list":
    """Partition ``stream`` round-robin and simulate every replica.

    ``stream`` is the time-sorted request list or the stream's arrays.
    Returns the per-replica outcomes in replica-id order.
    """
    shards = []
    for replica_id in range(num_replicas):
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
            stream=(stream if isinstance(stream, RequestArrays)
                    else tuple(stream[replica_id::num_replicas])),
        ))
    return fanout(simulate_shard, shards, jobs=jobs)
