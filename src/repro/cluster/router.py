"""Cluster-level event loop: route a request stream across replicas.

The cluster simulator runs N independent replica engines against one
arrival stream.  Global ordering is the only subtlety: a routing
policy must see each replica's state *as of the request's arrival
time*, so the loop interleaves two event kinds in time order —

- **arrival** — when the next arrival time is no later than every
  active replica's clock, the router dispatches it (every replica's
  visible state is final as of that instant);
- **replica advance** — otherwise the replica with the earliest clock
  advances, because no earlier event can change what it would do.  An
  advance covers one classic step or one epoch-batched stretch of
  pure-decode steps, bounded so no step *starts* at or after the next
  arrival — exactly the steps the one-step-at-a-time loop would have
  run before dispatching it.

Ties break toward dispatching arrivals, then toward the lowest replica
id, so a fixed (stream, policy) pair always yields a byte-identical
report — the same determinism contract the single-node simulator
keeps.

Under round-robin routing with ``jobs > 1`` the loop is bypassed
entirely: the stream shards per replica and each shard simulates in
its own worker process (:mod:`repro.cluster.sharded`), producing the
same report.  Above the exact-percentile cutover the replicas stream
their aggregates instead of retaining per-request state, so a
million-request cluster run holds O(batch) requests per replica and
O(1) memory per metric.
"""

from __future__ import annotations

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.cluster.metrics import ClusterPlanReport, ClusterReport
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica
from repro.serving.engine import DEFAULT_MAX_EPOCH
from repro.serving.metrics import EXACT_PERCENTILE_CUTOVER
from repro.serving.requests import Request, ServingWorkload
from repro.serving.simulator import ENGINE_MODES


class ClusterSimulator:
    """Replay one request stream through a replicated, sharded cluster.

    ``run`` operates on private copies of the requests, so one stream
    can be replayed under several plans and policies.  Pass a
    :class:`~repro.serving.requests.ServingWorkload` instead of a
    request list to keep the stream in numpy arrays until each request
    arrives; with ``jobs > 1`` (round-robin only) replicas simulate in
    parallel worker processes.

    Every replica of one ``run`` prices through one shared
    :class:`~repro.cluster.costmodel.ShardedStepCostModel` (and one
    draft model when speculating); no replica owns a private model.
    ``costs`` extends that sharing across runs: a plain dict (see
    :func:`~repro.serving.costmodel.shared_cost_model`) that ``run``
    looks its models up in and adds them to on a miss.  Sharded
    workers (``jobs > 1``) price in their own processes.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "PlanSource | AttentionPlan | str | None" = None,
        requests: "list[Request] | None" = None,
        workload: "ServingWorkload | None" = None,
        replicas: int = 2,
        tp: int = 1,
        pp: int = 1,
        ep: int = 1,
        policy: "str | RouterPolicy" = "round-robin",
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
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
        jobs: int = 1,
        draft_model: "ModelConfig | str | None" = None,
        draft_len: int = 4,
        accept_rate: float = 1.0,
        costs: "dict | None" = None,
    ) -> None:
        if replicas < 1:
            raise ServingError(f"need at least one replica, got {replicas}")
        if (requests is None) == (workload is None):
            raise ServingError(
                "provide exactly one of `requests` or `workload`"
            )
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {jobs}")
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        from repro.serving.costmodel import SUPPORTED_PLANS

        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
            candidates=SUPPORTED_PLANS,
        )
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.max_steps = max_steps
        self.engine = engine
        self.max_epoch = max_epoch
        self.latency_cutover = latency_cutover
        self.jobs = jobs
        if jobs > 1 and self.policy_name != "round-robin":
            raise ServingError(
                f"policy {self.policy_name!r} reads cross-replica state at "
                f"every arrival and cannot run sharded; use jobs=1"
            )
        if requests is not None:
            self._requests = sorted(
                requests, key=lambda r: (r.arrival_time, r.request_id))
            self._workload = None
        else:
            self._requests = None
            self._workload = workload
        self._replica_kwargs = dict(
            dtype=dtype, tp=tp, pp=pp, ep=ep,
            interconnect=interconnect, algorithm=algorithm,
            chunk_tokens=chunk_tokens, max_batch=max_batch,
            block_tokens=block_tokens, reserve_fraction=reserve_fraction,
            t=t, draft_model=draft_model, draft_len=draft_len,
            accept_rate=accept_rate,
        )
        self.num_replicas = replicas
        self._costs = costs

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        if self._requests is not None:
            return len(self._requests)
        return len(self._workload.request_arrays())

    def _iter_requests(self):
        """Fresh request copies in arrival order, materialized lazily."""
        if self._requests is not None:
            for r in self._requests:
                yield Request(
                    request_id=r.request_id, arrival_time=r.arrival_time,
                    prompt_len=r.prompt_len, output_len=r.output_len,
                    prefix_group=r.prefix_group,
                )
        else:
            arrays = self._workload.request_arrays()
            for index in range(len(arrays)):
                yield arrays.materialize(index)

    def run(self) -> ClusterPlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        retain = tracer.enabled or self.num_requests <= self.latency_cutover
        if self.jobs > 1:
            if tracer.enabled:
                raise ServingError(
                    "traced cluster runs interleave every replica's lanes "
                    "in one tracer and cannot run sharded; use jobs=1"
                )
            from repro.cluster.sharded import run_sharded

            outcomes = run_sharded(
                model=self.model, gpu=self.gpu, plan=self.plan,
                replica_kwargs=self._replica_kwargs,
                num_replicas=self.num_replicas,
                engine=self.engine, max_epoch=self.max_epoch,
                retain=retain, max_steps=self.max_steps, jobs=self.jobs,
                requests=self._requests,
                arrays=(self._workload.request_arrays()
                        if self._requests is None else None),
            )
            return ClusterPlanReport.from_outcomes(
                self.plan.value, self.policy_name, outcomes)

        trace_start = tracer.event_count
        router_lane = (tracer.track(f"{self.plan.value}:router")
                       if tracer.enabled else (0, 0))
        policy = make_policy(self._policy_arg)
        costs = {} if self._costs is None else self._costs
        replicas = [
            Replica(i, self.model, self.gpu, plan=self.plan, tracer=tracer,
                    engine=self.engine, max_epoch=self.max_epoch,
                    retain_requests=retain, costs=costs,
                    **self._replica_kwargs)
            for i in range(self.num_replicas)
        ]
        source = self._iter_requests()
        pending = next(source, None)
        total_steps = 0

        while True:
            active = [r for r in replicas if r.has_work]
            if pending is not None:
                # Dispatch once no active replica can still change
                # state before the arrival instant.
                frontier = min((r.clock for r in active), default=None)
                if frontier is None or pending.arrival_time <= frontier:
                    index = policy.choose(pending, replicas)
                    if not 0 <= index < len(replicas):
                        raise ServingError(
                            f"policy {self.policy_name!r} chose replica "
                            f"{index} of {len(replicas)}"
                        )
                    if tracer.enabled:
                        tracer.instant(
                            "route", "routing", ts=pending.arrival_time,
                            pid=router_lane[0], tid=router_lane[1],
                            args={"request_id": pending.request_id,
                                  "replica": index,
                                  "policy": self.policy_name},
                        )
                        tracer.metrics.counter(
                            f"{self.plan.value}:router.to_replica{index}"
                        ).inc()
                    replicas[index].submit(pending, pending.arrival_time)
                    pending = next(source, None)
                    continue
            if not active:
                break
            replica = min(active, key=lambda r: (r.clock, r.replica_id))
            advanced = replica.advance(
                limit_time=(pending.arrival_time if pending is not None
                            else None),
                max_new_steps=self.max_steps - total_steps + 1)
            if advanced == 0:
                raise ServingError(
                    f"replica {replica.replica_id} stalled with work "
                    f"outstanding"
                )
            total_steps += advanced
            if total_steps > self.max_steps:
                raise ServingError(
                    f"cluster simulation exceeded {self.max_steps} steps; "
                    f"lower the rate or duration"
                )

        trace_summary = None
        if tracer.enabled:
            makespan = max((r.clock for r in replicas), default=0.0)
            tracer.set_clock(makespan)
            emit_request_phase_spans(
                tracer,
                [r for replica in replicas for r in replica.requests],
                process=f"{self.plan.value}:requests",
            )
            trace_summary = tracer.summary(since=trace_start,
                                           include_metrics=False)
        return ClusterPlanReport.from_replicas(
            self.plan.value, self.policy_name, replicas,
            trace_summary=trace_summary)


def simulate_cluster(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    *,
    rate: float = 8.0,
    duration: float = 30.0,
    seed: int = 0,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    replicas: int = 2,
    tp: int = 1,
    pp: int = 1,
    policy: str = "round-robin",
    algorithm: str = "ring",
    interconnect: InterconnectSpec = NVLINK3,
    requests: "list[Request] | None" = None,
    prefix_groups: int = 0,
    arrival=None,
    **engine_kwargs,
) -> ClusterReport:
    """Run one workload through the cluster under several plans.

    Each plan replays the *same* request stream with a fresh policy
    instance and fresh replicas, so plan comparisons differ only in
    the attention plan.  Extra keyword arguments reach
    :class:`ClusterSimulator` (``chunk_tokens``, ``max_batch``,
    ``engine``, ``jobs``, ...).  Without an explicit request list the
    synthetic stream is sampled once into shared arrays and every plan
    replays the same values; an ``arrival`` process
    (:mod:`repro.serving.arrivals`) replaces the stationary Poisson
    stream and is echoed into the report.
    """
    model = get_model(model) if isinstance(model, str) else model
    gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
    workload = None
    if requests is None:
        block_tokens = engine_kwargs.get("block_tokens", 64)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            block_tokens=block_tokens, prefix_groups=prefix_groups,
            arrival=arrival,
        )
    reports = {}
    # Counted from the stream itself so trace-driven runs (and empty
    # ``plans`` tuples) report the actual loaded request count.
    if requests is not None:
        num_requests = len(requests)
    else:
        num_requests = len(workload.request_arrays())
    for plan in plans:
        sim = ClusterSimulator(
            model, gpu, plan=PlanSource.of(plan), requests=requests,
            workload=workload,
            replicas=replicas, tp=tp, pp=pp, policy=policy,
            interconnect=interconnect, algorithm=algorithm, **engine_kwargs,
        )
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ClusterReport(
        model=model.name,
        gpu=gpu.name,
        rate=rate,
        duration=duration,
        seed=seed,
        replicas=replicas,
        tp=tp,
        pp=pp,
        policy=policy if isinstance(policy, str) else policy.name,
        algorithm=algorithm,
        interconnect=interconnect.name,
        num_requests=num_requests,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        arrival=arrival.describe() if arrival is not None else None,
    )
