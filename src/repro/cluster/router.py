"""Cluster-level simulation: route a request stream across replicas.

The cluster simulator runs N independent replica engines against one
arrival stream.  Global ordering is the only subtlety: a routing
policy must see each replica's state *as of the request's arrival
time*.  The shared event loop (:mod:`repro.serving.loop`) guarantees
that — the replicas are its lanes and each arrival an event — so this
module keeps only the policy choice and the route instants.  Every
replica is assembled from the simulator's one
:class:`~repro.serving.config.EngineConfig`.

Under round-robin routing with ``jobs > 1`` the stream shards per
replica instead and each shard runs the loop with one lane in its own
worker process (:mod:`repro.cluster.sharded`), producing the same
report.  Above the exact-percentile cutover the replicas stream
their aggregates instead of retaining per-request state, so a
million-request cluster run holds O(batch) requests per replica and
O(1) memory per metric; a traced run retains its requests for their
phase spans but reports the same streamed aggregates.
"""

from __future__ import annotations

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource
from repro.gpu.interconnect import InterconnectSpec, NVLINK3
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.instrument import emit_request_phase_spans
from repro.obs.tracer import current_tracer
from repro.cluster.metrics import ClusterPlanReport, ClusterReport
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica
from repro.serving.config import EngineConfig
from repro.serving.costmodel import check_softmax_rows
from repro.serving.engine import DEFAULT_MAX_EPOCH
from repro.serving.metrics import EXACT_PERCENTILE_CUTOVER
from repro.serving.loop import arrival_events, run_loop
from repro.serving.requests import (
    Request,
    ServingWorkload,
    arrivals,
    replay_stream,
)


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
        if jobs < 1:
            raise ServingError(f"jobs must be >= 1, got {jobs}")
        self.config = config = EngineConfig(
            model, gpu, AttentionPlan.BASELINE if plan is None else plan,
            t=t, dtype=dtype, chunk_tokens=chunk_tokens,
            max_batch=max_batch, block_tokens=block_tokens,
            reserve_fraction=reserve_fraction, tp=tp, pp=pp, ep=ep,
            interconnect=interconnect, algorithm=algorithm,
            draft_model=draft_model, draft_len=draft_len,
            accept_rate=accept_rate, engine=engine, max_epoch=max_epoch)
        self.model, self.gpu, self.plan = config.model, config.gpu, config.plan
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.max_steps = max_steps
        self.latency_cutover = latency_cutover
        self.jobs = jobs
        if jobs > 1 and self.policy_name != "round-robin":
            raise ServingError(
                f"policy {self.policy_name!r} reads cross-replica state at "
                f"every arrival and cannot run sharded; use jobs=1"
            )
        #: What ``run`` replays: the time-sorted request templates, or
        #: the workload's arrays (materialized one arrival at a time).
        self._stream = replay_stream(requests, workload,
                                     block_tokens=block_tokens)
        check_softmax_rows(self._stream, config)
        self.num_replicas = replicas
        self._costs = costs

    @property
    def num_requests(self) -> int:
        """Size of the stream ``run`` will replay."""
        return len(self._stream)

    def run(self) -> ClusterPlanReport:
        """Simulate the stream to completion and aggregate metrics."""
        tracer = current_tracer()
        # The stream's length alone decides whether the report is
        # exact; a traced run also retains for its request spans.
        exact = self.num_requests <= self.latency_cutover
        if self.jobs > 1:
            if tracer.enabled:
                raise ServingError(
                    "traced cluster runs interleave every replica's lanes "
                    "in one tracer and cannot run sharded; use jobs=1"
                )
            from repro.cluster.sharded import run_sharded

            outcomes = run_sharded(
                self.config, num_replicas=self.num_replicas, retain=exact,
                max_steps=self.max_steps, jobs=self.jobs,
                stream=self._stream,
            )
            return ClusterPlanReport.from_outcomes(
                self.plan.value, self.policy_name, outcomes)

        trace_start = tracer.event_count
        router_lane = (tracer.track(f"{self.plan.value}:router")
                       if tracer.enabled else (0, 0))
        policy = make_policy(self._policy_arg)
        costs = {} if self._costs is None else self._costs
        replicas = [
            Replica(i, self.config, tracer=tracer,
                    retain_requests=exact or tracer.enabled, costs=costs)
            for i in range(self.num_replicas)
        ]

        def route(request) -> None:
            index = policy.choose(request, replicas)
            if not 0 <= index < len(replicas):
                raise ServingError(
                    f"policy {self.policy_name!r} chose replica "
                    f"{index} of {len(replicas)}"
                )
            if tracer.enabled:
                tracer.instant(
                    "route", "routing", ts=request.arrival_time,
                    pid=router_lane[0], tid=router_lane[1],
                    args={"request_id": request.request_id,
                          "replica": index,
                          "policy": self.policy_name},
                )
                tracer.metrics.counter(
                    f"{self.plan.value}:router.to_replica{index}").inc()
            replicas[index].submit(request, request.arrival_time)

        source = arrivals(self._stream)
        run_loop(replicas, arrival_events(source, route),
                 max_steps=self.max_steps, what="cluster simulation",
                 lockstep=tracer.enabled)

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
            self.plan.value, self.policy_name, replicas, exact=exact,
            trace_summary=trace_summary)


def simulate_cluster(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    workload: ServingWorkload,
    *,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("baseline",
                                                             "sdf"),
    replicas: int = 2,
    tp: int = 1,
    pp: int = 1,
    policy: str = "round-robin",
    algorithm: str = "ring",
    interconnect: InterconnectSpec = NVLINK3,
    **engine_kwargs,
) -> ClusterReport:
    """Replay ``workload`` through the cluster under several plans.

    Each plan replays the *same* request stream with a fresh policy
    instance and fresh replicas, so plan comparisons differ only in
    the attention plan.  Extra keyword arguments reach
    :class:`ClusterSimulator` (``chunk_tokens``, ``max_batch``,
    ``engine``, ``jobs``, ...).  The report header (rate, duration,
    seed, arrival, request count) comes from the workload.
    """
    model = get_model(model)
    gpu = get_gpu(gpu)
    reports = {}
    for plan in plans:
        sim = ClusterSimulator(
            model, gpu, plan=PlanSource.of(plan), workload=workload,
            replicas=replicas, tp=tp, pp=pp, policy=policy,
            interconnect=interconnect, algorithm=algorithm, **engine_kwargs,
        )
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ClusterReport(
        model=model.name,
        gpu=gpu.name,
        replicas=replicas,
        tp=tp,
        pp=pp,
        policy=policy if isinstance(policy, str) else policy.name,
        algorithm=algorithm,
        interconnect=interconnect.name,
        plans=reports,
        trace_summary=tracer.summary() if tracer.enabled else None,
        **workload.report_header(),
    )
