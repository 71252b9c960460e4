"""The control plane: gateway, autoscaler, fault injector.

:class:`ControlPlaneSimulator` wraps the cluster's replica engines in
a discrete-time control loop.  Four event kinds interleave with
replica compute in global time order on the shared event loop
(:mod:`repro.serving.loop`); simultaneous events go boot, fault, tick,
arrival:

- **arrival** — the gateway assigns the request's SLO tier, applies
  priority load shedding, and routes it through the configured policy
  over the currently routable replicas;
- **boot completion** — a cold-started replica joins the fleet and any
  requests parked while no replica was routable flush to it;
- **fault** — a scheduled replica death (resident requests re-queue
  with evict-and-recompute semantics and a replacement boots) or a
  straggler slowdown injected into a live replica's cost model;
- **controller tick** — the autoscaler reads its signals and may grow
  the fleet (paying the cold-start delay) or drain a replica.

The feedback path is deliberately narrow: every signal the controller
consumes — windowed first-token attainment, per-replica
outstanding-token backlog, the shed count — is plain run state the
replicas and the gateway publish (a first-token list the schedulers
append to, a load attribute each replica refreshes after every submit
and advance, a shed tally), never a scan of scheduler internals.  The
same values also reach the :mod:`repro.obs` tracer as instants, gauges
and counters, but only when the caller installed one; the controller
never reads them back.  Traced or not, the engines take the epoch fast
path through pure-decode stretches (``engine="event"`` pins them to
the classic per-step loop) and produce the same report.  A traced run
steps its replicas in lockstep, so it emits the classic loop's events
in the classic order; only the ``outstanding_tokens`` gauges, published
once per advance, count fewer samples on the fast path.

Every replica a run creates — initial, autoscaled and failover — shares
one :class:`~repro.cluster.costmodel.ShardedStepCostModel` from the
run's pool of priced models
(:func:`~repro.serving.costmodel.shared_cost_model`), so a shape is
priced once per run rather than once per replica (stragglers wrap it
per replica in :class:`~repro.controlplane.faults.SlowdownCost`).
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.interconnect import NVLINK3, InterconnectSpec
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.obs.tracer import current_tracer
from repro.cluster.policies import RouterPolicy, make_policy
from repro.cluster.replica import Replica
from repro.controlplane.autoscaler import (
    Autoscaler,
    AutoscalerConfig,
    cold_start_time,
)
from repro.controlplane.faults import FailureSchedule, SlowdownCost
from repro.controlplane.report import (
    ControlPlanePlanReport,
    ControlPlaneReport,
    FaultRecord,
    ScalingEvent,
    TierReport,
)
from repro.controlplane.slo import DEFAULT_TIERS, SLOTier, assign_tiers
from repro.serving.costmodel import check_softmax_rows
from repro.serving.metrics import LatencyStats
from repro.serving.loop import run_loop
from repro.serving.simulator import ENGINE_MODES
from repro.serving.requests import (
    RequestStatus,
    ServingWorkload,
    arrivals,
    replay_stream,
)

__all__ = ["ControlledReplica", "ControlPlaneSimulator",
           "simulate_controlplane"]

#: Victim-selection rng salt (consumed in fault-event order).
_VICTIM_SALT = 0xF1C7

#: Replica lifecycle states.
ACTIVE = "active"        #: routable and serving
DRAINING = "draining"    #: serving residents, no new routes
DEAD = "dead"            #: killed by fault injection
RETIRED = "retired"      #: drained and decommissioned


class ControlledReplica(Replica):
    """A cluster replica under control-plane management.

    Adds the lifecycle state machine, a creation clock (a booted
    replica starts at its ready time, not zero), straggler slowdown
    injection, and — crucially — publication of its load signal after
    every submit and advance: :attr:`load` holds the outstanding tokens
    as of the last publication (the controller's backlog signal), and
    the same value goes to the tracer's gauge when one is installed.
    ``first_tokens``, when given, is the list the scheduler appends
    its first-token observations to.
    """

    def __init__(self, *args, created_at: float = 0.0,
                 first_tokens: "list | None" = None, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.state = ACTIVE
        self.created_at = created_at
        self.slowdown = 1.0
        self.engine.clock = created_at
        self.scheduler.first_tokens = first_tokens
        self._load_gauge = self.tracer.metrics.gauge(
            f"{self.trace_process}.outstanding_tokens")
        self._publish_load()

    def _publish_load(self) -> None:
        self.load = self.outstanding_tokens
        self._load_gauge.set(self.load)

    def submit(self, request, now: float) -> None:
        super().submit(request, now)
        self._publish_load()

    def advance(self, limit_time: "float | None" = None,
                max_new_steps: "int | None" = None,
                lockstep: bool = False) -> int:
        advanced = super().advance(limit_time=limit_time,
                                   max_new_steps=max_new_steps,
                                   lockstep=lockstep)
        if advanced:
            self._publish_load()
        return advanced

    def apply_slowdown(self, factor: float) -> None:
        """Inject a straggler: scale every future step cost.

        Stacks multiplicatively if injected twice; already-completed
        steps are untouched (the clock never rewrites history).
        """
        self.slowdown *= factor
        self.engine.set_cost(SlowdownCost(self.engine.cost, factor))

    def evacuate(self) -> "list":
        """Kill this replica; returns its resident requests, reset for
        re-queueing elsewhere.

        Resident means running or waiting: running requests lose their
        KV blocks and must recompute prompt plus generated tokens
        (:meth:`~repro.serving.requests.Request.evict`, the scheduler's
        preemption reset); waiting ones just re-queue.  Tokens already
        streamed stay streamed — ``first_token_time`` and ``generated``
        survive.
        """
        residents = list(self.scheduler.running) + \
            list(self.scheduler.waiting)
        for request in self.scheduler.running:
            self.memory.release(request.request_id)
        for request in residents:
            request.evict()
        self.scheduler.running = []
        self.scheduler.waiting.clear()
        self.state = DEAD
        self._publish_load()
        return residents


class ControlPlaneSimulator:
    """One plan's SLO-driven serving run under dynamic fleet control.

    Replays a :class:`~repro.serving.requests.ServingWorkload` (any
    arrival process) through a fleet of
    :class:`ControlledReplica` engines, with tiered admission, load
    shedding, optional autoscaling, and fault injection.  Fully
    deterministic for a fixed ``(workload, tiers, schedule, seed)``.
    ``engine`` is the replicas' stepping mode, as for
    :class:`~repro.serving.simulator.ServingSimulator` (``"epoch"``,
    the default, or the classic ``"event"`` loop; identical output).
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        workload: ServingWorkload,
        plan: "PlanSource | AttentionPlan | str | None" = None,
        tiers: "tuple[SLOTier, ...]" = DEFAULT_TIERS,
        replicas: int = 2,
        autoscaler: "AutoscalerConfig | None" = None,
        faults: "FailureSchedule | None" = None,
        policy: "str | RouterPolicy" = "least-outstanding",
        #: Base backlog threshold (outstanding tokens per routable
        #: replica) above which the *lowest* tier sheds; tier ``i`` of
        #: ``n`` sheds above ``(n - i) *`` this value, so higher tiers
        #: shed last.  0 disables shedding.
        shed_backlog_tokens: float = 0.0,
        cold_start_s: "float | None" = None,
        tp: int = 1,
        pp: int = 1,
        dtype: DType = DType.FP16,
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
        chunk_tokens: int = 512,
        max_batch: int = 32,
        block_tokens: int = 64,
        reserve_fraction: float = 0.1,
        t: int = 64,
        max_steps: int = 2_000_000,
        engine: str = "epoch",
    ) -> None:
        if engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {engine!r}"
            )
        if replicas < 1:
            raise ServingError(f"need at least one replica, got {replicas}")
        if not tiers:
            raise ServingError("need at least one SLO tier")
        if shed_backlog_tokens < 0:
            raise ServingError(
                f"shed_backlog_tokens must be >= 0, got "
                f"{shed_backlog_tokens}"
            )
        self.model = get_model(model)
        self.gpu = get_gpu(gpu)
        self.plan = resolve_plan(
            AttentionPlan.RECOMPOSED if plan is None else plan,
            model=self.model, gpu=self.gpu, t=t,
        )
        self.workload = workload
        #: The workload's arrays, replayed by every ``run``.
        self._arrays = replay_stream(None, workload,
                                     block_tokens=block_tokens)
        self.tiers = tuple(tiers)
        self.num_replicas = replicas
        self.autoscaler_config = autoscaler
        self.faults = faults if faults is not None else FailureSchedule()
        self.policy_name = (policy.name if isinstance(policy, RouterPolicy)
                            else policy)
        self._policy_arg = policy
        self.shed_backlog_tokens = shed_backlog_tokens
        self.seed = workload.seed
        self.max_steps = max_steps
        self.engine = engine
        self._replica_kwargs = dict(
            dtype=dtype, tp=tp, pp=pp, interconnect=interconnect,
            algorithm=algorithm, chunk_tokens=chunk_tokens,
            max_batch=max_batch, block_tokens=block_tokens,
            reserve_fraction=reserve_fraction, t=t,
        )
        check_softmax_rows(self._arrays, self.model, self.gpu, self.plan,
                           **self._replica_kwargs)
        if autoscaler is not None and autoscaler.cold_start_s is not None:
            cold_start_s = autoscaler.cold_start_s
        self.cold_start_s = (
            cold_start_s if cold_start_s is not None else cold_start_time(
                self.model, self.gpu, dtype=dtype, tp=tp, pp=pp,
                interconnect=interconnect))

    # -- run ------------------------------------------------------------

    def run(self) -> ControlPlanePlanReport:
        """Simulate the stream to completion under fleet control."""
        tracer = current_tracer()
        trace_start = tracer.event_count
        self._lane = tracer.track(f"{self.plan.value}:controlplane")
        shed_counter = tracer.metrics.counter(
            f"{self.plan.value}:gateway.shed")
        self._costs = {}

        arrays = self._arrays
        tier_of = assign_tiers(len(arrays), self.tiers, self.seed)
        self._tier_of = tier_of
        policy = make_policy(self._policy_arg)
        scaler = (Autoscaler(self.autoscaler_config, self.tiers)
                  if self.autoscaler_config is not None else None)
        #: (ts, request_id, ttft_s) per first token, in emission order;
        #: only collected when an autoscaler will consume it.
        self._first_tokens = [] if scaler is not None else None
        victim_rng = np.random.default_rng((self.seed, _VICTIM_SALT))

        # -- fleet state ------------------------------------------------
        #: The serving (active or draining) replicas, in replica-id
        #: order: the event loop's lanes.
        fleet: "list[ControlledReplica]" = [
            self._new_replica(i, tracer, 0.0)
            for i in range(self.num_replicas)
        ]
        next_id = self.num_replicas
        #: Pending boots as sorted [ready_time, replica_id, reason].
        boots: "list[tuple[float, int, str]]" = []
        dead: "list[ControlledReplica]" = []
        timeline: "list[ScalingEvent]" = []
        fault_events = self.faults.events()
        fault_idx = 0
        #: Mutable per-fault records; finalized after the drain.
        fault_log: "list[dict]" = []
        cold_starts = 0
        #: Requests parked while no replica was routable.
        parked: "list" = []
        all_requests: "list" = []
        shed_ids: "set[int]" = set()
        shed_seen = 0

        # -- replica-seconds integral -----------------------------------
        occupancy = {"t": 0.0, "n": len(fleet), "area": 0.0, "peak":
                     len(fleet)}

        def occupy(t: float, delta: int) -> None:
            dt = max(0.0, t - occupancy["t"])
            occupancy["area"] += occupancy["n"] * dt
            occupancy["t"] = max(occupancy["t"], t)
            occupancy["n"] += delta
            occupancy["peak"] = max(occupancy["peak"], occupancy["n"])

        def routable() -> "list[ControlledReplica]":
            return [r for r in fleet if r.state == ACTIVE]

        def backlog_per_replica() -> float:
            lanes = routable()
            if not lanes:
                return float("inf")
            return sum(r.load for r in lanes) / len(lanes)

        def emit(name: str, ts: float, **args) -> None:
            if tracer.enabled:
                tracer.instant(name, "controlplane", ts=ts,
                               pid=self._lane[0], tid=self._lane[1],
                               args=args or None)

        def boot(ts: float, reason: str) -> int:
            nonlocal next_id, cold_starts
            rid = next_id
            next_id += 1
            cold_starts += 1
            ready = ts + self.cold_start_s
            boots.append((ready, rid, reason))
            boots.sort()
            emit("scale-up", ts, replica=rid, ready_at=ready,
                 reason=reason)
            tracer.metrics.counter(
                f"{self.plan.value}:controlplane.scale_ups").inc()
            timeline.append(ScalingEvent(
                ts, "scale-up", rid, len(routable()), reason))
            return rid

        def route(request, now: float) -> None:
            lanes = routable()
            if not lanes:
                parked.append(request)
                return
            # Stateful policies (prefix-affinity homes, round-robin
            # counters) can point past the routable list after the
            # fleet shrinks; wrap rather than crash.
            index = policy.choose(request, lanes) % len(lanes)
            lanes[index].submit(request, now)

        def dispatch(request, now: float) -> None:
            """Gateway intake: tier shedding, then routing."""
            tier_index = int(tier_of[request.request_id])
            if self.shed_backlog_tokens > 0 and routable():
                threshold = (self.shed_backlog_tokens
                             * (len(self.tiers) - tier_index))
                if backlog_per_replica() > threshold:
                    shed_ids.add(request.request_id)
                    shed_counter.inc()
                    emit("shed", now, request_id=request.request_id,
                         tier=self.tiers[tier_index].name)
                    return
            route(request, now)

        # -- the floor the failover path restores -----------------------
        floor = (self.autoscaler_config.min_replicas
                 if self.autoscaler_config is not None
                 else self.num_replicas)

        interval = (self.autoscaler_config.control_interval
                    if self.autoscaler_config is not None else None)
        next_tick = interval if interval is not None else None

        source = arrivals(arrays)
        pending = next(source, None)
        last_event_time = 0.0

        def arrive(now: float) -> None:
            nonlocal pending
            all_requests.append(pending)
            dispatch(pending, now)
            pending = next(source, None)

        def complete_boot(now: float) -> None:
            ready, rid, reason = boots.pop(0)
            replica = self._new_replica(rid, tracer, ready)
            fleet.append(replica)
            occupy(ready, +1)
            emit("boot-complete", ready, replica=rid, reason=reason)
            timeline.append(ScalingEvent(
                ready, "boot-complete", rid, len(routable()), reason))
            for record in fault_log:
                if record.get("replacement_id") == rid:
                    record["replacement_ready"] = ready
            if parked:
                flush, parked[:] = list(parked), []
                for request in flush:
                    route(request, ready)

        def fault(now: float) -> None:
            nonlocal fault_idx
            ftime, fkind, slowdown = fault_events[fault_idx]
            fault_idx += 1
            if not fleet:
                fault_log.append({"kind": fkind, "time": ftime,
                                  "replica_id": -1, "residents": []})
                return
            victim = fleet[int(victim_rng.integers(len(fleet)))]
            if fkind == "straggler":
                victim.apply_slowdown(slowdown)
                emit("straggler", ftime,
                     replica=victim.replica_id, slowdown=slowdown)
                tracer.metrics.counter(
                    f"{self.plan.value}:controlplane.stragglers").inc()
                timeline.append(ScalingEvent(
                    ftime, "straggler", victim.replica_id,
                    len(routable()), f"slowdown={slowdown:.2f}"))
                fault_log.append({"kind": fkind, "time": ftime,
                                  "replica_id": victim.replica_id,
                                  "slowdown": slowdown,
                                  "residents": []})
                return
            residents = victim.evacuate()
            fleet.remove(victim)
            dead.append(victim)
            occupy(ftime, -1)
            emit("replica-fail", ftime, replica=victim.replica_id,
                 requeued=len(residents))
            tracer.metrics.counter(
                f"{self.plan.value}:controlplane.failures").inc()
            tracer.metrics.counter(
                f"{self.plan.value}:controlplane.requeued").inc(
                    len(residents))
            timeline.append(ScalingEvent(
                ftime, "fail", victim.replica_id, len(routable()),
                f"requeued={len(residents)}"))
            record = {"kind": fkind, "time": ftime,
                      "replica_id": victim.replica_id,
                      "residents": residents}
            fault_log.append(record)
            if len(routable()) + len(boots) < floor:
                record["replacement_id"] = boot(ftime, "failover")
            for request in residents:
                route(request, ftime)

        def tick(now: float) -> None:
            nonlocal next_tick, shed_seen
            next_tick += interval
            self._consume_first_tokens(scaler)
            for replica in list(fleet):
                if replica.state == DRAINING and not replica.has_work:
                    replica.state = RETIRED
                    fleet.remove(replica)
                    dead.append(replica)
                    occupy(now, -1)
                    emit("retire", now, replica=replica.replica_id)
                    timeline.append(ScalingEvent(
                        now, "retire", replica.replica_id,
                        len(routable()), "drained"))
            shed_now = len(shed_ids)
            decision = scaler.decide(
                now,
                active=len(routable()),
                booting=len(boots),
                backlog_per_replica=(
                    0.0 if not routable() else backlog_per_replica()),
                shed_delta=shed_now - shed_seen,
            )
            shed_seen = shed_now
            if decision is None:
                return
            if decision.delta > 0:
                for _ in range(decision.delta):
                    boot(now, decision.reason)
                return
            # Scale down: drain the emptiest routable replica (by its
            # published load — the same signal the router balances).
            lanes = routable()
            if len(lanes) <= 1:
                return
            target = min(
                lanes,
                key=lambda r: (r.load, -r.replica_id))
            target.state = DRAINING
            emit("scale-down", now, replica=target.replica_id,
                 reason=decision.reason)
            tracer.metrics.counter(
                f"{self.plan.value}:controlplane.scale_downs").inc()
            timeline.append(ScalingEvent(
                now, "scale-down", target.replica_id,
                len(routable()), decision.reason))

        def next_event():
            """The earliest of the four event kinds; simultaneous ones
            go boot, fault, tick, arrival.  Ticks and faults alone do
            not keep the run going once every replica is idle."""
            if (pending is None and not parked and not boots
                    and not any(r.has_work for r in fleet)):
                return None
            candidates = []
            if boots:
                candidates.append((boots[0][0], 0, complete_boot))
            if fault_idx < len(fault_events):
                candidates.append((fault_events[fault_idx][0], 1, fault))
            if next_tick is not None:
                candidates.append((next_tick, 2, tick))
            if pending is not None:
                candidates.append((pending.arrival_time, 3, arrive))
            if not candidates:
                return None
            etime, _, handle = min(candidates)

            def fire() -> None:
                nonlocal last_event_time
                last_event_time = max(last_event_time, etime)
                handle(etime)
            return etime, fire

        run_loop(fleet, next_event, max_steps=self.max_steps,
                 what="control-plane simulation", lockstep=tracer.enabled)

        # -- drain accounting -------------------------------------------
        clocks = [r.clock for r in fleet] + [r.clock for r in dead]
        makespan = max([last_event_time] + clocks) if clocks else 0.0
        occupy(makespan, 0)
        for replica in fleet:
            replica.state = RETIRED

        return self._build_report(
            tracer=tracer, trace_start=trace_start,
            all_requests=all_requests, shed_ids=shed_ids,
            timeline=timeline, fault_log=fault_log,
            occupancy=occupancy, cold_starts=cold_starts,
            makespan=makespan, emit=emit,
        )

    # -- helpers --------------------------------------------------------

    def _new_replica(self, replica_id: int, tracer,
                     created_at: float) -> ControlledReplica:
        return ControlledReplica(
            replica_id, self.model, self.gpu, plan=self.plan,
            tracer=tracer, engine=self.engine, retain_requests=False,
            created_at=created_at, costs=self._costs,
            first_tokens=self._first_tokens, **self._replica_kwargs,
        )

    def _consume_first_tokens(self, scaler: Autoscaler) -> None:
        """Drain new first-token observations into the scaling window.

        The controller's attainment signal: the schedulers append one
        ``(ts, request_id, ttft_s)`` per first token, in the order the
        ``first-token`` instants are emitted, and each tick consumes
        what accumulated since the last.
        """
        for ts, rid, ttft in self._first_tokens:
            tier_index = int(self._tier_of[rid])
            scaler.observe_first_token(
                ts, tier_index, ttft <= self.tiers[tier_index].ttft_target)
        self._first_tokens.clear()

    def _build_report(self, *, tracer, trace_start, all_requests,
                      shed_ids, timeline, fault_log, occupancy,
                      cold_starts, makespan, emit) -> ControlPlanePlanReport:
        tier_of = self._tier_of
        finished = [r for r in all_requests
                    if r.request_id not in shed_ids
                    and r.finish_time is not None]
        rejected = sum(1 for r in all_requests
                       if r.request_id not in shed_ids
                       and r.status == RequestStatus.REJECTED)
        in_flight = (len(all_requests) - len(finished) - len(shed_ids)
                     - rejected)

        # -- finalize fault records -------------------------------------
        faults = []
        for record in fault_log:
            residents = record["residents"]
            done = [r for r in residents if r.finish_time is not None]
            lost = len(residents) - len(done)
            if record["kind"] == "straggler":
                recovery = 0.0
            elif done:
                recovery = max(r.finish_time for r in done) \
                    - record["time"]
            elif "replacement_ready" in record:
                recovery = record["replacement_ready"] - record["time"]
            else:
                recovery = 0.0
            if record["kind"] == "death" and record["replica_id"] >= 0:
                emit("replica-recover", record["time"] + recovery,
                     replica=record["replica_id"],
                     recovery_s=recovery, lost=lost)
            faults.append(FaultRecord(
                kind=record["kind"], time=record["time"],
                replica_id=record["replica_id"],
                requeued=len(residents), lost=lost,
                recovery_s=recovery,
                slowdown=record.get("slowdown", 0.0),
            ))

        # -- per-tier accounting ----------------------------------------
        tiers = []
        for index, tier in enumerate(self.tiers):
            ids = [r for r in all_requests
                   if int(tier_of[r.request_id]) == index]
            tier_done = [r for r in ids
                         if r.request_id not in shed_ids
                         and r.finish_time is not None]
            tier_shed = sum(1 for r in ids if r.request_id in shed_ids)
            tier_rejected = sum(
                1 for r in ids if r.request_id not in shed_ids
                and r.status == RequestStatus.REJECTED)
            attained = sum(1 for r in tier_done
                           if tier.meets(ttft=r.ttft, tpot=r.tpot))
            tiers.append(TierReport(
                name=tier.name, share=tier.share,
                ttft_target=tier.ttft_target,
                tpot_target=tier.tpot_target,
                attainment_target=tier.attainment_target,
                arrived=len(ids), finished=len(tier_done),
                shed=tier_shed, rejected=tier_rejected,
                attained_requests=attained,
                ttft=LatencyStats.from_values(
                    [r.ttft for r in tier_done]),
                e2e=LatencyStats.from_values(
                    [r.e2e_latency for r in tier_done]),
            ))

        generated = sum(r.generated for r in finished)
        span = makespan if makespan > 0 else 1.0
        trace_summary = None
        if tracer.enabled:
            tracer.set_clock(makespan)
            trace_summary = tracer.summary(since=trace_start,
                                           include_metrics=False)
        return ControlPlanePlanReport(
            plan=self.plan.value,
            policy=self.policy_name,
            arrived=len(all_requests),
            finished=len(finished),
            shed=len(shed_ids),
            rejected=rejected,
            in_flight=in_flight,
            makespan=makespan,
            generated_tokens=generated,
            throughput_tokens_per_s=generated / span,
            ttft=LatencyStats.from_values([r.ttft for r in finished]),
            tpot=LatencyStats.from_values([r.tpot for r in finished]),
            e2e=LatencyStats.from_values(
                [r.e2e_latency for r in finished]),
            mean_replicas=occupancy["area"] / span,
            peak_replicas=occupancy["peak"],
            replica_seconds=occupancy["area"],
            cold_starts=cold_starts,
            cold_start_s=self.cold_start_s,
            tiers=tuple(tiers),
            timeline=tuple(timeline),
            faults=tuple(faults),
            autoscaler=(self.autoscaler_config.describe()
                        if self.autoscaler_config is not None else None),
            trace_summary=trace_summary,
        )


def simulate_controlplane(
    model: "ModelConfig | str",
    gpu: "GPUSpec | str",
    workload: ServingWorkload,
    *,
    plans: "tuple[PlanSource | AttentionPlan | str, ...]" = ("sdf",),
    tiers: "tuple[SLOTier, ...]" = DEFAULT_TIERS,
    replicas: int = 2,
    autoscaler: "AutoscalerConfig | None" = None,
    faults: "FailureSchedule | None" = None,
    policy: str = "least-outstanding",
    **kwargs,
) -> ControlPlaneReport:
    """Replay ``workload`` through the control plane under several plans.

    Every plan replays the same request stream, tier assignment, and
    failure schedule, so comparisons isolate the attention plan.
    Extra keyword arguments reach :class:`ControlPlaneSimulator`
    (``shed_backlog_tokens``, ``cold_start_s``, ``tp``, ``pp``, ...).
    """
    model = get_model(model)
    gpu = get_gpu(gpu)
    reports = {}
    for plan in plans:
        sim = ControlPlaneSimulator(
            model, gpu, workload=workload, plan=PlanSource.of(plan),
            tiers=tiers,
            replicas=replicas, autoscaler=autoscaler, faults=faults,
            policy=policy, **kwargs,
        )
        reports[sim.plan.value] = sim.run()
    tracer = current_tracer()
    return ControlPlaneReport(
        model=model.name,
        gpu=gpu.name,
        seed=workload.seed,
        duration=workload.duration,
        arrival=workload.arrival.describe(),
        replicas=replicas,
        policy=policy if isinstance(policy, str) else policy.name,
        plans=reports,
        faults=faults.describe() if faults is not None else None,
        trace_summary=tracer.summary() if tracer.enabled else None,
    )


def verification_oracles():
    """Fuzz oracle: request conservation under random replica deaths.

    For any seeded workload and random death schedule, every arrived
    request must end exactly one way — finished, shed, or rejected —
    with nothing in flight after the drain, and no re-queued request
    may be lost.  The oracle replays a small MMPP scenario with 1–3
    deaths and checks the identity the control plane reports.  It
    also replays the scenario traced, once on the classic per-step
    loop and once on the epoch fast path: both must emit the same
    events and report what the untraced run did
    (:func:`repro.verify.equivalence.check_equivalence`).

    Each run simulates a full (small) control-plane scenario, so the
    oracle gates itself to a deterministic slice of the serving
    family's cases rather than slowing every fuzz invocation down.
    """
    from repro.common.dtypes import DType as _DType
    from repro.serving.arrivals import MMPPArrivals
    from repro.verify.contracts import SERVING_COST
    from repro.verify.equivalence import Cell, check_equivalence
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec

    def run_conservation(case):
        rng = np.random.default_rng(case.params["case_seed"])
        duration = float(rng.uniform(2.0, 4.0))
        rate = float(rng.uniform(1.0, 3.0))
        seed = int(rng.integers(0, 2**31))
        n_deaths = int(rng.integers(1, 4))
        schedule = FailureSchedule.random(
            duration=duration, seed=seed, deaths=n_deaths)
        workload = ServingWorkload(
            rate=rate, duration=duration, seed=seed,
            arrival=MMPPArrivals(rate=rate, burst_rate=3.0 * rate,
                                 base_dwell=2.0, burst_dwell=1.0),
        )
        kwargs = dict(
            workload=workload, plan="sdf", replicas=2, faults=schedule,
            shed_backlog_tokens=float(rng.uniform(2000.0, 20000.0)),
            cold_start_s=float(rng.uniform(0.01, 0.5)),
        )
        reports = []

        def simulate(cell):
            reports.append(ControlPlaneSimulator(
                "bert-large", "a100", engine=cell.engine, **kwargs).run())
            return reports[-1]

        violations = check_equivalence(simulate, (
            Cell("epoch"), Cell("event", traced=True),
            Cell("epoch", traced=True)))
        report = reports[0]
        accounted = (report.finished + report.shed + report.rejected
                     + report.in_flight)
        if report.in_flight != 0:
            violations.append(Violation(
                "drained",
                f"{report.in_flight} requests in flight after drain",
            ))
        lost = sum(f.lost for f in report.faults)
        if lost:
            violations.append(Violation(
                "no_lost_requests",
                f"{lost} re-queued requests never finished",
            ))
        return {
            "actual": np.float64(accounted),
            "expected": np.float64(report.arrived),
            "violations": violations,
        }

    yield OracleSpec(
        name="controlplane.failure_conservation",
        family="serving",
        run=run_conservation,
        contracts={_DType.FP32: SERVING_COST,
                   _DType.FP16: SERVING_COST},
        description=(
            "arrived = finished + shed + rejected (+ 0 in flight) "
            "under random replica-death schedules; traced classic and "
            "traced epoch runs emit identical events and report like "
            "the untraced run"
        ),
        applies=lambda case: case.params["case_seed"] % 16 == 0,
    )
