"""Tests for the SLO-driven control plane.

Covers the arrival-process generators (legacy byte-identity,
determinism, mean-rate calibration), SLO tiers and assignment, the
cold-start model, fault schedules and the straggler cost wrapper, the
autoscaler policy in isolation, and the full control loop: determinism,
request conservation under failures, attainment monotone in the
replica budget, shedding behavior, the autoscaler-vs-static headline
scenario, the epoch fast path against the classic per-step path (both
traced, they must emit the same events and report the same, and an
untraced run must report exactly what a traced one does), the exact
step budget, and the report/CLI schema contract.
"""

import json

import numpy as np
import pytest

from repro.cluster import POLICIES
from repro.common.errors import ServingError
from repro.controlplane import (
    Autoscaler,
    AutoscalerConfig,
    ControlPlaneSimulator,
    DEFAULT_TIERS,
    FailureSchedule,
    SLOTier,
    SlowdownCost,
    assign_tiers,
    cold_start_time,
    parse_tiers,
    simulate_controlplane,
)
from repro.gpu import simcache
from repro.gpu.interconnect import NVLINK3, PCIE4
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.obs import Tracer, chrome_events, tracing
from repro.serving import (
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    ServingWorkload,
    make_arrival,
)


# --------------------------------------------------------------------
# Arrival processes
# --------------------------------------------------------------------

class TestArrivalProcesses:
    def test_default_workload_unchanged_by_refactor(self):
        """The factored-out Poisson process reproduces the legacy
        arrival stream bit for bit (the compatibility contract that
        keeps every historical seeded report byte-identical)."""
        for seed, rate, duration in ((0, 8.0, 10.0), (3, 2.5, 30.0)):
            legacy_rng = np.random.default_rng((seed, 0xA221))
            gaps = legacy_rng.exponential(
                1.0 / rate, size=max(16, int(rate * duration * 2) + 16))
            times = np.cumsum(gaps)
            while times[-1] < duration:
                more = legacy_rng.exponential(1.0 / rate,
                                              size=len(times))
                times = np.concatenate(
                    [times, times[-1] + np.cumsum(more)])
            legacy = times[times < duration]

            arrays = ServingWorkload(
                rate=rate, duration=duration, seed=seed).request_arrays()
            np.testing.assert_array_equal(arrays.arrival_time, legacy)

    def test_explicit_poisson_matches_default(self):
        base = ServingWorkload(rate=4.0, duration=8.0, seed=1)
        explicit = ServingWorkload(
            rate=4.0, duration=8.0, seed=1,
            arrival=PoissonArrivals(rate=4.0))
        np.testing.assert_array_equal(
            base.request_arrays().arrival_time,
            explicit.request_arrays().arrival_time)

    def test_mmpp_deterministic_and_bounded(self):
        arr = MMPPArrivals(rate=2.0, burst_rate=10.0, base_dwell=5.0,
                           burst_dwell=2.0)
        a = arr.sample(40.0, seed=9)
        b = arr.sample(40.0, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.all(np.diff(a) >= 0)
        assert a.min() >= 0.0 and a.max() < 40.0
        assert not np.array_equal(a, arr.sample(40.0, seed=10))

    def test_mmpp_mean_rate_empirical(self):
        arr = MMPPArrivals(rate=2.0, burst_rate=8.0, base_dwell=6.0,
                           burst_dwell=3.0)
        duration = 4000.0
        n = len(arr.sample(duration, seed=4))
        assert n / duration == pytest.approx(arr.mean_rate(), rel=0.1)

    def test_mmpp_burstier_than_poisson(self):
        """Index of dispersion of per-second counts must exceed the
        Poisson value of 1 — the whole point of the MMPP model."""
        arr = MMPPArrivals(rate=2.0, burst_rate=16.0, base_dwell=8.0,
                           burst_dwell=4.0)
        times = arr.sample(2000.0, seed=2)
        counts = np.bincount(times.astype(int), minlength=2000)
        assert counts.var() / counts.mean() > 2.0

    def test_mmpp_zero_rate_base_state_is_on_off(self):
        """A zero base rate is the classic ON/OFF process: every
        arrival must fall inside a burst dwell, and the empirical rate
        must match the burst-weighted mean."""
        arr = MMPPArrivals(rate=0.0, burst_rate=12.0, base_dwell=6.0,
                           burst_dwell=3.0)
        duration = 3000.0
        times = arr.sample(duration, seed=11)
        assert times.size > 0
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() < duration
        n = len(times)
        assert n / duration == pytest.approx(arr.mean_rate(), rel=0.1)

    def test_mmpp_zero_rate_burst_state_allowed(self):
        arr = MMPPArrivals(rate=5.0, burst_rate=0.0, base_dwell=4.0,
                           burst_dwell=2.0)
        times = arr.sample(600.0, seed=3)
        assert len(times) / 600.0 == pytest.approx(arr.mean_rate(),
                                                   rel=0.1)

    def test_mmpp_both_rates_zero_rejected(self):
        with pytest.raises(ServingError):
            MMPPArrivals(rate=0.0, burst_rate=0.0)

    def test_mmpp_single_state_degenerates_to_poisson(self):
        """With equal rates the modulation is unobservable; the stream
        must be byte-identical to the stationary Poisson process, not
        merely statistically equivalent."""
        for rate, duration, seed in ((4.0, 25.0, 0), (1.5, 60.0, 7)):
            degenerate = MMPPArrivals(rate=rate, burst_rate=rate)
            poisson = PoissonArrivals(rate=rate)
            np.testing.assert_array_equal(
                degenerate.sample(duration, seed),
                poisson.sample(duration, seed))

    def test_diurnal_period_shorter_than_one_tick(self):
        """A period far below one second (many cycles per count tick)
        must still sample cleanly and average out to the mean rate."""
        arr = DiurnalArrivals(rate=20.0, period=0.01)
        duration = 200.0
        times = arr.sample(duration, seed=5)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 0.0 and times.max() < duration
        assert len(times) / duration == pytest.approx(arr.mean_rate(),
                                                      rel=0.1)

    def test_diurnal_follows_day_curve(self):
        arr = DiurnalArrivals(rate=5.0, period=240.0)
        times = arr.sample(240.0, seed=6)
        np.testing.assert_array_equal(times, arr.sample(240.0, seed=6))
        # The trough hours (slots 2-4) must be much quieter than the
        # evening peak (slots 18-20).
        slot = (times / 10.0).astype(int)
        trough = np.isin(slot, (2, 3, 4)).sum()
        peak = np.isin(slot, (18, 19, 20)).sum()
        assert peak > 3 * max(trough, 1)

    def test_make_arrival_kinds_and_defaults(self):
        p = make_arrival("poisson", rate=3.0)
        assert isinstance(p, PoissonArrivals)
        m = make_arrival("mmpp", rate=3.0)
        assert isinstance(m, MMPPArrivals)
        assert m.burst_rate == pytest.approx(12.0)  # 4x default
        d = make_arrival("diurnal", rate=3.0, duration=60.0)
        assert isinstance(d, DiurnalArrivals)
        assert d.period == pytest.approx(60.0)
        with pytest.raises(ServingError):
            make_arrival("weibull", rate=3.0)

    def test_workloads_echo_arrival_in_reports(self):
        from repro.serving import simulate_serving

        arr = MMPPArrivals(rate=2.0, burst_rate=6.0)
        report = simulate_serving(
            "bert-large", "a100",
            ServingWorkload(rate=2.0, duration=3.0, seed=0, arrival=arr),
            plans=("sdf",))
        doc = report.to_json()
        assert doc["arrival"]["kind"] == "mmpp"
        plain = simulate_serving(
            "bert-large", "a100",
            ServingWorkload(rate=2.0, duration=3.0, seed=0),
            plans=("sdf",))
        assert "arrival" not in plain.to_json()


# --------------------------------------------------------------------
# Tiers, faults, cold start
# --------------------------------------------------------------------

class TestTiers:
    def test_parse_tiers_roundtrip(self):
        tiers = parse_tiers(
            "gold:0.2:0.3:0.05:0.999,bronze:0.8:2.0")
        assert [t.name for t in tiers] == ["gold", "bronze"]
        assert tiers[0].tpot_target == pytest.approx(0.05)
        assert tiers[0].attainment_target == pytest.approx(0.999)
        assert tiers[1].attainment_target == pytest.approx(0.99)

    def test_parse_tiers_rejects_garbage(self):
        from repro.common.errors import ConfigError

        for spec in ("", "a", "a:0:1", "a:0.5:1,a:0.5:1"):
            with pytest.raises((ServingError, ConfigError)):
                parse_tiers(spec)

    def test_assignment_deterministic_and_proportional(self):
        tiers = (SLOTier("a", share=0.75, ttft_target=1.0),
                 SLOTier("b", share=0.25, ttft_target=4.0))
        first = assign_tiers(4000, tiers, seed=3)
        np.testing.assert_array_equal(first,
                                      assign_tiers(4000, tiers, seed=3))
        share_a = float(np.mean(first == 0))
        assert share_a == pytest.approx(0.75, abs=0.05)

    def test_tier_meets_checks_both_targets(self):
        tier = SLOTier("t", share=1.0, ttft_target=0.5, tpot_target=0.1)
        assert tier.meets(ttft=0.4, tpot=0.05)
        assert not tier.meets(ttft=0.6, tpot=0.05)
        assert not tier.meets(ttft=0.4, tpot=0.2)


class TestFaultPrimitives:
    def test_random_schedule_deterministic_and_windowed(self):
        a = FailureSchedule.random(duration=20.0, seed=5, deaths=3,
                                   stragglers=2)
        b = FailureSchedule.random(duration=20.0, seed=5, deaths=3,
                                   stragglers=2)
        assert a == b
        for t in a.deaths:
            assert 2.0 <= t <= 18.0
        for t, slowdown in a.stragglers:
            assert 2.0 <= t <= 18.0
            assert slowdown > 1.0
        assert len(a.events()) == 5

    def test_schedule_validation(self):
        with pytest.raises(ServingError):
            FailureSchedule(deaths=(-1.0,))
        with pytest.raises(ServingError):
            FailureSchedule(stragglers=((1.0, 0.5),))

    def test_slowdown_cost_scales_both_components(self):
        from repro.cluster.costmodel import ShardedStepCostModel

        cost = ShardedStepCostModel(
            get_model("bert-large"), get_gpu("a100"), plan="sdf",
            tp=2, interconnect=NVLINK3)
        slow = SlowdownCost(cost, 2.0)
        base_total, base_comm = cost.step_cost(
            prefill=((128, 128),), decode_kv=[256, 512])
        slow_total, slow_comm = slow.step_cost(
            prefill=((128, 128),), decode_kv=[256, 512])
        assert slow_total == pytest.approx(2.0 * base_total)
        assert slow_comm == pytest.approx(2.0 * base_comm)
        assert slow.kv_bucket == cost.kv_bucket
        stacked = SlowdownCost(slow, 1.5)
        assert stacked.decode_step_cost([64])[0] == pytest.approx(
            3.0 * cost.decode_step_cost([64])[0])


class TestColdStart:
    def test_cold_start_positive_and_hardware_derived(self):
        model, gpu = get_model("bert-large"), get_gpu("a100")
        t_nvlink = cold_start_time(model, gpu, interconnect=NVLINK3)
        t_pcie = cold_start_time(model, gpu, interconnect=PCIE4)
        assert 0.0 < t_nvlink < t_pcie
        big = get_model("gpt-neo-1.3b")
        assert (cold_start_time(big, gpu, interconnect=PCIE4)
                > t_pcie)

    def test_sharding_splits_the_weight_load(self):
        model, gpu = get_model("gpt-neo-1.3b"), get_gpu("a100")
        whole = cold_start_time(model, gpu, interconnect=PCIE4)
        sharded = cold_start_time(model, gpu, tp=4, interconnect=PCIE4)
        # The weight-stream phase shrinks 4x; KV-pool init grows a bit
        # (more non-weight HBM to touch), so just require a real win.
        assert sharded < whole


# --------------------------------------------------------------------
# Autoscaler policy in isolation
# --------------------------------------------------------------------

class TestAutoscalerPolicy:
    def _scaler(self, **overrides):
        params = dict(
            min_replicas=1, max_replicas=4, control_interval=0.25,
            window=2.0, min_samples=3, high_watermark=1000.0,
            low_watermark=100.0, up_cooldown=0.25, down_cooldown=1.0)
        params.update(overrides)
        return Autoscaler(AutoscalerConfig(**params), DEFAULT_TIERS)

    def test_scales_up_on_slo_breach(self):
        scaler = self._scaler()
        for i in range(4):
            scaler.observe_first_token(0.1 * i, 0, ok=False)
        decision = scaler.decide(1.0, active=2, booting=0,
                                 backlog_per_replica=0.0, shed_delta=0)
        assert decision is not None and decision.delta > 0
        assert "slo-breach" in decision.reason

    def test_scales_up_on_backlog_and_respects_ceiling(self):
        scaler = self._scaler()
        decision = scaler.decide(1.0, active=2, booting=0,
                                 backlog_per_replica=5000.0,
                                 shed_delta=0)
        assert decision is not None and decision.reason == "backlog"
        at_max = scaler.decide(2.0, active=4, booting=0,
                               backlog_per_replica=5000.0, shed_delta=0)
        assert at_max is None

    def test_up_cooldown_suppresses_thrash(self):
        scaler = self._scaler()
        first = scaler.decide(1.0, active=1, booting=1,
                              backlog_per_replica=5000.0, shed_delta=0)
        assert first is not None
        again = scaler.decide(1.1, active=1, booting=2,
                              backlog_per_replica=5000.0, shed_delta=0)
        assert again is None

    def test_scales_down_only_when_quiet_and_attaining(self):
        scaler = self._scaler()
        for i in range(4):
            scaler.observe_first_token(1.8 + 0.05 * i, 0, ok=True)
        down = scaler.decide(2.0, active=3, booting=0,
                             backlog_per_replica=10.0, shed_delta=0)
        assert down is not None and down.delta == -1
        # While booting, never drain.
        hold = scaler.decide(4.0, active=3, booting=1,
                             backlog_per_replica=10.0, shed_delta=0)
        assert hold is None

    def test_below_min_boots_unconditionally(self):
        scaler = self._scaler(min_replicas=2)
        decision = scaler.decide(0.5, active=1, booting=0,
                                 backlog_per_replica=0.0, shed_delta=0)
        assert decision is not None and decision.delta == 1
        assert decision.reason == "below-min"


# --------------------------------------------------------------------
# The control loop
# --------------------------------------------------------------------

def _run(seed=23, *, replicas=2, autoscale=False, faults=None,
         shed=0.0, rate=2.0, burst=14.0, duration=18.0, cold=0.15,
         tiers=DEFAULT_TIERS, max_replicas=8):
    arrival = MMPPArrivals(rate=rate, burst_rate=burst, base_dwell=6.0,
                           burst_dwell=3.0)
    config = None
    if autoscale:
        config = AutoscalerConfig(
            min_replicas=replicas, max_replicas=max_replicas,
            control_interval=0.25, cold_start_s=cold)
    report = simulate_controlplane(
        "bert-large", "a100",
        ServingWorkload(rate=rate, duration=duration, seed=seed,
                        arrival=arrival),
        plans=("sdf",), replicas=replicas,
        autoscaler=config, faults=faults, tiers=tiers,
        shed_backlog_tokens=shed, cold_start_s=cold)
    return report.plans["sdf"]


class TestControlLoop:
    def test_deterministic(self):
        faults = FailureSchedule(deaths=(6.0,), stragglers=((9.0, 2.0),))
        a = _run(seed=5, duration=12.0, autoscale=True, faults=faults)
        b = _run(seed=5, duration=12.0, autoscale=True, faults=faults)
        assert a.to_dict() == b.to_dict()

    def test_replicas_retain_no_requests(self, built):
        """The controller reports from its own request list, so its
        replicas (initial and failover alike) keep none."""
        from repro.controlplane.controller import ControlledReplica

        replicas = built(ControlledReplica)
        plan = _run(seed=23, duration=6.0, replicas=2,
                    faults=FailureSchedule(deaths=(3.0,)))
        assert plan.finished > 0 and len(replicas) == 3
        assert [r.requests for r in replicas] == [[], [], []]

    def test_conservation_without_faults(self):
        plan = _run(seed=3, duration=10.0)
        assert plan.conservation_ok
        assert plan.arrived == plan.finished
        assert plan.shed == 0 and plan.rejected == 0

    def test_conservation_under_failures(self):
        """The fuzz oracle's identity, pinned on explicit schedules."""
        for seed in (1, 2):
            schedule = FailureSchedule.random(
                duration=12.0, seed=seed, deaths=2)
            plan = _run(seed=seed, duration=12.0, faults=schedule,
                        replicas=3)
            assert plan.conservation_ok
            assert plan.in_flight == 0
            assert sum(f.lost for f in plan.faults) == 0
            assert (plan.arrived
                    == plan.finished + plan.shed + plan.rejected)

    def test_replica_death_recovers_with_zero_lost(self):
        """ISSUE acceptance: a replica death mid-decode re-queues its
        residents, a replacement boots, and nothing is lost."""
        plan = _run(seed=23, duration=14.0, faults=FailureSchedule(
            deaths=(7.0,)), replicas=2)
        assert plan.conservation_ok
        (death,) = plan.faults
        assert death.kind == "death"
        assert death.requeued > 0
        assert death.lost == 0
        assert death.recovery_s > 0.0
        actions = [e.action for e in plan.timeline]
        assert "fail" in actions
        # Failover keeps the fleet at its static floor.
        assert "scale-up" in actions and "boot-complete" in actions
        assert plan.cold_starts >= 1

    def test_straggler_slows_but_conserves(self):
        quick = _run(seed=9, duration=10.0)
        slowed = _run(seed=9, duration=10.0, faults=FailureSchedule(
            stragglers=((4.0, 3.0),)))
        assert slowed.conservation_ok
        kinds = [f.kind for f in slowed.faults]
        assert kinds == ["straggler"]
        assert slowed.faults[0].slowdown == pytest.approx(3.0)
        assert slowed.e2e.p99 > quick.e2e.p99

    def test_attainment_monotone_in_replica_budget(self):
        """ISSUE acceptance: more replicas never hurt the SLO tier."""
        attainments = [
            _run(seed=23, replicas=n).tier("interactive").attainment
            for n in (1, 2, 4)
        ]
        assert attainments == sorted(attainments)
        assert attainments[-1] >= 0.99

    def test_autoscaler_beats_static_at_same_mean_capacity(self):
        """ISSUE acceptance: on a bursty MMPP stream the autoscaler
        holds the >=99% interactive tier while a static fleet of the
        same (rounded) mean replica count misses it."""
        auto = _run(seed=23, autoscale=True)
        tier = auto.tier("interactive")
        assert tier.attainment >= 0.99
        assert tier.attained

        static_n = max(1, round(auto.mean_replicas))
        static = _run(seed=23, replicas=static_n)
        static_tier = static.tier("interactive")
        assert static_tier.attainment < 0.99
        assert not static_tier.attained
        # The comparison is fair: the autoscaler did not just buy more
        # hardware-time than the static fleet it beat.
        assert auto.mean_replicas <= static_n + 0.5

    def test_shed_rate_zero_with_ample_capacity(self):
        """ISSUE acceptance: the shedder never fires when the fleet
        has headroom."""
        plan = _run(seed=7, replicas=4, shed=40_000.0, burst=4.0)
        assert plan.shed == 0
        assert plan.shed_rate == 0.0

    def test_shedding_prefers_low_priority_tier(self):
        plan = _run(seed=23, replicas=1, shed=900.0, burst=20.0,
                    duration=12.0)
        assert plan.conservation_ok
        assert plan.shed > 0
        batch = plan.tier("batch")
        interactive = plan.tier("interactive")
        assert batch.shed >= interactive.shed
        # Shed requests count against the tier's attainment.
        assert (batch.attained_requests
                <= batch.arrived - batch.shed)

    def test_mean_replicas_integral(self):
        plan = _run(seed=3, duration=8.0, replicas=3)
        assert plan.peak_replicas >= 3
        assert plan.mean_replicas == pytest.approx(
            plan.replica_seconds / plan.makespan)

    def test_controller_reads_obs_signals(self):
        """The controller's signals are plain run state, but a traced
        run still publishes them: first-token instants, the replicas'
        backlog gauges and the scheduler counters all reach the ambient
        tracer."""
        tracer = Tracer()
        arrival = MMPPArrivals(rate=2.0, burst_rate=10.0,
                               base_dwell=4.0, burst_dwell=2.0)
        with tracing(tracer):
            simulate_controlplane(
                "bert-large", "a100",
                ServingWorkload(rate=2.0, duration=6.0, seed=4,
                                arrival=arrival),
                plans=("sdf",), replicas=2,
                autoscaler=AutoscalerConfig(min_replicas=2,
                                            max_replicas=4,
                                            cold_start_s=0.1),
                cold_start_s=0.1)
        names = {e.name for e in tracer.events if e.ph == "i"}
        assert "first-token" in names
        snapshot = tracer.metrics.snapshot()
        gauges = snapshot.get("gauges", snapshot)
        assert any("outstanding_tokens" in k for k in gauges)
        counters = snapshot.get("counters", snapshot)
        assert any("admitted" in k for k in counters)


# --------------------------------------------------------------------
# Epoch fast path against the classic per-step path
# --------------------------------------------------------------------

_FAULT_KINDS = {
    "death": FailureSchedule(deaths=(1.5,)),
    "straggler": FailureSchedule(stragglers=((1.0, 2.5),)),
    "both": FailureSchedule(deaths=(2.0,), stragglers=((1.0, 2.5),)),
}


def _small_sim(*, autoscale=True, faults="both", shed=False,
               policy="least-outstanding", max_steps=2_000_000,
               engine="epoch"):
    """A 4 s MMPP burst that scales, sheds and fails over."""
    workload = ServingWorkload(
        rate=2.0, duration=4.0, seed=11, prefix_groups=3,
        arrival=MMPPArrivals(rate=2.0, burst_rate=12.0, base_dwell=2.0,
                             burst_dwell=1.0))
    config = (AutoscalerConfig(min_replicas=2, max_replicas=4,
                               cold_start_s=0.1) if autoscale else None)
    return ControlPlaneSimulator(
        "bert-large", "a100", workload=workload, plan="sdf", replicas=2,
        policy=policy, autoscaler=config, faults=_FAULT_KINDS[faults],
        shed_backlog_tokens=1500.0 if shed else 0.0, cold_start_s=0.1,
        max_steps=max_steps, engine=engine)


def _report_bytes(report) -> str:
    doc = report.to_dict()
    doc.pop("trace_summary", None)
    return json.dumps(doc, sort_keys=True)


class TestFastPathEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @pytest.mark.parametrize("shed", (False, True),
                             ids=("no-shed", "shed"))
    @pytest.mark.parametrize("faults", sorted(_FAULT_KINDS))
    @pytest.mark.parametrize("autoscale", (False, True),
                             ids=("static", "autoscale"))
    def test_untraced_epoch_run_matches_traced_classic_run(
            self, engines, autoscale, faults, shed, policy):
        kwargs = dict(autoscale=autoscale, faults=faults, shed=shed,
                      policy=policy)
        untraced = _small_sim(**kwargs).run()
        untraced_steps = sum(e.epoch_steps for e in engines)
        runs = {}
        for engine in ("event", "epoch"):
            engines.clear()
            simcache.invalidate()
            with tracing(Tracer()) as tracer:
                report = _small_sim(engine=engine, **kwargs).run()
            assert report.trace_summary is not None
            runs[engine] = (_report_bytes(report), chrome_events(tracer),
                            sum(e.epoch_steps for e in engines))
        simcache.invalidate()
        # The untraced run (no lockstep, so its own epoch boundaries)
        # reports exactly what the traced classic run does.
        assert untraced.trace_summary is None
        assert untraced_steps > 0
        assert _report_bytes(untraced) == runs["event"][0]
        # Both traced runs agree event for event, and only the epoch
        # one takes epochs, so the comparison really spans both paths.
        assert runs["event"][2] == 0 and runs["epoch"][2] > 0
        assert runs["event"][:2] == runs["epoch"][:2]

    def test_first_token_feed_follows_instant_order(self, monkeypatch):
        """The autoscaler sees an untraced run's first tokens in the
        order a traced run emits its ``first-token`` instants (its
        window pops from the left, so order is part of the signal)."""
        observed = []
        observe = Autoscaler.observe_first_token

        def record(self, ts, tier_index, ok):
            observed.append((ts, tier_index, ok))
            observe(self, ts, tier_index, ok)

        monkeypatch.setattr(Autoscaler, "observe_first_token", record)
        sim = _small_sim()
        sim.run()
        untraced = list(observed)
        tier_of = assign_tiers(len(sim.workload.request_arrays()),
                               sim.tiers, sim.seed)
        with tracing(Tracer()) as tracer:
            _small_sim().run()
        instants = []
        for event in tracer.events:
            if event.ph == "i" and event.name == "first-token":
                tier = int(tier_of[event.args["request_id"]])
                instants.append((
                    event.ts, tier,
                    event.args["ttft_s"] <= sim.tiers[tier].ttft_target))
        # First tokens after the last controller tick are never
        # consumed, so the feed is a prefix of the instant stream.
        assert len(untraced) > 10
        assert untraced == instants[:len(untraced)]

    def test_one_cost_model_per_run(self, engines):
        from repro.cluster.costmodel import ShardedStepCostModel

        report = _small_sim().run()
        assert report.cold_starts >= 1
        models = []
        for engine in engines:
            cost = engine.cost
            while isinstance(cost, SlowdownCost):
                cost = cost.inner
            models.append(cost)
        assert len(engines) == 2 + report.cold_starts
        assert all(isinstance(m, ShardedStepCostModel) for m in models)
        assert len({id(m) for m in models}) == 1
        # The straggler still slows only its own replica.
        assert sum(isinstance(e.cost, SlowdownCost) for e in engines) == 1

    @pytest.mark.parametrize("traced", (False, True),
                             ids=("untraced", "traced"))
    def test_step_budget_is_exact(self, engines, traced):
        budget = 100  # falls inside a pure-decode epoch
        traces = {}
        for engine in ("event", "epoch") if traced else ("epoch",):
            engines.clear()
            # Cold kernel caches, so both traced runs price alike.
            simcache.invalidate()
            sim = _small_sim(autoscale=False, faults="death",
                             max_steps=budget, engine=engine)
            tracer = Tracer() if traced else None
            with pytest.raises(ServingError,
                               match=f"exceeded {budget} steps"):
                if traced:
                    with tracing(tracer):
                        sim.run()
                else:
                    sim.run()
            # The run stops on the first step past the budget on both
            # paths; an epoch may not overshoot it.
            assert sum(e.steps for e in engines) == budget + 1
            assert (sum(e.epoch_steps for e in engines) > 0) is (
                engine == "epoch")
            if traced:
                traces[engine] = chrome_events(tracer)
        simcache.invalidate()
        if traced:
            assert traces["event"] == traces["epoch"]


# --------------------------------------------------------------------
# Report and schema contract
# --------------------------------------------------------------------

class TestReportContract:
    def test_controlplane_section_schema(self):
        plan = _run(seed=3, duration=6.0, faults=FailureSchedule(
            deaths=(3.0,)))
        doc = plan.to_dict()
        assert doc["schema"] == "repro.result/v1"
        assert doc["kind"] == "controlplane-plan"
        section = doc["controlplane"]
        assert section["schema"] == "repro.controlplane/v1"
        assert section["conservation_ok"] is True
        assert len(section["tiers"]) == len(DEFAULT_TIERS)
        assert section["faults"][0]["lost"] == 0
        json.dumps(doc)  # fully serializable

    def test_full_report_envelope(self):
        arrival = MMPPArrivals(rate=2.0, burst_rate=6.0)
        report = simulate_controlplane(
            "bert-large", "a100",
            ServingWorkload(rate=2.0, duration=4.0, seed=1,
                            arrival=arrival),
            plans=("sdf",), replicas=2, cold_start_s=0.1)
        doc = report.to_dict()
        assert doc["kind"] == "controlplane-report"
        assert doc["seed"] == 1
        assert doc["arrival"]["kind"] == "mmpp"
        assert "sdf" in doc["plans"]
        json.dumps(doc)

    def test_oracle_registered(self):
        from repro.verify.oracles import default_registry

        registry = default_registry(refresh=True)
        assert ("controlplane.failure_conservation"
                in registry.names())
        oracle = registry.get("controlplane.failure_conservation")
        assert oracle.family == "serving"

    def test_conservation_oracle_passes_a_case(self):
        from repro.verify.cases import build_case
        from repro.verify.fuzz import run_case
        from repro.verify.oracles import default_registry

        oracle = default_registry().get(
            "controlplane.failure_conservation")
        case = build_case("serving", {"case_seed": 16, "dtype": "fp32"})
        assert oracle.applicable(case)
        result = run_case(oracle, case)
        assert not result.failed

    def test_rejects_bad_configuration(self):
        workload = ServingWorkload(rate=1.0, duration=2.0, seed=0)
        with pytest.raises(ServingError):
            ControlPlaneSimulator("bert-large", "a100",
                                  workload=workload, replicas=0)
        with pytest.raises(ServingError):
            ControlPlaneSimulator("bert-large", "a100",
                                  workload=workload, tiers=())
        with pytest.raises(ServingError, match="engine"):
            ControlPlaneSimulator("bert-large", "a100",
                                  workload=workload, engine="warp")
        with pytest.raises(ServingError):
            AutoscalerConfig(min_replicas=3, max_replicas=2)
        with pytest.raises(ServingError):
            AutoscalerConfig(high_watermark=10.0, low_watermark=20.0)
