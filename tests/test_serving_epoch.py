"""Equivalence tests for the epoch-batched simulation core.

The epoch engine, the segment-deduplicated step pricing, and the
sharded cluster mode are pure performance work: every path must
produce reports *byte-identical* (as serialized JSON) to the classic
one-step-at-a-time event loop.  These tests pin that contract across
the regimes that exercise different epoch-termination edges — steady
decode, arrival-dense streams, preemption under tight memory, tracing,
streaming aggregation, and worker-count sweeps.
"""

import dataclasses
import json

import pytest

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.models.footprint import weight_bytes
from repro.models.moe import MoEConfig
from repro.serving import (
    Request,
    ServingSimulator,
    ServingWorkload,
    StepCostModel,
)
from repro.obs.metrics import sequential_sum


def tiny_gpu(model_name="bert-large", blocks=24, block_tokens=64,
             reserve_fraction=0.1):
    """An A100 variant small enough to force queuing and preemption."""
    model = get_model(model_name)
    bytes_per_token = 2 * model.num_layers * model.d_model * 2
    pool = blocks * block_tokens * bytes_per_token
    weights = weight_bytes(model, DType.FP16)
    hbm = int((pool + weights) / (1 - reserve_fraction)) + 1
    return dataclasses.replace(get_gpu("a100"), hbm_bytes=hbm)


def serving_doc(gpu="a100", engine="epoch", **kwargs):
    defaults = dict(rate=4.0, duration=8.0, seed=7)
    defaults.update(kwargs)
    workload = ServingWorkload(
        rate=defaults.pop("rate"), duration=defaults.pop("duration"),
        seed=defaults.pop("seed"),
        **{k: defaults.pop(k) for k in ("max_prompt", "mean_output")
           if k in defaults})
    sim = ServingSimulator("bert-large", gpu, plan="sdf",
                           workload=workload, engine=engine, **defaults)
    return json.dumps(sim.run().to_json(), sort_keys=True)


def cluster_doc(engine="epoch", *, prefix_groups=0, **kwargs):
    from repro.cluster import simulate_cluster

    defaults = dict(replicas=3, plans=("baseline", "sdf"))
    defaults.update(kwargs)
    workload = ServingWorkload(rate=6.0, duration=6.0, seed=3,
                               prefix_groups=prefix_groups)
    report = simulate_cluster("bert-large", "a100", workload,
                              engine=engine, **defaults)
    return json.dumps(report.to_dict(), sort_keys=True)


class TestServingEquivalence:
    def test_small_stream_byte_identical(self):
        assert serving_doc(engine="event") == serving_doc(engine="epoch")

    def test_decode_heavy_stream_byte_identical(self):
        # Long outputs, short prompts: the regime where epochs batch
        # hundreds of pure-decode steps.
        kwargs = dict(rate=1.0, duration=30.0, max_prompt=512,
                      mean_output=256)
        assert serving_doc(engine="event", **kwargs) \
            == serving_doc(engine="epoch", **kwargs)

    def test_preemption_byte_identical(self):
        # Tight memory forces evict-and-recompute; the epoch fast path
        # must hand exactly those steps back to the classic loop.
        gpu = tiny_gpu(blocks=48, reserve_fraction=0.0)
        kwargs = dict(rate=8.0, duration=10.0, seed=3, mean_output=128,
                      max_batch=4, reserve_fraction=0.0)
        event = serving_doc(gpu=gpu, engine="event", **kwargs)
        epoch = serving_doc(gpu=gpu, engine="epoch", **kwargs)
        assert event == epoch
        assert json.loads(event)["preemption_events"] > 0

    def test_max_epoch_sweep_byte_identical(self):
        # Every epoch cap — including degenerate one-step epochs —
        # reproduces the event loop exactly.
        reference = serving_doc(engine="event")
        for max_epoch in (1, 2, 3, 4096):
            assert serving_doc(engine="epoch", max_epoch=max_epoch) \
                == reference

    def test_streaming_mode_byte_identical_and_flagged(self):
        # Forcing the cutover to zero exercises the streaming
        # aggregation path under both engines.
        event = serving_doc(engine="event", latency_cutover=0)
        epoch = serving_doc(engine="epoch", latency_cutover=0)
        assert event == epoch
        assert json.loads(epoch)["approx_percentiles"] is True

    def test_exact_mode_has_no_approx_flag(self):
        assert "approx_percentiles" not in json.loads(serving_doc())

    def test_traced_run_byte_identical(self):
        from repro.obs.tracer import tracing

        docs = {}
        for engine in ("event", "epoch"):
            with tracing():
                docs[engine] = serving_doc(engine=engine)
        assert docs["event"] == docs["epoch"]


class TestSegmentPricing:
    def test_decode_step_time_bit_identical_to_step_time(self):
        import numpy as np

        cost = StepCostModel(get_model("gpt-neo-1.3b"), get_gpu("a100"),
                             plan="sdf")
        rng = np.random.default_rng(0)
        for _ in range(50):
            batch = int(rng.integers(1, 33))
            decode_kv = [int(v) for v in rng.integers(1, 4096, size=batch)]
            assert cost.decode_step_time(decode_kv) \
                == cost.step_time(decode_kv=decode_kv)
        assert cost.decode_step_time([]) == 0.0

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single-gpu", "tp2"])
    def test_sharded_decode_step_cost_matches_step_cost(self, sharded):
        # The engine prices through step_cost/decode_step_cost only; the
        # single-GPU model speaks the same protocol with zero comm.
        import numpy as np

        from repro.cluster import ShardedStepCostModel

        model, gpu = get_model("bert-large"), get_gpu("a100")
        cost = (ShardedStepCostModel(model, gpu, plan="sdf", tp=2)
                if sharded else StepCostModel(model, gpu, plan="sdf"))
        rng = np.random.default_rng(1)
        for _ in range(20):
            batch = int(rng.integers(1, 17))
            decode_kv = [int(v) for v in rng.integers(1, 2048, size=batch)]
            total, comm = cost.step_cost(decode_kv=decode_kv)
            assert cost.decode_step_cost(decode_kv) == (total, comm)
            assert total == cost.step_time(decode_kv=decode_kv)
            assert (comm > 0.0) if sharded else (comm == 0.0)

    def test_sequential_sum_matches_running_addition(self):
        values = [0.1, 0.2, 0.30000000000000004, 1e-18, 5.5]
        total = 3.7
        for v in values:
            total += v
        assert sequential_sum(3.7, values) == total
        assert sequential_sum(3.7, []) == 3.7


class TestRoundSchedule:
    """``RoundSchedule`` against a naive round-by-round walk."""

    @staticmethod
    def naive(kv0, rem, tau, n, step, held):
        """Walk every request round by round: its finish round, the
        rounds that allocate each new block, the rounds after which
        its stride-1 target KV and its draft KV change bucket, and
        every round's ``(prefill, decode_kv)``."""
        def bucket(length):
            return -(-length // step) * step

        finish, grows, target, draft = [], [], [], []
        entries = {}
        for kv, r, h in zip(kv0, rem, held):
            f = -(-r // tau)
            finish.append(f)
            rounds, blocks = [], h // step
            for s in range(1, f + 1):
                after = kv + min(tau * s, r)
                entry = entries.setdefault(s, ([], []))
                added = after - kv - tau * (s - 1)
                if added > 1:
                    entry[0].append((added, after))
                else:
                    entry[1].append(after)
                while s <= n and blocks * step < after:
                    blocks += 1
                    rounds.append(s)
            grows.append(rounds)
            last = min(f, n)
            target.append([e for e in range(1, last)
                           if bucket(kv + e) != bucket(kv + e + 1)])
            draft.append([e for e in range(1, last)
                          for _ in range(bucket(kv + tau * e + 1) // step
                                         - bucket(kv + tau * (e - 1) + 1)
                                         // step)])
        return finish, grows, target, draft, entries

    @pytest.mark.parametrize("tau", [1, 2, 3, 17, 33])
    def test_matches_round_by_round_walk(self, tau):
        import random

        from repro.serving.engine import RoundSchedule

        rng = random.Random(tau)
        for _ in range(25):
            step = rng.choice([1, 4, 16, 64])
            b = rng.randint(1, 5)
            kv0 = [rng.randint(1, 300) for _ in range(b)]
            rem = [rng.randint(1, 200) for _ in range(b)]
            held = [(-(-kv // step) + rng.randint(0, 2)) * step
                    for kv in kv0]
            n = rng.randint(1, max(rem) // tau + 2)
            finish, grows, target, draft, entries = self.naive(
                kv0, rem, tau, n, step, held)
            schedule = RoundSchedule(kv0, rem, tau)
            assert schedule.finish == finish
            assert [list(r) for r in schedule.crossings(step, n, held)] \
                == grows
            # The bucket crossings serve the stride-1 target and the
            # draft, whose KV before the round plus one is the same
            # length at stride 1.
            ends = [list(r) for r in schedule.crossings(step, n)]
            assert ends == draft
            if tau == 1:
                assert ends == target
            for s, expected in entries.items():
                live = [kv for kv, f in zip(kv0, finish) if f >= s]
                assert schedule.entries(s, live, s in finish) == expected


class TestClusterEquivalence:
    def test_serial_event_vs_epoch_byte_identical(self):
        assert cluster_doc(engine="event") == cluster_doc(engine="epoch")

    def test_stateful_policies_byte_identical(self):
        for policy in ("least-outstanding", "prefix-affinity"):
            kwargs = dict(policy=policy, prefix_groups=4)
            assert cluster_doc(engine="event", **kwargs) \
                == cluster_doc(engine="epoch", **kwargs)

    def test_sharded_matches_serial_across_worker_counts(self):
        reference = cluster_doc(engine="epoch")
        for jobs in (1, 2, 3):
            assert cluster_doc(engine="epoch", jobs=jobs) == reference

    def test_sharded_streaming_deterministic_across_jobs(self):
        docs = {jobs: cluster_doc(latency_cutover=0, jobs=jobs)
                for jobs in (1, 2)}
        assert docs[1] == docs[2]
        plan = json.loads(docs[1])["plans"]["sdf"]
        assert plan["approx_percentiles"] is True

    def test_stateful_policy_rejects_sharding(self):
        from repro.cluster import ClusterSimulator

        with pytest.raises(ServingError):
            ClusterSimulator(
                "bert-large", "a100",
                workload=ServingWorkload(rate=1.0, duration=1.0, seed=0),
                policy="least-outstanding", jobs=2,
            )

    def test_tracing_rejects_sharding(self):
        from repro.cluster import ClusterSimulator
        from repro.obs.tracer import tracing

        sim = ClusterSimulator(
            "bert-large", "a100",
            workload=ServingWorkload(rate=1.0, duration=1.0, seed=0),
            jobs=2,
        )
        with tracing():
            with pytest.raises(ServingError):
                sim.run()

    def test_requires_exactly_one_source(self):
        from repro.cluster import ClusterSimulator

        workload = ServingWorkload(rate=1.0, duration=1.0, seed=0)
        requests = [Request(request_id=0, arrival_time=0.0,
                            prompt_len=64, output_len=2)]
        with pytest.raises(ServingError):
            ClusterSimulator("bert-large", "a100")
        with pytest.raises(ServingError):
            ClusterSimulator("bert-large", "a100", requests=requests,
                             workload=workload)


def tiny_model(name, num_layers=2, d_model=128):
    from repro.models.config import AttentionKind, AttentionSpec, ModelConfig

    return ModelConfig(
        name, num_layers=num_layers, d_model=d_model, num_heads=4,
        d_ff=2 * d_model,
        attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
    )


SPEC_TARGET = tiny_model("tiny-causal")
SPEC_MOE = MoEConfig.from_dense(SPEC_TARGET, n_experts=4, top_k=2)
SPEC_DRAFT = tiny_model("tiny-draft", num_layers=1, d_model=64)
SPEC_BLOCK = 16
#: Every speculative run below shares these priced models: prices are a
#: pure function of the pricing key, so sharing only saves time.
SPEC_COSTS = {}


def tight_reserve(blocks):
    """The A100 ``reserve_fraction`` that leaves the speculative target a
    KV pool of about ``blocks`` blocks."""
    model, hbm = SPEC_TARGET, get_gpu("a100").hbm_bytes
    pool = blocks * SPEC_BLOCK * 2 * model.num_layers * model.d_model * 2
    return 1 - (pool + weight_bytes(model, DType.FP16)) / hbm


def spec_stream(seed=5, rate=20.0, duration=1.0, mean_output=48):
    return ServingWorkload(rate=rate, duration=duration, seed=seed,
                           max_prompt=96, mean_output=mean_output,
                           block_tokens=SPEC_BLOCK)


def spec_doc(engines, engine, *, model=SPEC_TARGET, gpu="a100",
             workload=None, sim="serving", **kwargs):
    """A speculative run's report JSON, and (epoch steps, steps) of the
    engines it built."""
    from repro.cluster import ClusterSimulator

    built_before = len(engines)
    kwargs = dict(dict(chunk_tokens=4 * SPEC_BLOCK, max_batch=4,
                       draft_model=SPEC_DRAFT, draft_len=4,
                       accept_rate=0.75), **kwargs)
    cls = ServingSimulator if sim == "serving" else ClusterSimulator
    report = cls(model, gpu, plan="sdf", engine=engine,
                 workload=workload or spec_stream(),
                 block_tokens=SPEC_BLOCK, costs=SPEC_COSTS, **kwargs).run()
    ran = engines[built_before:]
    return (json.dumps(report.to_dict(), sort_keys=True),
            sum(e.epoch_steps for e in ran), sum(e.steps for e in ran))


#: ``(id, spec_doc keyword arguments)``: accept rate x draft length
#: (with 16-token blocks a 32-deep draft emits up to 33 tokens a round,
#: so one round grows several blocks), a batch cap that keeps requests
#: waiting, tight memory that preempts, degenerate epoch caps and a MoE
#: target.
SPEC_MATRIX = [
    (f"a{accept}-g{gamma}", dict(accept_rate=accept, draft_len=gamma))
    for accept in (0.0, 0.5, 0.75, 1.0) for gamma in (1, 4, 32)
] + [
    ("max-batch-2", dict(max_batch=2)),
    ("preempt", dict(reserve_fraction=tight_reserve(24), draft_len=8,
                     workload=spec_stream(rate=40.0, mean_output=96))),
    ("preempt-wide", dict(reserve_fraction=tight_reserve(24),
                          draft_len=32,
                          workload=spec_stream(rate=40.0,
                                               mean_output=96))),
] + [
    (f"max-epoch-{cap}", dict(max_epoch=cap)) for cap in (1, 2, 3)
] + [
    ("moe", dict(model=SPEC_MOE)),
]


#: ``(tokens per round, preemption events)`` of every matrix case that
#: took epochs and matched the event loop, for the non-vacuity check.
MATRIX_SEEN = []


class TestSpeculativeEpoch:
    """Speculative rounds on the epoch fast path, against the event loop."""

    @pytest.mark.parametrize("kwargs", [kw for _, kw in SPEC_MATRIX],
                             ids=[name for name, _ in SPEC_MATRIX])
    def test_matrix_byte_identical(self, engines, kwargs):
        event, event_epochs, steps = spec_doc(engines, "event", **kwargs)
        epoch, epoch_steps, _ = spec_doc(engines, "epoch", **kwargs)
        assert event == epoch
        assert event_epochs == 0 and epoch_steps > 0
        MATRIX_SEEN.append((engines[-1].spec_decode.tokens_per_round,
                            json.loads(epoch)["preemption_events"]))

    def test_matrix_is_not_vacuous(self):
        # Runs after the matrix (file order); skipped if it was deselected.
        if len(MATRIX_SEEN) < len(SPEC_MATRIX):
            pytest.skip("needs the whole matrix")
        assert any(preemptions > 0 for _, preemptions in MATRIX_SEEN)
        assert any(tau > SPEC_BLOCK for tau, _ in MATRIX_SEEN)

    def test_cluster_tp_ep_byte_identical(self, engines):
        kwargs = dict(sim="cluster", model=SPEC_MOE, replicas=2, tp=2,
                      ep=2, policy="least-outstanding",
                      workload=spec_stream(rate=30.0))
        event, _, _ = spec_doc(engines, "event", **kwargs)
        epoch, epoch_steps, _ = spec_doc(engines, "epoch", **kwargs)
        assert event == epoch
        assert epoch_steps > 0
        assert json.loads(epoch)["comm_time_s"] > 0

    @pytest.mark.parametrize("engine", ["event", "epoch"])
    def test_step_budget_is_exact(self, engines, engine):
        budget = 40  # falls inside a speculative epoch
        with pytest.raises(ServingError, match=f"exceeded {budget} steps"):
            spec_doc(engines, engine, max_steps=budget)
        assert sum(e.steps for e in engines) == budget + 1
        assert (sum(e.epoch_steps for e in engines) > 0) is (
            engine == "epoch")



def traced_serving(engine, **kwargs):
    kwargs = dict(dict(workload=ServingWorkload(rate=4.0, duration=4.0,
                                                seed=7)), **kwargs)
    return ServingSimulator("bert-large", kwargs.pop("gpu", "a100"),
                            plan="sdf", engine=engine, **kwargs)


def traced_spec(engine, draft_len):
    return ServingSimulator(SPEC_TARGET, "a100", plan="sdf", engine=engine,
                            workload=spec_stream(), block_tokens=SPEC_BLOCK,
                            chunk_tokens=4 * SPEC_BLOCK, max_batch=4,
                            draft_model=SPEC_DRAFT, draft_len=draft_len,
                            accept_rate=0.75)


def traced_cluster(engine):
    from repro.cluster import ClusterSimulator

    return ClusterSimulator("bert-large", "a100", plan="sdf", engine=engine,
                            replicas=2, tp=2, policy="least-outstanding",
                            workload=ServingWorkload(rate=6.0, duration=3.0,
                                                     seed=3))


def traced_controlplane(engine):
    from repro.controlplane import (
        AutoscalerConfig,
        ControlPlaneSimulator,
        FailureSchedule,
    )
    from repro.serving.arrivals import MMPPArrivals

    workload = ServingWorkload(
        rate=4.0, duration=3.0, seed=2,
        arrival=MMPPArrivals(rate=4.0, burst_rate=16.0, base_dwell=1.0,
                             burst_dwell=0.5))
    return ControlPlaneSimulator(
        "bert-large", "a100", workload=workload, plan="sdf", replicas=2,
        engine=engine,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3,
                                    cold_start_s=0.2),
        faults=FailureSchedule(deaths=(1.0,), stragglers=((0.5, 2.0),)))


#: ``(id, engine -> simulator)``: plain serving under every epoch cap,
#: tight memory that preempts, speculative rounds at stride 1 and 3, a
#: TP cluster and a control plane with a death and a straggler.
TRACED_CASES = [
    ("serving", traced_serving),
    *[(f"max-epoch-{cap}",
       lambda engine, cap=cap: traced_serving(engine, max_epoch=cap))
      for cap in (1, 2, 3, 4096)],
    ("preempt", lambda engine: traced_serving(
        engine, gpu=tiny_gpu(blocks=48, reserve_fraction=0.0),
        reserve_fraction=0.0, max_batch=4,
        workload=ServingWorkload(rate=8.0, duration=3.0, seed=3,
                                 mean_output=128))),
    ("spec-g1", lambda engine: traced_spec(engine, 1)),
    ("spec-g3", lambda engine: traced_spec(engine, 3)),
    ("cluster-tp2", traced_cluster),
    ("controlplane", traced_controlplane),
]


def metrics_without_load_samples(tracer):
    """The metrics snapshot, minus the sample counts of the control
    plane's load gauges: those are published once per advance, so an
    epoch samples them less often (their values do not change)."""
    snapshot = tracer.metrics.snapshot()
    for name, gauge in snapshot["gauges"].items():
        if name.endswith(".outstanding_tokens"):
            gauge.pop("samples")
    return snapshot


class TestTracedEngineEquivalence:
    """A traced run emits the same trace, metrics and report on the
    epoch fast path as on the classic per-step loop."""

    @pytest.mark.parametrize("name, build", TRACED_CASES,
                             ids=[name for name, _ in TRACED_CASES])
    def test_trace_byte_identical(self, engines, name, build):
        from repro.gpu import simcache
        from repro.obs import Tracer, chrome_events, tracing

        runs = {}
        for engine in ("event", "epoch"):
            engines.clear()
            # Cold kernel caches, so both runs price (and trace) alike.
            simcache.invalidate()
            with tracing(Tracer()) as tracer:
                report = build(engine).run()
            runs[engine] = (chrome_events(tracer),
                            metrics_without_load_samples(tracer),
                            json.dumps(report.to_dict(), sort_keys=True))
            steps = sum(e.epoch_steps for e in engines)
            assert (steps > 0) is (engine == "epoch")
            if name == "preempt":
                # The traced preemption replay is really exercised.
                assert report.to_dict()["preemption_events"] > 0
        simcache.invalidate()
        assert runs["event"][0] == runs["epoch"][0]
        assert runs["event"][1] == runs["epoch"][1]
        assert runs["event"][2] == runs["epoch"][2]

    @pytest.mark.parametrize("name, build", TRACED_CASES,
                             ids=[name for name, _ in TRACED_CASES])
    def test_bulk_metrics_match_the_step_events(self, name, build):
        """The lane metrics, updated once per step block, equal what one
        update per traced step gives."""
        from repro.gpu import simcache
        from repro.obs import Tracer, tracing
        from repro.obs.metrics import MetricsRegistry

        simcache.invalidate()
        with tracing(Tracer()) as tracer:
            build("epoch").run()
        simcache.invalidate()
        lanes = {pid: name for name, pid in tracer.processes.items()}
        expected = MetricsRegistry()
        for event in tracer.events:
            lane = lanes.get(event.pid)
            if event.name == "engine step":
                expected.counter(f"{lane}.steps").inc()
                expected.counter(f"{lane}.decode_tokens").add(
                    event.args["decode"])
                expected.counter(f"{lane}.prefill_tokens").add(
                    event.args["prefill_tokens"])
                expected.gauge(f"{lane}.batch").set(event.args["running"])
                if "spec_emitted" in event.args:
                    expected.counter(f"{lane}.spec_emitted").add(
                        event.args["spec_emitted"])
            elif event.name == f"{lane} occupancy":
                expected.gauge(f"{lane}.kv_blocks").set(
                    event.args["kv_blocks"])
            elif event.name == "replica step":
                expected.counter(f"{lane}.comm_time_s").add(
                    event.args["comm_s"])
        snapshot = tracer.metrics.snapshot()
        wanted = expected.snapshot()
        assert wanted["counters"]
        for kind in ("counters", "gauges"):
            for key, value in wanted[kind].items():
                assert snapshot[kind][key] == value, key

    def test_step_args_are_shared_within_a_stretch(self, engines):
        """A traced epoch builds one ``args`` dict per stretch of steps
        whose counts do not change, not one per step."""
        from repro.gpu import simcache
        from repro.obs import Tracer, tracing

        simcache.invalidate()
        sim = ServingSimulator(
            "gpt-neo", "a100", plan="sdf",
            workload=ServingWorkload(rate=0.5, duration=20.0, seed=7,
                                     max_prompt=256, mean_output=512))
        with tracing(Tracer()) as tracer:
            sim.run()
        simcache.invalidate()
        (engine,) = engines
        steps = [e for e in tracer.events if e.name == "engine step"]
        samples = [e for e in tracer.events if e.ph == "C"]
        assert len(steps) == len(samples) == engine.steps
        assert engine.steps > 10 * len({id(e.args) for e in steps})
        assert engine.steps > 10 * len({id(e.args) for e in samples})


class TestStepBlock:
    """The trace a :class:`StepBlock` writes, apart from any engine."""

    @staticmethod
    def block(totals, kernel=None, instants=None):
        from repro.serving.engine import StepBlock

        times = [float(sum(totals[:s])) for s in range(len(totals))]
        return StepBlock(times, totals, [0.0] * len(totals), 0, 0, 0,
                         [(0, len(totals), 1, 1, 1, None, None)],
                         kernel or {}, instants or {})

    @staticmethod
    def steps(block):
        from repro.obs.tracer import TraceEvent

        return [TraceEvent(f"s{s}", "engine-step", "X", ts, dur)
                for s, (ts, dur) in enumerate(zip(block.times,
                                                  block.totals), 1)]

    def test_kernel_spans_lead_and_instants_follow_their_round(self):
        from repro.obs import Tracer
        from repro.obs.tracer import TraceEvent

        kernel = TraceEvent("k", "kernel", "X", 0.0, 0.0)
        finish = TraceEvent("f", "request", "i", 0.0, 0.0)
        block = self.block([1.0, 1.0, 1.0, 1.0],
                           kernel={1: [kernel], 3: [kernel]},
                           instants={2: [finish], 3: [finish]})
        tracer = Tracer()
        block.emit(tracer, "s", self.steps(block), per_step=1)
        assert [e.name for e in tracer.events] == [
            "k", "s1", "s2", "f", "k", "s3", "f", "s4"]

    def test_stretches_merge_every_series(self):
        from repro.serving.engine import _stretches

        assert _stretches(5, {1: 3, 4: 2}, {1: 7, 2: 8, 4: 8}, None) == [
            (0, 1, 3, 7, None), (1, 3, 3, 8, None), (3, 5, 2, 8, None)]
        assert _stretches(1, {1: 3}, {1: 7}) == [(0, 1, 3, 7)]

    def test_negative_step_cost_is_rejected(self):
        from repro.common.errors import TraceError
        from repro.obs import Tracer

        block = self.block([1.0, -0.5, -1.0])
        tracer = Tracer()
        with pytest.raises(TraceError, match="'s' has negative duration "
                                             "-0.5"):
            block.emit(tracer, "s", self.steps(block), per_step=1)
        assert tracer.events == []
