"""Tests for the discrete-event serving simulator.

Covers the serving-level invariants the subsystem promises:
determinism under a fixed seed, request conservation (every admitted
request finishes, possibly after preemption), KV-block conservation
(allocations return to the free pool), and the no-over-commit
guarantee of the memory manager.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.common.dtypes import DType
from repro.common.errors import ConfigError, ServingError
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.models.footprint import weight_bytes
from repro.serving import (
    ContinuousBatchingScheduler,
    EngineConfig,
    KVBlockManager,
    Request,
    RequestStatus,
    ServingSimulator,
    ServingWorkload,
    StepCostModel,
    load_trace,
    simulate_serving,
)
from tests.conftest import tiny_gpu


class TestWorkload:
    def test_deterministic(self):
        a = ServingWorkload(rate=4.0, duration=8.0, seed=7).requests()
        b = ServingWorkload(rate=4.0, duration=8.0, seed=7).requests()
        assert [(r.arrival_time, r.prompt_len, r.output_len) for r in a] \
            == [(r.arrival_time, r.prompt_len, r.output_len) for r in b]

    def test_seed_changes_stream(self):
        a = ServingWorkload(rate=4.0, duration=8.0, seed=0).requests()
        b = ServingWorkload(rate=4.0, duration=8.0, seed=1).requests()
        assert [r.arrival_time for r in a] != [r.arrival_time for r in b]

    def test_shapes(self):
        requests = ServingWorkload(rate=8.0, duration=10.0, seed=0,
                                   max_prompt=2048).requests()
        assert requests
        assert all(r.prompt_len % 64 == 0 for r in requests)
        assert all(r.prompt_len <= 2048 for r in requests)
        assert all(r.output_len >= 1 for r in requests)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] < 10.0

    def test_trace_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.5, "prompt_len": 100, "output_len": 4}\n'
            '{"arrival_time": 0.1, "prompt_len": 64, "output_len": 2}\n'
        )
        requests = load_trace(str(path)).requests()
        assert [r.arrival_time for r in requests] == [0.1, 0.5]
        assert requests[1].prompt_len == 128  # rounded up to blocks

    def test_trace_driven_report_counts_loaded_requests(self, tmp_path):
        """Regression: a trace-driven run used to report
        ``num_requests=0`` — the counter only ticked along the
        synthetic-workload path.  The count must reflect the loaded
        stream, even when no plan runs at all."""
        from repro.serving import simulate_serving

        path = tmp_path / "trace.jsonl"
        path.write_text("".join(
            '{"arrival_time": %.1f, "prompt_len": 64, "output_len": 2}\n'
            % (0.1 * i) for i in range(3)))
        workload = ServingWorkload(rate=1.0, duration=1.0,
                                   trace=load_trace(str(path)))
        report = simulate_serving("bert-large", "a100", workload,
                                  plans=("sdf",))
        assert report.num_requests == 3
        empty = simulate_serving("bert-large", "a100", workload, plans=())
        assert empty.num_requests == 3

    def test_trace_bad_record(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"arrival_time": 0.1}\n')
        with pytest.raises(ServingError, match="bad trace record"):
            load_trace(str(path))


#: A committed 40-request JSONL trace (unsorted, one arrival tie).
TRACE_FILE = pathlib.Path(__file__).parent / "golden" / "trace_requests.jsonl"


class TestNonFiniteInputs:
    """A NaN or infinite stream input is a typed error up front, not an
    untyped crash in arrival sampling or the engine."""

    def serve(self, *flags):
        from repro.cli import main

        return main(["serve-sim", "--rate", "2", "--duration", "2",
                     "--json", *flags])

    def test_nan_rate(self):
        with pytest.raises(ServingError, match="rate must be positive"):
            self.serve("--rate", "nan")

    def test_infinite_duration(self):
        with pytest.raises(ServingError, match="finite"):
            self.serve("--duration", "inf")

    def test_nan_diurnal_period(self):
        with pytest.raises(ConfigError, match="period must be positive"):
            self.serve("--arrival", "diurnal", "--period", "nan")

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_trace_arrival(self, tmp_path, value):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.1, "prompt_len": 64, "output_len": 2}\n'
            '{"arrival_time": %s, "prompt_len": 64, "output_len": 2}\n'
            % value)
        with pytest.raises(ServingError, match=r"trace.jsonl:2: bad trace"):
            load_trace(str(path))
        with pytest.raises(ServingError, match=r"trace.jsonl:2: bad trace"):
            self.serve("--trace-file", str(path))


class TestWorkloadBlockSize:
    """A workload rounds prompts to its own block size, so a simulator
    with another one refuses it instead of running silently."""

    @pytest.mark.parametrize("simulator", ["serving", "cluster",
                                           "controlplane"])
    def test_mismatch_raises(self, simulator):
        from repro.cluster import ClusterSimulator
        from repro.controlplane import ControlPlaneSimulator

        cls = {"serving": ServingSimulator, "cluster": ClusterSimulator,
               "controlplane": ControlPlaneSimulator}[simulator]
        workload = ServingWorkload(rate=1, duration=1)
        with pytest.raises(ServingError, match="block size 64"):
            cls("bert-large", "a100", workload=workload, block_tokens=128)


class TestTraceReplayDifferential:
    """A trace replayed as a workload's arrays reports byte-identically
    to the same records replayed as a hand-built request list."""

    @staticmethod
    def doc(report) -> str:
        to_doc = getattr(report, "to_dict", None) or report.to_json
        return json.dumps(to_doc(), sort_keys=True)

    @pytest.mark.parametrize("simulator, kwargs", [
        ("serving", {}),
        ("serving", {"engine": "event", "block_tokens": 128}),
        ("cluster", {"replicas": 3, "jobs": 1}),
        ("cluster", {"replicas": 3, "jobs": 2}),
        ("cluster", {"replicas": 3, "policy": "least-outstanding"}),
    ], ids=["serving", "serving-event-block128", "cluster-rr-jobs1",
            "cluster-rr-jobs2", "cluster-least-outstanding"])
    def test_arrays_equal_list(self, simulator, kwargs):
        from repro.cluster import ClusterSimulator

        cls = {"serving": ServingSimulator,
               "cluster": ClusterSimulator}[simulator]
        block = kwargs.get("block_tokens", 64)
        trace = load_trace(str(TRACE_FILE), block_tokens=block)
        workload = ServingWorkload(rate=10.0, duration=4.0,
                                   block_tokens=block, trace=trace)
        via_arrays = cls("bert-large", "a100", plan="sdf",
                         workload=workload, **kwargs).run()
        # Reversed: the list form sorts its own templates.
        via_list = cls("bert-large", "a100", plan="sdf",
                       requests=trace.requests()[::-1], **kwargs).run()
        assert len(trace) == 40
        assert self.doc(via_arrays) == self.doc(via_list)


class TestKVBlockManager:
    def manager(self, blocks=10):
        return KVBlockManager(capacity_bytes=blocks * 64 * 1024,
                              block_tokens=64, bytes_per_token=1024)

    def test_grow_and_release(self):
        mgr = self.manager()
        assert mgr.grow(1, 100) == 2      # ceil(100/64)
        assert mgr.grow(1, 100) == 0      # idempotent
        assert mgr.grow(1, 129) == 1      # one more block
        assert mgr.used_blocks == 3
        assert mgr.release(1) == 3
        assert mgr.used_blocks == 0

    def test_over_commit_raises(self):
        mgr = self.manager(blocks=2)
        mgr.grow(1, 128)
        with pytest.raises(ServingError, match="over-commit"):
            mgr.grow(2, 64)
        assert mgr.used_blocks == 2       # failed grow changed nothing

    def test_double_free_raises(self):
        mgr = self.manager()
        mgr.grow(1, 64)
        mgr.release(1)
        with pytest.raises(ServingError, match="double free"):
            mgr.release(1)

    def test_peak_tracking(self):
        mgr = self.manager()
        mgr.grow(1, 64 * 4)
        mgr.release(1)
        mgr.grow(2, 64)
        assert mgr.peak_blocks == 4
        assert mgr.stats().peak_bytes == 4 * 64 * 1024

    def test_fits_at_all(self):
        mgr = self.manager(blocks=10)
        assert mgr.fits_at_all(640)
        assert not mgr.fits_at_all(641)

    def test_for_model_capacity(self):
        model = get_model("bert-large")
        gpu = get_gpu("a100")
        mgr = KVBlockManager.for_model(model, gpu)
        pool = mgr.total_blocks * mgr.block_bytes
        assert pool <= gpu.hbm_bytes - weight_bytes(model, DType.FP16)
        assert mgr.bytes_per_token == 2 * model.num_layers * model.d_model * 2

    def test_too_small_pool_raises(self):
        with pytest.raises(ServingError):
            KVBlockManager(capacity_bytes=100, block_tokens=64,
                           bytes_per_token=1024)


class TestScheduler:
    def drive(self, scheduler, requests, max_steps=10_000):
        for request in requests:
            scheduler.submit(request)
        now, steps = 0.0, 0
        while scheduler.has_work:
            step = scheduler.schedule(now)
            assert not step.is_empty
            now += 0.01
            scheduler.complete_step(step, now)
            steps += 1
            assert steps < max_steps
        return steps

    def test_conservation_blocks_and_requests(self):
        mgr = KVBlockManager(capacity_bytes=24 * 64 * 1024,
                             block_tokens=64, bytes_per_token=1024)
        sched = ContinuousBatchingScheduler(mgr, chunk_tokens=256,
                                            max_batch=8)
        requests = [Request(request_id=i, arrival_time=0.0,
                            prompt_len=512, output_len=64)
                    for i in range(6)]
        self.drive(sched, requests)
        assert all(r.status is RequestStatus.FINISHED for r in requests)
        assert all(r.generated == r.output_len for r in requests)
        assert mgr.used_blocks == 0          # every block returned
        assert mgr.peak_blocks <= mgr.total_blocks

    def test_preemption_recovers(self):
        # 24-block pool, three 8-block prompts admitted back-to-back:
        # decode growth must preempt and every request still finishes.
        mgr = KVBlockManager(capacity_bytes=24 * 64 * 1024,
                             block_tokens=64, bytes_per_token=1024)
        sched = ContinuousBatchingScheduler(mgr, chunk_tokens=512,
                                            max_batch=8)
        requests = [Request(request_id=i, arrival_time=0.0,
                            prompt_len=512, output_len=80)
                    for i in range(3)]
        self.drive(sched, requests)
        assert sched.preemption_events > 0
        assert all(r.status is RequestStatus.FINISHED for r in requests)
        assert all(r.generated == r.output_len for r in requests)
        assert mgr.used_blocks == 0
        preempted = [r for r in requests if r.preemptions]
        assert preempted
        # Recompute covers the prompt plus any pre-eviction tokens.
        assert all(r.prefill_target >= r.prompt_len for r in preempted)

    def test_rejects_impossible_request(self):
        mgr = KVBlockManager(capacity_bytes=4 * 64 * 1024,
                             block_tokens=64, bytes_per_token=1024)
        sched = ContinuousBatchingScheduler(mgr)
        giant = Request(request_id=0, arrival_time=0.0,
                        prompt_len=64 * 64, output_len=4)
        assert not sched.submit(giant)
        assert giant.status is RequestStatus.REJECTED
        assert not sched.has_work

    def test_single_token_output_finishes_at_prefill(self):
        mgr = KVBlockManager(capacity_bytes=24 * 64 * 1024,
                             block_tokens=64, bytes_per_token=1024)
        sched = ContinuousBatchingScheduler(mgr, chunk_tokens=512)
        request = Request(request_id=0, arrival_time=0.0,
                          prompt_len=128, output_len=1)
        self.drive(sched, [request])
        assert request.status is RequestStatus.FINISHED
        assert request.first_token_time == request.finish_time
        assert request.tpot == 0.0

    def test_chunk_must_align_to_blocks(self):
        mgr = KVBlockManager(capacity_bytes=24 * 64 * 1024,
                             block_tokens=64, bytes_per_token=1024)
        with pytest.raises(ServingError, match="multiple"):
            ContinuousBatchingScheduler(mgr, chunk_tokens=100)


class TestStepCostModel:
    def test_unsupported_plan(self):
        with pytest.raises(ServingError, match="supports plans"):
            StepCostModel("bert-large", "a100", plan="flash")

    def test_rejects_negative_tile_width(self):
        with pytest.raises(ConfigError, match="t must be positive"):
            StepCostModel("bert-large", "a100", plan="sdf", t=-64)

    def test_rejects_negative_kv_bucket(self):
        with pytest.raises(ConfigError, match="kv_bucket must be positive"):
            StepCostModel("bert-large", "a100", kv_bucket=-1)

    def test_empty_step_is_free(self):
        cost = StepCostModel("bert-large", "a100")
        assert cost.step_time() == 0.0

    def test_memoization(self):
        cost = StepCostModel("bert-large", "a100")
        cost.step_time(prefill=[(512, 512)], decode_kv=[100, 130])
        sizes = cost.cache_sizes()
        # At the default 64-token bucket, 100 and 101 price as 128
        # and 130 and 140 as 192.
        cost.step_time(prefill=[(512, 512)], decode_kv=[101, 140])
        assert cost.cache_sizes() == sizes   # same buckets, no new entries

    def test_recomposed_prefill_is_faster(self):
        base = StepCostModel("bert-large", "a100", plan="baseline")
        sdf = StepCostModel("bert-large", "a100", plan="sdf")
        chunk = base.step_time(prefill=[(512, 4096)])
        assert sdf.step_time(prefill=[(512, 4096)]) < chunk

    @pytest.mark.parametrize("block_tokens", [16, 128])
    def test_kv_bucket_is_the_kv_block_size(self, block_tokens):
        """Decode KV lengths are priced at the KV block granularity:
        the serving, replica and draft cost models all bucket to it."""
        from repro.cluster.replica import Replica

        draft = dict(draft_model="gpt-neo-1.3b",
                     block_tokens=block_tokens)
        sim = ServingSimulator("bert-large", "a100", requests=[], **draft)
        replica = Replica(0, EngineConfig("bert-large", "a100", **draft))
        models = [sim.cost, sim._spec_runtime.draft_cost, replica.cost,
                  replica.engine.spec_decode.draft_cost]
        assert [m.kv_bucket for m in models] == [block_tokens] * 4

    def test_decode_is_plan_invariant(self):
        # m=1 attention has no softmax recomposition opportunity.
        base = StepCostModel("bert-large", "a100", plan="baseline")
        sdf = StepCostModel("bert-large", "a100", plan="sdf")
        assert sdf.step_time(decode_kv=[512]) \
            == pytest.approx(base.step_time(decode_kv=[512]))


class TestSimulator:
    def test_deterministic_reports(self):
        def run():
            report = simulate_serving(
                "bert-large", "a100",
                ServingWorkload(rate=4.0, duration=4.0, seed=3))
            return json.dumps(report.to_json(), sort_keys=True)
        assert run() == run()

    def test_conservation_and_no_over_commit(self):
        report = simulate_serving(
            "bert-large", "a100",
            ServingWorkload(rate=6.0, duration=6.0, seed=1))
        for plan in report.plans.values():
            assert plan.finished + plan.rejected == plan.num_requests
            assert plan.rejected == 0
            assert plan.kv_peak_blocks <= plan.kv_total_blocks
            assert plan.kv_peak_bytes <= get_gpu("a100").hbm_bytes
            assert plan.makespan >= plan.busy_time > 0
            assert plan.ttft.p50 > 0
            assert plan.tpot.p99 >= plan.tpot.p50 >= 0

    def test_fused_sustains_higher_throughput_at_saturation(self):
        report = simulate_serving(
            "bert-large", "a100",
            ServingWorkload(rate=8.0, duration=30.0, seed=0))
        base = report.plans["baseline"]
        sdf = report.plans["sdf"]
        # Saturated: the engine is still draining after arrivals stop.
        assert base.makespan > 30.0
        assert sdf.throughput_tokens_per_s > base.throughput_tokens_per_s
        assert report.speedup() > 1.0

    def test_preemption_under_tight_memory(self):
        gpu = tiny_gpu(blocks=40)
        requests = [Request(request_id=i, arrival_time=0.0,
                            prompt_len=512, output_len=96)
                    for i in range(5)]
        report = ServingSimulator("bert-large", gpu, plan="sdf",
                                  requests=requests, max_batch=8).run()
        assert report.finished == 5
        assert report.preemption_events > 0
        assert report.kv_peak_blocks <= report.kv_total_blocks

    def test_run_is_repeatable(self):
        requests = [Request(request_id=0, arrival_time=0.0,
                            prompt_len=256, output_len=8)]
        sim = ServingSimulator("bert-large", "a100", requests=requests)
        first = sim.run()
        second = sim.run()
        assert first == second
        # The caller's request objects stay untouched.
        assert requests[0].status is RequestStatus.WAITING

    def test_requires_exactly_one_source(self):
        with pytest.raises(ServingError, match="exactly one"):
            ServingSimulator("bert-large", "a100")


class TestHBMSpec:
    def test_all_gpus_have_hbm(self):
        for name in ("a100", "rtx3090", "t4", "v100", "h100"):
            gpu = get_gpu(name)
            assert gpu.hbm_bytes > gpu.l2_size

    def test_hbm_must_exceed_l2(self):
        gpu = get_gpu("a100")
        with pytest.raises(ConfigError):
            dataclasses.replace(gpu, hbm_bytes=gpu.l2_size)
        with pytest.raises(ConfigError):
            dataclasses.replace(gpu, hbm_bytes=0)


class TestGenerationHBM:
    def test_kv_cache_fraction(self):
        from repro.models.generation import GenerationSession

        result = GenerationSession("gpt-neo-1.3b", gpu="a100",
                                   prompt_len=1024,
                                   generated_tokens=8).simulate()
        expected = result.kv_cache_bytes / get_gpu("a100").hbm_bytes
        assert result.kv_cache_fraction == pytest.approx(expected)
        assert 0 < result.kv_cache_fraction < 1

    def test_session_rejects_oversized_kv(self):
        from repro.models.generation import GenerationSession

        gpu = tiny_gpu("gpt-neo-1.3b", blocks=4)
        with pytest.raises(ConfigError, match="exceeding"):
            GenerationSession("gpt-neo-1.3b", gpu=gpu,
                              prompt_len=2048, generated_tokens=64)


class TestSoftmaxRowLimit:
    """Rows the monolithic row softmax cannot hold fail before the
    first step, and only those."""

    LONG = {"arrival_time": 0.0, "prompt_len": 45056, "output_len": 8}

    @pytest.mark.parametrize("gpu, limit", [
        ("A100", 41984), ("RTX 3090", 25600), ("T4", 16384),
        ("H100", 58368),
    ])
    def test_longest_row(self, gpu, limit):
        from repro.kernels.softmax import longest_row

        for dtype in (DType.FP16, DType.FP32):
            assert longest_row(get_gpu(gpu), dtype) == limit

    def test_longest_row_prices_nothing(self):
        from repro.kernels.softmax import longest_row
        from repro.obs.tracer import Tracer, tracing

        with tracing(Tracer()) as tracer:
            longest_row.__wrapped__(get_gpu("A100"), DType.FP16)
        assert tracer.event_count == 0

    @pytest.mark.parametrize("argv", [
        ["serve-sim"], ["cluster-sim"], ["cluster-sim", "--jobs", "2"],
        ["controlplane-sim"],
    ])
    def test_long_trace_fails_before_the_first_step(self, argv, tmp_path,
                                                    capsys, monkeypatch):
        from repro.cli import console
        from repro.serving.engine import EpochEngine

        def stepped(*args, **kwargs):
            raise AssertionError("an engine step ran")

        monkeypatch.setattr(EpochEngine, "_classic_step", stepped)
        monkeypatch.setattr(EpochEngine, "_advance_epoch", stepped)
        path = tmp_path / "long.jsonl"
        path.write_text(json.dumps(self.LONG) + "\n")
        assert console([*argv, "--model", "bert-large",
                        "--trace-file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {argv[0]}: error: request 0 needs a "
                              f"45120-key softmax row")
        assert "at most 41984 keys on A100" in err
        assert "decode runs it under every plan" in err

    def run(self, prompt_len, output_len, plan="baseline", **kwargs):
        return ServingSimulator(
            "bert-large", "a100", plan=plan,
            requests=[Request(request_id=0, arrival_time=0.0,
                              prompt_len=prompt_len, output_len=output_len)],
            **kwargs).run()

    @pytest.mark.parametrize("last_kv", [41984 - 64, 41984])
    def test_rows_up_to_the_limit_run(self, last_kv):
        """The last decode step's KV is prompt + output - 1."""
        assert self.run(last_kv - 64, 65).finished == 1

    def test_one_token_past_the_limit_fails(self):
        with pytest.raises(ServingError, match="42048-key softmax row"):
            self.run(41920, 66, plan="sdf")

    def test_long_prompt_without_decode_runs_under_sdf_only(self):
        assert self.run(45056, 1, plan="sdf").finished == 1
        with pytest.raises(ServingError, match="45056-key softmax row"):
            self.run(45056, 1)

    def test_speculative_verify_rows_decompose_under_sdf(self):
        """With γ = 4 at acceptance 1 the last round verifies five
        tokens (a decomposed prefill-shaped row under SDF) and its draft
        decodes at KV 41,981: nothing reaches the limit."""
        spec = dict(draft_model="bert-large", draft_len=4, accept_rate=1.0)
        assert self.run(41920, 66, plan="sdf", **spec).finished == 1
        with pytest.raises(ServingError, match="41985-key softmax row"):
            self.run(41920, 66, **spec)

    def test_requests_memory_rejects_are_not_checked(self):
        report = ServingSimulator(
            "bert-large", tiny_gpu(), requests=[Request(
                request_id=0, arrival_time=0.0, prompt_len=45056,
                output_len=8)]).run()
        assert report.rejected == 1
