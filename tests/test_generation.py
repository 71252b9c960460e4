"""Tests for autoregressive generation with a KV cache."""

import pytest

from repro.common import ConfigError
from repro.core.autotune import PAPER_CANDIDATES
from repro.gpu.specs import get_gpu
from repro.models import BERT_LARGE, GPT_NEO_1_3B
from repro.models.config import get_model
from repro.models.generation import (
    STEP_GRAPHS,
    GenerationSession,
    attended_length,
    attention_step_kernels,
    layer_step_kernels,
    step_shape_kind,
)


@pytest.fixture(scope="module")
def small_run():
    return GenerationSession(
        GPT_NEO_1_3B, prompt_len=1024, generated_tokens=16
    ).simulate()


class TestGeneration:
    def test_rejects_non_autoregressive_models(self):
        with pytest.raises(ConfigError, match="autoregressive"):
            GenerationSession(BERT_LARGE)

    def test_phases_accounted(self, small_run):
        assert small_run.prefill_time > 0
        assert small_run.decode_time > 0
        assert small_run.total_time == pytest.approx(
            small_run.prefill_time + small_run.decode_time
        )

    def test_decode_kernel_count(self, small_run):
        # 15 kernels per layer per step, 24 layers, 16 steps.
        expected = 15 * GPT_NEO_1_3B.num_layers * 16
        assert len(small_run.decode_profile) == expected

    def test_tokens_per_second_consistent(self, small_run):
        assert small_run.time_per_token == pytest.approx(
            small_run.decode_time / 16
        )
        assert small_run.tokens_per_second == pytest.approx(
            1 / small_run.time_per_token
        )

    def test_kv_cache_size(self, small_run):
        # 2 (K and V) x layers x (prompt + generated) x d_model x fp16.
        expected = 2 * 24 * (1024 + 16) * 2048 * 2
        assert small_run.kv_cache_bytes == expected

    def test_decode_step_cost_grows_with_kv_length(self):
        short = GenerationSession(GPT_NEO_1_3B, prompt_len=512,
                                  generated_tokens=4).simulate()
        long = GenerationSession(GPT_NEO_1_3B, prompt_len=8192,
                                 generated_tokens=4).simulate()
        # Longer cache -> more K/V bytes per step -> slower tokens.
        assert long.time_per_token > short.time_per_token

    def test_decode_dominated_by_weights_not_softmax(self, small_run):
        """Decode attention rows are 1 x L: softmax is a rounding error
        next to streaming the weights."""
        by_cat = small_run.decode_profile.time_by_category()
        weights_time = by_cat["fc"] + by_cat["feedforward"]
        assert by_cat["softmax"] < 0.2 * weights_time

    def test_recomposition_helps_prefill_not_decode(self):
        """The honest scoping of the paper's technique: prefill gains,
        decode is unaffected (its attention rows are tiny)."""
        base = GenerationSession(GPT_NEO_1_3B, prompt_len=4096,
                                 generated_tokens=8,
                                 plan="baseline").simulate()
        sdf = GenerationSession(GPT_NEO_1_3B, prompt_len=4096,
                                generated_tokens=8, plan="sdf").simulate()
        prefill_speedup = base.prefill_time / sdf.prefill_time
        decode_ratio = base.decode_time / sdf.decode_time
        assert prefill_speedup > 1.08
        assert decode_ratio == pytest.approx(1.0, abs=0.01)

    def test_local_attention_caps_decode_reads(self):
        """GPT-Neo's local layers attend to a fixed window, so their
        decode cost does not grow with the cache."""
        local_kernels = layer_step_kernels(GPT_NEO_1_3B, 1, m_tokens=1,
                                           kv_len=4097)
        dense_kernels = layer_step_kernels(GPT_NEO_1_3B, 0, m_tokens=1,
                                           kv_len=4097)
        local_qk = next(k for k in local_kernels if k.name == "dec_qk_matmul")
        dense_qk = next(k for k in dense_kernels if k.name == "dec_qk_matmul")
        assert local_qk.n == 256   # the local window
        assert dense_qk.n == 4097  # the full cache


class TestChunkedPrefill:
    def test_chunk_must_divide_prompt(self):
        with pytest.raises(ConfigError, match="divisible"):
            GenerationSession(GPT_NEO_1_3B, prompt_len=1000,
                              prefill_chunk=512)

    def test_rejects_zero_tile_width(self):
        with pytest.raises(ConfigError, match="t must be positive"):
            GenerationSession(GPT_NEO_1_3B, prompt_len=2048, t=0,
                              prefill_chunk=256)

    @pytest.mark.parametrize("plan", ["online", "turbo", "fused-mha",
                                      "flash"])
    def test_chunked_prefill_rejects_plans_it_cannot_price(self, plan):
        with pytest.raises(ConfigError, match="chunked prefill supports"):
            GenerationSession(GPT_NEO_1_3B, plan=plan, prompt_len=2048,
                              prefill_chunk=512)

    # fused-mha is absent: InferenceSession itself refuses it for causal
    # masks, with a PlanError.
    @pytest.mark.parametrize("plan", ["online", "turbo", "flash"])
    def test_whole_prompt_prefill_accepts_other_plans(self, plan):
        from repro.models.config import (
            AttentionKind,
            AttentionSpec,
            ModelConfig,
        )

        # A dense causal model: the whole-prompt path prices every plan
        # (GPT-Neo's local layers have no kernels for some of them).
        dense = ModelConfig(
            "dense-causal", num_layers=2, d_model=256, num_heads=4,
            d_ff=1024,
            attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
        )
        result = GenerationSession(dense, plan=plan, prompt_len=512,
                                   generated_tokens=1).simulate()
        assert result.plan.value == plan
        assert result.prefill_time > 0

    def test_chunked_prefill_runs(self):
        result = GenerationSession(GPT_NEO_1_3B, prompt_len=2048,
                                   generated_tokens=2,
                                   prefill_chunk=512).simulate()
        assert result.prefill_time > 0
        # 4 chunks x 24 layers x 15 kernels per layer step.
        assert len(result.prefill.profile) == 4 * 24 * 15

    def test_chunking_costs_modest_latency(self):
        """Chunked prefill trades some latency for bounded memory."""
        whole = GenerationSession(GPT_NEO_1_3B, prompt_len=4096,
                                  generated_tokens=1).simulate()
        chunked = GenerationSession(GPT_NEO_1_3B, prompt_len=4096,
                                    generated_tokens=1,
                                    prefill_chunk=1024).simulate()
        ratio = chunked.prefill_time / whole.prefill_time
        assert 0.5 < ratio < 2.5

    def test_chunking_bounds_attention_memory(self):
        """The rectangular C x kv attention matrix is the peak; it is
        far smaller than the single-shot L x L matrix."""
        chunk, prompt = 512, 4096
        heads = GPT_NEO_1_3B.num_heads
        peak_chunked = heads * chunk * prompt * 2     # C x L fp16
        peak_whole = heads * prompt * prompt * 2      # L x L fp16
        assert peak_chunked == peak_whole // (prompt // chunk)


class TestAttendedLength:
    """A step launches the same kernels at its raw KV length as at its
    attended length, which is what the serving cost model keys its
    prices by."""

    @pytest.mark.parametrize("name", ["bert-large", "gpt-neo-1.3b",
                                      "bigbird-large", "longformer-large"])
    def test_kernels_match_at_the_attended_length(self, name):
        model, gpu = get_model(name), get_gpu("a100")
        clipped = 0
        for layer, spec, _ in model.layer_groups():
            for plan in PAPER_CANDIDATES:
                for t in (32, 64):
                    for m in (1, 4, 17):
                        graph = STEP_GRAPHS[step_shape_kind(spec, m)](plan)
                        edge = spec.window + m - 1
                        lengths = {t - 1, t, t + 1, 3 * t, 3 * t + 1,
                                   edge - 1, edge, edge + 1, edge + t}
                        for kv in sorted(k for k in lengths if k >= m):
                            attended = attended_length(
                                spec, graph, m_tokens=m, kv_len=kv, t=t)
                            assert attended_length(
                                spec, graph, m_tokens=m, kv_len=attended,
                                t=t) == attended
                            clipped += attended != kv
                            specs = [
                                [k.launch_spec(gpu)
                                 for k in attention_step_kernels(
                                     model, layer, m_tokens=m, kv_len=length,
                                     plan=plan, t=t, prefix="step")]
                                for length in (kv, attended)]
                            assert specs[0] == specs[1], (layer, plan, t, m,
                                                          kv)
        # Every preset pads under the decomposed plans.
        assert clipped
