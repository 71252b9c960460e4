"""Integration tests: the SDA block produces identical attention output
under every execution plan, dense and sparse."""

import numpy as np
import pytest

from repro.common import PlanError, ShapeError
from repro.common.dtypes import DType
from repro.core.plan import AttentionPlan
from repro.gpu import Device
from repro.kernels.softmax import safe_softmax
from repro.models import AttentionKind, AttentionSpec, SDABlock

ALL_PLANS = ["baseline", "sd", "sdf", "sdf-ls-only", "sdf-gs-only"]


def make_qkv(batch_heads, seq_len, d_head, seed=0):
    rng = np.random.default_rng(seed)
    return tuple(
        rng.standard_normal((batch_heads, seq_len, d_head)).astype(np.float32)
        for _ in range(3)
    )


def dense_reference(q, k, v, causal=False):
    d = q.shape[-1]
    scores = np.matmul(q, np.swapaxes(k, 1, 2), dtype=np.float32) / np.sqrt(d)
    if causal:
        L = q.shape[1]
        scores = scores + np.where(
            np.arange(L)[None, :] > np.arange(L)[:, None], -np.inf, 0.0
        )
    return np.matmul(safe_softmax(scores), v, dtype=np.float32)


class TestDensePlans:
    SPEC = AttentionSpec(kind=AttentionKind.DENSE)

    @pytest.mark.parametrize("plan", ALL_PLANS + ["online"])
    def test_all_plans_match_reference(self, plan):
        q, k, v = make_qkv(4, 128, 32, seed=1)
        block = SDABlock(batch=2, num_heads=2, seq_len=128, d_head=32,
                         spec=self.SPEC, plan=plan, t=32)
        out = block.forward(q, k, v)
        np.testing.assert_allclose(
            out, dense_reference(q, k, v), atol=5e-3, rtol=5e-3
        )

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_plans_agree_pairwise(self, plan):
        q, k, v = make_qkv(4, 64, 16, seed=2)
        kwargs = dict(batch=2, num_heads=2, seq_len=64, d_head=16,
                      spec=self.SPEC, t=16)
        baseline = SDABlock(plan="baseline", **kwargs).forward(q, k, v)
        other = SDABlock(plan=plan, **kwargs).forward(q, k, v)
        np.testing.assert_allclose(other, baseline, atol=5e-3)

    def test_causal_masking(self):
        q, k, v = make_qkv(2, 32, 8, seed=3)
        spec = AttentionSpec(kind=AttentionKind.DENSE_CAUSAL)
        for plan in ("baseline", "sdf"):
            block = SDABlock(batch=1, num_heads=2, seq_len=32, d_head=8,
                             spec=spec, plan=plan, t=8)
            out = block.forward(q, k, v)
            np.testing.assert_allclose(
                out, dense_reference(q, k, v, causal=True), atol=5e-3
            )

    def test_causal_first_token_sees_only_itself(self):
        q, k, v = make_qkv(2, 16, 8, seed=4)
        spec = AttentionSpec(kind=AttentionKind.DENSE_CAUSAL)
        block = SDABlock(batch=1, num_heads=2, seq_len=16, d_head=8,
                         spec=spec, plan="baseline")
        out = block.forward(q, k, v)
        np.testing.assert_allclose(out[:, 0], np.float16(v[:, 0]), atol=1e-3)

    @pytest.mark.parametrize("plan", [p.value for p in AttentionPlan])
    def test_causal_queries_end_aligned_over_longer_kv(self, plan):
        """32 causal queries over 128 keys are the last 32 positions:
        query i sees keys 0 .. 96 + i.  Every plan that builds the shape
        matches a float64 reference."""
        m, kv, d = 32, 128, 64
        rng = np.random.default_rng(7)
        q = rng.standard_normal((4, m, d)).astype(np.float32)
        k, v = (rng.standard_normal((4, kv, d)).astype(np.float32)
                for _ in range(2))
        try:
            block = SDABlock(batch=1, num_heads=4, seq_len=m, kv_seq_len=kv,
                             d_head=d, spec=AttentionSpec(
                                 kind=AttentionKind.DENSE_CAUSAL),
                             plan=plan, dtype=DType.FP32)
        except PlanError:
            assert plan in ("fused-mha", "flash")
            return
        scores = np.matmul(q.astype(np.float64),
                           np.swapaxes(k, 1, 2).astype(np.float64)) / 8.0
        future = np.arange(kv)[None, :] > (kv - m + np.arange(m))[:, None]
        scores = np.where(future, -np.inf, scores)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(block.forward(q, k, v), probs @ v,
                                   atol=2e-6)

    def test_causal_kv_shorter_than_queries_rejected(self):
        with pytest.raises(ShapeError, match="kv_seq_len >= seq_len"):
            SDABlock(batch=1, num_heads=2, seq_len=128, kv_seq_len=64,
                     d_head=8, spec=AttentionSpec(
                         kind=AttentionKind.DENSE_CAUSAL))

    def test_shape_validation(self):
        block = SDABlock(batch=1, num_heads=2, seq_len=32, d_head=8,
                         spec=self.SPEC)
        q, k, v = make_qkv(2, 32, 8)
        with pytest.raises(ShapeError):
            block.forward(q[:, :16], k, v)

    def test_kernel_counts_per_plan(self):
        kwargs = dict(batch=1, num_heads=2, seq_len=64, d_head=16,
                      spec=self.SPEC, t=16)
        assert len(SDABlock(plan="baseline", **kwargs).kernels) == 3
        assert len(SDABlock(plan="sd", **kwargs).kernels) == 5
        assert len(SDABlock(plan="sdf", **kwargs).kernels) == 3
        assert len(SDABlock(plan="sdf-ls-only", **kwargs).kernels) == 4


class TestSparsePlans:
    SPEC = AttentionSpec(kind=AttentionKind.BIGBIRD, block_size=16,
                         window_blocks=3, random_blocks=2, global_blocks=1)

    @pytest.mark.parametrize("plan", ALL_PLANS)
    def test_sparse_plans_agree(self, plan):
        q, k, v = make_qkv(4, 256, 16, seed=5)
        kwargs = dict(batch=2, num_heads=2, seq_len=256, d_head=16,
                      spec=self.SPEC, t=16)
        baseline = SDABlock(plan="baseline", **kwargs).forward(q, k, v)
        other = SDABlock(plan=plan, **kwargs).forward(q, k, v)
        np.testing.assert_allclose(other, baseline, atol=5e-3)

    def test_sparse_matches_masked_dense(self):
        q, k, v = make_qkv(2, 128, 16, seed=6)
        spec = AttentionSpec(kind=AttentionKind.LONGFORMER, block_size=16,
                             window=32, global_blocks=1)
        block = SDABlock(batch=1, num_heads=2, seq_len=128, d_head=16,
                         spec=spec, plan="sdf", t=16)
        out = block.forward(q, k, v)

        layout = spec.layout(128)
        scores = np.matmul(q, np.swapaxes(k, 1, 2), dtype=np.float32) / 4.0
        scores = np.where(layout.element_mask(), scores, -np.inf)
        expected = np.matmul(safe_softmax(scores), v, dtype=np.float32)
        np.testing.assert_allclose(out, expected, atol=5e-3)

    def test_local_causal_gpt_neo_layer(self):
        q, k, v = make_qkv(2, 128, 16, seed=7)
        spec = AttentionSpec(kind=AttentionKind.LOCAL_CAUSAL, block_size=16,
                             window=64)
        kwargs = dict(batch=1, num_heads=2, seq_len=128, d_head=16,
                      spec=spec, t=16)
        baseline = SDABlock(plan="baseline", **kwargs).forward(q, k, v)
        sdf = SDABlock(plan="sdf", **kwargs).forward(q, k, v)
        np.testing.assert_allclose(sdf, baseline, atol=5e-3)

        # Causality: output at position i is independent of future tokens.
        v2 = v.copy()
        v2[:, -1] += 100.0
        out2 = SDABlock(plan="baseline", **kwargs).forward(q, k, v2)
        np.testing.assert_array_equal(baseline[:, 0], out2[:, 0])

    def test_online_plan_rejected_for_sparse(self):
        with pytest.raises(PlanError):
            SDABlock(batch=1, num_heads=1, seq_len=256, d_head=16,
                     spec=self.SPEC, plan="online")


class TestSimulation:
    def test_simulate_records_kernels(self):
        device = Device("A100")
        block = SDABlock(batch=1, num_heads=16, seq_len=4096, d_head=64,
                         spec=AttentionSpec(kind=AttentionKind.DENSE),
                         plan="sdf")
        block.simulate(device)
        assert len(device.profile) == 3

    def test_sdf_cuts_dense_sda_traffic_in_half(self):
        """Fig. 6 at the SDA-block level."""
        spec = AttentionSpec(kind=AttentionKind.DENSE)
        kwargs = dict(batch=1, num_heads=16, seq_len=4096, d_head=64,
                      spec=spec)
        traffic = {}
        for plan in ("baseline", "sdf"):
            device = Device("A100")
            SDABlock(plan=plan, **kwargs).simulate(device)
            traffic[plan] = device.profile.total_dram_bytes()
        assert traffic["sdf"] < 0.6 * traffic["baseline"]

    def test_sd_increases_dense_traffic(self):
        """SD alone adds sweeps (4 -> 6): more traffic than baseline."""
        spec = AttentionSpec(kind=AttentionKind.DENSE)
        kwargs = dict(batch=1, num_heads=16, seq_len=4096, d_head=64,
                      spec=spec)
        traffic = {}
        for plan in ("baseline", "sd"):
            device = Device("A100")
            SDABlock(plan=plan, **kwargs).simulate(device)
            traffic[plan] = device.profile.total_dram_bytes()
        assert traffic["sd"] > 1.3 * traffic["baseline"]
