"""Tests for the fused MatMul+LS and GS+MatMul kernels (Section 3.3)."""

import numpy as np
import pytest

from repro.common import DType, ShapeError
from repro.gpu import A100
from repro.kernels import (
    FusedGSMatMulKernel,
    FusedMatMulLSKernel,
    InterReductionKernel,
    MatMulKernel,
    RowSoftmaxKernel,
)
from repro.core import AttentionPlan
from repro.core.recompose import build_kernels
from repro.models.attention import BLOCK_TILES, dense_attention_table


def attention_reference(q, k, v, scale):
    """Baseline pipeline: MatMul -> scale -> softmax -> MatMul, fp16."""
    batch, m, d = q.shape
    score = MatMulKernel(batch=batch, m=m, n=m, k=d, dtype=DType.FP16,
                         epilogue=lambda x: x * scale)
    soft = RowSoftmaxKernel(rows=batch * m, length=m, dtype=DType.FP16)
    value = MatMulKernel(batch=batch, m=m, n=d, k=m, dtype=DType.FP16)
    return value.compute(soft.compute(score.compute(q, np.swapaxes(k, 1, 2))),
                         v)


def attention_fused(q, k, v, scale, t):
    """SDF pipeline: (MatMul+LS) -> IR -> (GS+MatMul), fp16."""
    batch, m, d = q.shape
    qk_ls = FusedMatMulLSKernel(
        batch=batch, m=m, n=m, k=d, t=t, dtype=DType.FP16,
        pre_softmax_epilogue=lambda x: x * scale,
        pre_softmax_flops_per_element=1.0,
    )
    ir = InterReductionKernel(rows=batch * m, mean_subvectors=m // t)
    gs_av = FusedGSMatMulKernel(batch=batch, m=m, n=d, k=m, t=t,
                                dtype=DType.FP16)
    x_prime, m_prime, d_prime = qk_ls.compute(q, np.swapaxes(k, 1, 2))
    r_prime = ir.compute(m_prime, d_prime)
    return gs_av.compute(x_prime, r_prime, v)


class TestFusedNumerics:
    @pytest.mark.parametrize("t", [16, 32, 64])
    def test_fused_equals_baseline(self, t):
        r = np.random.default_rng(9)
        q = r.standard_normal((2, 64, 16)).astype(np.float32)
        k = r.standard_normal((2, 64, 16)).astype(np.float32)
        v = r.standard_normal((2, 64, 16)).astype(np.float32)
        scale = 1.0 / np.sqrt(16)
        baseline = attention_reference(q, k, v, scale)
        fused = attention_fused(q, k, v, scale, t)
        # fp16 storage rounding differs slightly between the two orders.
        np.testing.assert_allclose(fused, baseline, atol=5e-3, rtol=5e-3)

    def test_fused_ls_outputs_local_statistics(self):
        r = np.random.default_rng(10)
        q = r.standard_normal((1, 32, 8)).astype(np.float32)
        k = r.standard_normal((1, 32, 8)).astype(np.float32)
        kernel = FusedMatMulLSKernel(batch=1, m=32, n=32, k=8, t=8)
        x_prime, m_prime, d_prime = kernel.compute(q, np.swapaxes(k, 1, 2))
        assert x_prime.shape == (1, 32, 32)
        assert m_prime.shape == (1, 32, 4)
        assert d_prime.shape == (1, 32, 4)
        # Locally normalised sub-vectors each sum to 1.
        sums = x_prime.reshape(1, 32, 4, 8).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=2e-2)

    def test_gs_matmul_rejects_bad_r_shape(self):
        kernel = FusedGSMatMulKernel(batch=1, m=16, n=8, k=16, t=4)
        with pytest.raises(ShapeError):
            kernel.compute(
                np.zeros((1, 16, 16)), np.zeros((1, 16, 2)), np.zeros((1, 16, 8))
            )

    def test_t_must_divide_row_length(self):
        with pytest.raises(ShapeError):
            FusedMatMulLSKernel(batch=1, m=16, n=30, k=8, t=8)
        with pytest.raises(ShapeError):
            FusedGSMatMulKernel(batch=1, m=16, n=8, k=30, t=8)


class TestFusedTraffic:
    """Fig. 6: fusion halves attention-matrix off-chip accesses."""

    BH, L, D, T = 16, 4096, 64, 64

    def sda_kernels(self, plan):
        """The SDA block's kernels under ``plan``, without the scale/mask
        epilogue, from the dense attention table."""
        table = dense_attention_table(
            batch_heads=self.BH, m=self.L, kv_len=self.L, d_head=self.D,
            t=self.T, dtype=DType.FP16, tiles=BLOCK_TILES)
        return build_kernels(plan, table)

    def unfused_kernels(self):
        return self.sda_kernels(AttentionPlan.DECOMPOSED)

    def fused_kernels(self):
        return self.sda_kernels(AttentionPlan.RECOMPOSED)

    def total_traffic(self, kernels):
        return sum(k.launch_spec(A100).dram_bytes for k in kernels)

    def test_attention_matrix_sweeps_halved(self):
        matrix_bytes = self.BH * self.L * self.L * 2
        unfused = self.total_traffic(self.unfused_kernels())
        fused = self.total_traffic(self.fused_kernels())
        # Decomposed-unfused sweeps the matrix 6x (QK write, LS r/w,
        # GS r/w, AV read); fused does write-once + read-once plus the
        # small Q/K/V and m'/d'/r' traffic.
        assert unfused > 5.5 * matrix_bytes
        assert fused == pytest.approx(2 * matrix_bytes, rel=0.15)
        assert fused > 2 * matrix_bytes

    def test_intermediate_overhead_below_ten_percent(self):
        """m', d', r' traffic added to MatMul is < 9.3% of the original
        softmax traffic (Section 5.1)."""
        softmax_traffic = 2 * self.BH * self.L * self.L * 2
        fused_mm = FusedMatMulLSKernel(batch=self.BH, m=self.L, n=self.L,
                                       k=self.D, t=self.T)
        plain_mm = MatMulKernel(batch=self.BH, m=self.L, n=self.L,
                                k=self.D, tile_n=self.T)
        extra = (fused_mm.launch_spec(A100).dram_bytes
                 - plain_mm.launch_spec(A100).dram_bytes)
        assert extra / softmax_traffic < 0.093

    def test_fused_adds_cuda_flops_to_matmul(self):
        fused = FusedMatMulLSKernel(batch=self.BH, m=self.L, n=self.L,
                                    k=self.D, t=self.T)
        plain = MatMulKernel(batch=self.BH, m=self.L, n=self.L, k=self.D)
        assert fused.launch_spec(A100).cuda_flops > 0
        assert plain.launch_spec(A100).cuda_flops == 0
        assert fused.launch_spec(A100).tensor_flops == pytest.approx(
            plain.launch_spec(A100).tensor_flops
        )
