"""Tests for the tiled MatMul kernel: numerics and traffic accounting."""

import numpy as np
import pytest

from repro.common import DType, ShapeError
from repro.gpu import A100, T4
from repro.kernels import MatMulKernel
from repro.models.attention import BLOCK_TILES, dense_attention_table


def rng():
    return np.random.default_rng(7)


def sda_matmul(role, batch_heads, seq_len, d_head):
    """An SDA block's unfused ``qk`` or ``av`` MatMul, from the dense
    attention table (no scale/mask epilogue)."""
    return dense_attention_table(
        batch_heads=batch_heads, m=seq_len, kv_len=seq_len, d_head=d_head,
        t=64, dtype=DType.FP16, tiles=BLOCK_TILES)[role]()


class TestNumerics:
    def test_matches_numpy_fp32(self):
        r = rng()
        a = r.standard_normal((2, 16, 8)).astype(np.float32)
        b = r.standard_normal((2, 8, 12)).astype(np.float32)
        kernel = MatMulKernel(batch=2, m=16, n=12, k=8, dtype=DType.FP32)
        np.testing.assert_allclose(
            kernel.compute(a, b), np.matmul(a, b), rtol=1e-6
        )

    def test_fp16_storage_rounds_operands(self):
        r = rng()
        a = r.standard_normal((1, 4, 4)).astype(np.float64)
        b = r.standard_normal((1, 4, 4)).astype(np.float64)
        kernel = MatMulKernel(batch=1, m=4, n=4, k=4, dtype=DType.FP16)
        expected = np.float16(
            np.matmul(np.float16(a).astype(np.float32),
                      np.float16(b).astype(np.float32))
        ).astype(np.float32)
        np.testing.assert_array_equal(kernel.compute(a, b), expected)

    def test_shared_weight_operand(self):
        r = rng()
        a = r.standard_normal((3, 5, 4)).astype(np.float32)
        w = r.standard_normal((4, 6)).astype(np.float32)
        kernel = MatMulKernel(batch=3, m=5, n=6, k=4, b_shared=True,
                              dtype=DType.FP32)
        np.testing.assert_allclose(kernel.compute(a, w), a @ w, rtol=1e-6)

    def test_epilogue_applied(self):
        a = np.ones((1, 2, 2), dtype=np.float32)
        b = np.ones((1, 2, 2), dtype=np.float32)
        kernel = MatMulKernel(batch=1, m=2, n=2, k=2, dtype=DType.FP32,
                              epilogue=lambda x: x * 0.5)
        np.testing.assert_allclose(kernel.compute(a, b), np.ones((1, 2, 2)))

    def test_rejects_wrong_shapes(self):
        kernel = MatMulKernel(batch=1, m=4, n=4, k=4)
        with pytest.raises(ShapeError):
            kernel.compute(np.zeros((1, 4, 5)), np.zeros((1, 4, 4)))
        with pytest.raises(ShapeError):
            kernel.compute(np.zeros((1, 4, 4)), np.zeros((1, 5, 4)))


class TestCost:
    def test_flops(self):
        kernel = MatMulKernel(batch=4, m=128, n=256, k=64)
        assert kernel.flops() == 2 * 4 * 128 * 256 * 64

    def test_grid_one_tb_per_tile(self):
        kernel = MatMulKernel(batch=2, m=256, n=384, k=64,
                              tile_m=128, tile_n=128)
        assert kernel.grid == 2 * 2 * 3

    def test_small_operands_read_once(self):
        """Operands below half L2 stream from DRAM exactly once."""
        kernel = MatMulKernel(batch=1, m=1024, n=1024, k=64, dtype=DType.FP16)
        launch = kernel.launch_spec(A100)
        expected_reads = (1024 * 64 + 64 * 1024) * 2
        assert launch.dram_read_bytes == expected_reads

    def test_output_written_once(self):
        kernel = MatMulKernel(batch=1, m=1024, n=1024, k=64, dtype=DType.FP16)
        launch = kernel.launch_spec(A100)
        assert launch.dram_write_bytes == 1024 * 1024 * 2

    def test_large_operand_rereads_on_small_l2(self):
        """An operand that exceeds L2 is re-read once per crossing tile wave."""
        # Each operand is 2048 x 2048 fp16 = 8 MiB: resident in A100's
        # 40 MB L2, not in T4's 4 MB.
        kernel = MatMulKernel(batch=1, m=2048, n=2048, k=2048,
                              dtype=DType.FP16, tile_m=128, tile_n=128)
        reads_a100 = kernel.launch_spec(A100).dram_read_bytes
        reads_t4 = kernel.launch_spec(T4).dram_read_bytes
        assert reads_a100 == 2 * 2048 * 2048 * 2
        assert reads_t4 == 16 * reads_a100  # 2048/128 crossings each

    def test_shared_operand_counted_once_across_batch(self):
        shared = MatMulKernel(batch=8, m=512, n=512, k=512, b_shared=True,
                              dtype=DType.FP16)
        unshared = MatMulKernel(batch=8, m=512, n=512, k=512,
                                dtype=DType.FP16)
        assert (shared.launch_spec(A100).dram_read_bytes
                < unshared.launch_spec(A100).dram_read_bytes)

    def test_attention_matmul_memory_bound_at_long_seq(self):
        """Q.K^T at L=4096 is memory bound on A100 (intensity ~62 < 108)."""
        from repro.gpu.costmodel import time_kernel

        kernel = sda_matmul("qk", batch_heads=16, seq_len=4096, d_head=64)
        timing = time_kernel(A100, kernel.launch_spec(A100))
        assert timing.bound == "memory"

    def test_fc_matmul_compute_bound(self):
        """A D_m x D_m FC projection at L=4096 is compute bound on A100."""
        from repro.gpu.costmodel import time_kernel

        kernel = MatMulKernel(batch=1, m=4096, n=1024, k=1024, b_shared=True)
        timing = time_kernel(A100, kernel.launch_spec(A100))
        assert timing.bound == "compute"

    def test_av_matmul_writes_small_output(self):
        kernel = sda_matmul("av", batch_heads=16, seq_len=4096, d_head=64)
        launch = kernel.launch_spec(A100)
        assert launch.dram_write_bytes == 16 * 4096 * 64 * 2
        # It must *read* the big attention matrix once.
        assert launch.dram_read_bytes >= 16 * 4096 * 4096 * 2
