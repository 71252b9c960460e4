"""Tests for the approximate softmax kernel family.

Three layers of checks: the numerics of each approximation against the
float64 exact reference (with the declared error-profile budgets as
the bound), the cost-model pricing (each kernel must actually be
cheaper than its exact counterpart where the design says so), and the
oracle hooks (profiles declared for both dtypes, registry wiring).
"""

import numpy as np
import pytest

from repro.common import DType
from repro.common.errors import ConfigError, ShapeError
from repro.gpu.costmodel import time_kernel
from repro.gpu.specs import get_gpu
from repro.kernels.approx import (
    ApproxRowSoftmaxKernel,
    BAPSSoftmaxKernel,
    FlashDAttentionKernel,
    baseline_softmax_counters,
    flash_softmax_counters,
    lut_exp,
    lut_exp_table,
    verification_oracles,
)
from repro.kernels.flash import TILE_KV, FlashAttentionKernel
from repro.kernels.softmax import RowSoftmaxKernel
from repro.verify.profiles import measure_error_profile
from repro.verify.refs import exact_attention, exact_softmax

A100 = get_gpu("A100")


def scores(rows, length, seed=0, scale=3.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((1, rows, length)) * scale).astype(
        np.float32
    )


class TestLutExp:
    def test_tracks_exp_within_table_resolution(self):
        rng = np.random.default_rng(7)
        z = -20.0 * rng.random(4096).astype(np.float32)
        approx = lut_exp(z, table_bits=8, degree=1)
        rel = np.abs(approx - np.exp(z.astype(np.float64))) / np.exp(
            z.astype(np.float64)
        )
        # First-order interpolation: error ~ (ln2/2)*(2^-bits)^2/4.
        assert float(rel.max()) < 2.0 ** (-2 * 8)

    def test_degree_one_beats_degree_zero(self):
        rng = np.random.default_rng(8)
        z = -10.0 * rng.random(4096).astype(np.float32)
        exact = np.exp(z.astype(np.float64))
        err0 = np.abs(lut_exp(z, degree=0) - exact).max()
        err1 = np.abs(lut_exp(z, degree=1) - exact).max()
        assert err1 < err0 / 16

    def test_more_bits_help(self):
        rng = np.random.default_rng(9)
        z = -5.0 * rng.random(1024).astype(np.float32)
        exact = np.exp(z.astype(np.float64))
        err4 = np.abs(lut_exp(z, table_bits=4) - exact).max()
        err10 = np.abs(lut_exp(z, table_bits=10) - exact).max()
        assert err10 < err4 / 100

    def test_masked_inputs_are_exact_zero(self):
        z = np.array([0.0, -np.inf, -1.0], dtype=np.float32)
        out = lut_exp(z)
        assert out[1] == 0.0
        assert out[0] == pytest.approx(1.0, rel=1e-3)

    def test_extreme_negatives_underflow_cleanly(self):
        z = np.array([-1e4, -3e4], dtype=np.float32)
        out = lut_exp(z)
        assert np.all(np.isfinite(out))
        assert np.all(out == 0.0)

    def test_table_shapes(self):
        assert lut_exp_table(6, 0).shape == (64,)
        assert lut_exp_table(6, 1)[0] == 1.0


class TestApproxRowSoftmax:
    def test_within_declared_fp32_budget(self):
        x = scores(64, 512, seed=1)
        kernel = ApproxRowSoftmaxKernel(64, 512, dtype=DType.FP32)
        profile = measure_error_profile(
            kernel.compute(x), exact_softmax(x), DType.FP32
        )
        # The registry's declared fp32 budget.
        assert profile.mean_rel_err < 2e-6
        assert profile.max_row_kl < 1e-6

    def test_rows_sum_to_one(self):
        x = scores(32, 300, seed=2)
        kernel = ApproxRowSoftmaxKernel(32, 300, dtype=DType.FP32)
        sums = kernel.compute(x).sum(axis=-1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-5)

    def test_masked_row_contract(self):
        x = scores(4, 64, seed=3)
        x[0, 0, :] = -np.inf
        x[0, 1, ::2] = -np.inf
        out = ApproxRowSoftmaxKernel(4, 64, dtype=DType.FP16).compute(x)
        assert np.all(out[0, 0] == 0.0)
        assert np.all(out[0, 1, ::2] == 0.0)
        assert out[0, 1].sum() == pytest.approx(1.0, abs=2e-3)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ApproxRowSoftmaxKernel(4, 64, table_bits=17)
        with pytest.raises(ConfigError):
            ApproxRowSoftmaxKernel(4, 64, degree=2)
        with pytest.raises(ShapeError):
            ApproxRowSoftmaxKernel(4, 64).compute(scores(4, 32, seed=4))

    def test_launch_carries_table_and_fewer_flops(self):
        kernel = ApproxRowSoftmaxKernel(1024, 2048, table_bits=10)
        base = RowSoftmaxKernel(1024, 2048)
        launch = kernel.launch_spec(A100)
        assert launch.tb.shared_mem == 2048 * 4 + kernel.table_bytes
        assert launch.cuda_flops < base.launch_spec(A100).cuda_flops
        assert launch.issue_fraction > base.launch_spec(A100).issue_fraction

    def test_strictly_faster_than_baseline(self):
        for length in (512, 1024, 4096):
            rows = 16 * length
            lut = ApproxRowSoftmaxKernel(rows, length)
            base = RowSoftmaxKernel(rows, length)
            t_lut = time_kernel(A100, lut.launch_spec(A100)).time
            t_base = time_kernel(A100, base.launch_spec(A100)).time
            assert t_lut < t_base

    def test_counters(self):
        kernel = ApproxRowSoftmaxKernel(8, 128, degree=1)
        counters = kernel.counters()
        assert counters["exp_ops"] == 0.0
        assert counters["lut_lookups"] == 8 * 128
        assert counters["div_ops"] == 8.0
        base = baseline_softmax_counters(8, 128, DType.FP16)
        assert base["div_ops"] == 8 * 128
        assert counters["dram_bytes"] == base["dram_bytes"]


class TestBAPSSoftmax:
    def test_within_declared_fp16_budget(self):
        x = scores(64, 512, seed=5)
        kernel = BAPSSoftmaxKernel(64, 512, dtype=DType.FP16)
        profile = measure_error_profile(
            kernel.compute(x), exact_softmax(DType.FP16.quantize(x)),
            DType.FP16,
        )
        assert profile.max_abs_err < 4e-3
        assert profile.max_row_kl < 1e-2

    def test_rows_sum_to_one_within_fp16_accumulation(self):
        x = scores(32, 1024, seed=6)
        out = BAPSSoftmaxKernel(32, 1024, dtype=DType.FP32).compute(x)
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=4e-3)

    def test_ragged_tail_padding(self):
        """Row lengths not divisible by the block size still work."""
        x = scores(8, 100, seed=7)
        kernel = BAPSSoftmaxKernel(8, 100, block_size=32,
                                   dtype=DType.FP32)
        out = kernel.compute(x)
        assert out.shape == x.shape
        assert kernel.num_blocks == 4
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=4e-3)

    def test_fp16_accumulation_is_real(self):
        """The block sums genuinely round to fp16: a random row picks
        up visible (but budgeted) error over the exact fp64 softmax."""
        x = scores(1, 2048, seed=20, scale=1.0)
        out = BAPSSoftmaxKernel(1, 2048, dtype=DType.FP32).compute(x)
        err = np.abs(out - exact_softmax(x)).max()
        assert 0 < err < 4e-3

    def test_masked_rows_and_blocks(self):
        x = scores(4, 128, seed=8)
        x[0, 0, :] = -np.inf          # fully masked row
        x[0, 1, :64] = -np.inf        # two fully masked blocks
        out = BAPSSoftmaxKernel(4, 128, block_size=32,
                                dtype=DType.FP32).compute(x)
        assert np.all(out[0, 0] == 0.0)
        assert np.all(out[0, 1, :64] == 0.0)
        assert out[0, 1].sum() == pytest.approx(1.0, abs=4e-3)

    def test_halved_row_staging(self):
        baps = BAPSSoftmaxKernel(1024, 4096)
        base = RowSoftmaxKernel(1024, 4096)
        assert (baps.launch_spec(A100).tb.shared_mem
                < base.launch_spec(A100).tb.shared_mem)

    def test_counters(self):
        counters = BAPSSoftmaxKernel(8, 128, block_size=32).counters()
        assert counters["fp16_accumulations"] == 8 * 128
        assert counters["exp_ops"] == 8 * 128 + 8 * 4
        assert counters["div_ops"] == 8.0


class TestFlashD:
    def test_matches_stock_flash(self):
        rng = np.random.default_rng(10)
        q, k, v = (rng.standard_normal((2, 300, 16)).astype(np.float32)
                   for _ in range(3))
        stock = FlashAttentionKernel(2, 300, 16, scale=0.25,
                                     dtype=DType.FP32)
        flashd = FlashDAttentionKernel(2, 300, 16, scale=0.25,
                                       dtype=DType.FP32)
        np.testing.assert_allclose(
            flashd.compute(q, k, v), stock.compute(q, k, v), atol=1e-5
        )

    def test_within_declared_fp16_budget(self):
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((2, 256, 64)).astype(np.float32)
                   for _ in range(3))
        kernel = FlashDAttentionKernel(2, 256, 64, scale=0.125,
                                       dtype=DType.FP16)
        expected, _, _ = exact_attention(q, k, v, DType.FP16, scale=0.125)
        profile = measure_error_profile(
            kernel.compute(q, k, v), expected, DType.FP16, row_kl=False
        )
        assert profile.max_abs_err < 8e-3
        assert profile.mean_rel_err < 1e-3

    def test_causal(self):
        rng = np.random.default_rng(12)
        length = 2 * TILE_KV
        q, k, v = (rng.standard_normal((2, length, 8)).astype(np.float32)
                   for _ in range(3))
        out = FlashDAttentionKernel(2, length, 8, scale=1.0, causal=True,
                                    dtype=DType.FP32).compute(q, k, v)
        np.testing.assert_allclose(out[:, 0], v[:, 0], atol=1e-5)
        v2 = v.copy()
        v2[:, -1] += 100
        out2 = FlashDAttentionKernel(2, length, 8, scale=1.0, causal=True,
                                     dtype=DType.FP32).compute(q, k, v2)
        np.testing.assert_array_equal(out[:, 0], out2[:, 0])

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("length", [256, 300, 77])
    @pytest.mark.parametrize("dtype", [DType.FP32, DType.FP16])
    def test_reference_runs_flashd(self, causal, length, dtype):
        """The tile-by-tile reference runs FLASH-D's own update and
        epilogue, so the batched kernel matches it bit for bit (whole
        tiles, a ragged tail tile, a single short tile)."""
        rng = np.random.default_rng(13)
        q, k, v = (rng.standard_normal((2, length, 64)).astype(np.float32)
                   for _ in range(3))
        kernel = FlashDAttentionKernel(2, length, 64, scale=0.125,
                                       causal=causal, dtype=dtype)
        np.testing.assert_array_equal(kernel.compute(q, k, v),
                                      kernel.compute_reference(q, k, v))

    def test_division_slots_returned(self):
        flashd = FlashDAttentionKernel(16, 2048, 64)
        stock = FlashAttentionKernel(16, 2048, 64)
        assert (flashd.launch_spec(A100).cuda_flops
                < stock.launch_spec(A100).cuda_flops)
        assert (time_kernel(A100, flashd.launch_spec(A100)).time
                <= time_kernel(A100, stock.launch_spec(A100)).time)

    def test_counters_fewer_divisions(self):
        flashd = FlashDAttentionKernel(16, 2048, 64).counters()
        stock = flash_softmax_counters(16, 2048, 64, DType.FP16)
        assert flashd["div_ops"] < stock["div_ops"]
        assert stock["div_ops"] == 16 * 2048 * 64


class TestOracles:
    def test_hook_shape(self):
        oracles = verification_oracles()
        assert [o.name for o in oracles] == [
            "softmax.lut_kernel",
            "softmax.baps_kernel",
            "attention.flashd_vs_exact",
        ]
        for oracle in oracles:
            assert oracle.profiles is not None
            assert set(oracle.profiles) == {DType.FP16, DType.FP32}
            assert "approx" in oracle.tags

    def test_contract_derived_from_profile(self):
        oracle = verification_oracles()[0]
        contract = oracle.contract_for(DType.FP32)
        profile = oracle.profile_for(DType.FP32)
        assert contract.atol == profile.max_abs_err
        assert contract.max_ulp == profile.max_ulp

    def test_registered_in_default_registry(self):
        from repro.verify.oracles import default_registry

        names = default_registry().names()
        assert "softmax.lut_kernel" in names
        assert "softmax.baps_kernel" in names
        assert "attention.flashd_vs_exact" in names

    def test_fuzz_smoke_measures_profiles(self):
        from repro.verify.fuzz import fuzz_family

        report = fuzz_family("softmax", cases=20, seed=123)
        assert report.ok, report.render()
        assert "softmax.lut_kernel" in report.profiles
        assert "softmax.baps_kernel" in report.profiles
        lut = report.profiles["softmax.lut_kernel"]
        assert lut["cases"] > 0
        assert lut["max_abs_err"] >= 0.0
        assert "profiles" in report.to_dict()
