"""Tests for GPU specifications (Table 1 of the paper)."""

import dataclasses

import pytest

from repro.common import ConfigError, GB, KIB, MIB, TERA
from repro.gpu import A100, RTX3090, T4, get_gpu
from repro.gpu.specs import all_gpus


class TestTable1:
    """The presets must encode Table 1 verbatim."""

    def test_memory_bandwidth(self):
        assert A100.mem_bandwidth == 1_555 * GB
        assert RTX3090.mem_bandwidth == pytest.approx(936.2 * GB)
        assert T4.mem_bandwidth == 320 * GB

    def test_fp16_cuda_tflops(self):
        assert A100.fp16_cuda_flops == pytest.approx(42.3 * TERA)
        assert RTX3090.fp16_cuda_flops == pytest.approx(29.3 * TERA)
        assert T4.fp16_cuda_flops == pytest.approx(24.0 * TERA)

    def test_fp16_tensor_tflops(self):
        assert A100.fp16_tensor_flops == pytest.approx(169 * TERA)
        assert RTX3090.fp16_tensor_flops == pytest.approx(58 * TERA)
        assert T4.fp16_tensor_flops == pytest.approx(24.0 * TERA)

    def test_l1_per_sm(self):
        assert A100.l1_per_sm == 192 * KIB
        assert RTX3090.l1_per_sm == 128 * KIB
        assert T4.l1_per_sm == 64 * KIB

    def test_l2_size(self):
        assert A100.l2_size == 40 * MIB
        assert RTX3090.l2_size == 6 * MIB
        assert T4.l2_size == 4 * MIB


class TestSpecProperties:
    def test_max_warps(self):
        assert A100.max_warps_per_sm == 64
        assert RTX3090.max_warps_per_sm == 48
        assert T4.max_warps_per_sm == 32

    def test_tb_slots(self):
        assert A100.tb_slots == 108 * 32

    def test_saturation_warps_positive(self):
        for spec in all_gpus():
            assert spec.saturation_warps_per_sm(512.0) > 0

    def test_saturation_warps_scales_inverse_with_mlp(self):
        low = A100.saturation_warps_per_sm(128.0)
        high = A100.saturation_warps_per_sm(512.0)
        assert low == pytest.approx(4 * high)

    def test_saturation_rejects_bad_mlp(self):
        with pytest.raises(ConfigError):
            A100.saturation_warps_per_sm(0)

    def test_invalid_carveout_rejected(self):
        with pytest.raises(ConfigError, match="carve-out"):
            dataclasses.replace(A100, max_shared_mem_per_sm=A100.l1_per_sm + 1)


class TestLookup:
    @pytest.mark.parametrize(
        "name,expected",
        [("a100", A100), ("A100", A100), ("rtx 3090", RTX3090),
         ("RTX-3090", RTX3090), ("t4", T4)],
    )
    def test_get_gpu(self, name, expected):
        assert get_gpu(name) is expected

    def test_get_gpu_unknown(self):
        with pytest.raises(ConfigError, match="unknown GPU"):
            get_gpu("mi300")

    def test_get_gpu_returns_a_spec_unchanged(self):
        custom = dataclasses.replace(A100, name="custom-a100")
        assert get_gpu(custom) is custom
        assert get_gpu(T4) is T4
        with pytest.raises(ConfigError, match="unknown GPU"):
            get_gpu("custom-a100")

    def test_h100_future_gpu_available(self):
        """H100 is provided for the Section 2.3 future-GPU projection
        (not part of Table 1, so absent from all_gpus())."""
        h100 = get_gpu("h100")
        assert h100.name == "H100"
        assert h100 not in all_gpus()

    def test_all_gpus_order(self):
        assert [spec.name for spec in all_gpus()] == ["A100", "RTX 3090", "T4"]


class TestExtraGenerations:
    """V100 and H100 are provided beyond Table 1 for the Section 2.3
    generational trend."""

    def test_v100_available(self):
        v100 = get_gpu("v100")
        assert v100.name == "V100"
        assert v100 not in all_gpus()

    def test_machine_balance_grows_across_generations(self):
        """T4 -> A100 -> H100 machine balance rises monotonically (the
        Section 2.3 memory wall); V100's base-clock balance sits near
        the A100's — HBM2e's bandwidth jump briefly kept pace."""
        from repro.gpu.roofline import machine_balance

        balances = [machine_balance(get_gpu(name))
                    for name in ("t4", "a100", "h100")]
        assert balances == sorted(balances)
        v100 = machine_balance(get_gpu("v100"))
        assert abs(v100 - machine_balance(get_gpu("a100"))) < 15

    def test_recomposition_works_on_every_generation(self):
        from repro.models import InferenceSession

        for name in ("v100", "h100"):
            base = InferenceSession("bert-large", gpu=name,
                                    plan="baseline", seq_len=2048).simulate()
            sdf = InferenceSession("bert-large", gpu=name,
                                   plan="sdf", seq_len=2048).simulate()
            assert sdf.total_time < base.total_time, name
