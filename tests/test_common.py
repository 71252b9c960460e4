"""Unit tests for the repro.common substrate."""

import numpy as np
import pytest

from repro.common import DType, ConfigError, ShapeError
from repro.common.validation import (
    require_divisible,
    require_non_negative,
    require_positive,
    require_power_of_two,
)


class TestDType:
    def test_fp16_nbytes(self):
        assert DType.FP16.nbytes == 2

    def test_fp32_nbytes(self):
        assert DType.FP32.nbytes == 4

    def test_numpy_types(self):
        assert DType.FP16.np is np.float16
        assert DType.FP32.np is np.float32

    def test_quantize_fp16_rounds(self):
        value = np.array([1.0 + 2**-12], dtype=np.float64)
        quantized = DType.FP16.quantize(value)
        assert quantized.dtype == np.float32
        assert quantized[0] == np.float32(np.float16(value[0]))

    def test_quantize_fp32_keeps_value(self):
        value = np.array([1.0 + 2**-12])
        quantized = DType.FP32.quantize(value)
        assert quantized.dtype == np.float32
        np.testing.assert_allclose(quantized, value.astype(np.float32))

    def test_quantize_fp16_returns_float32_storage(self):
        out = DType.FP16.quantize(np.ones((3, 3)))
        assert out.dtype == np.float32

    def test_str(self):
        assert str(DType.FP16) == "fp16"
        assert str(DType.FP32) == "fp32"


class TestValidation:
    def test_require_positive_accepts(self):
        require_positive("x", 1)

    def test_require_positive_rejects_zero(self):
        with pytest.raises(ConfigError, match="x must be positive"):
            require_positive("x", 0)

    def test_require_non_negative_accepts_zero(self):
        require_non_negative("x", 0)

    def test_require_non_negative_rejects(self):
        with pytest.raises(ConfigError):
            require_non_negative("x", -1)

    def test_nan_is_neither_positive_nor_non_negative(self):
        with pytest.raises(ConfigError, match="x must be positive"):
            require_positive("x", float("nan"))
        with pytest.raises(ConfigError, match="x must be non-negative"):
            require_non_negative("x", float("nan"))

    def test_require_divisible_accepts(self):
        require_divisible("L", 4096, 64)

    def test_require_divisible_rejects(self):
        with pytest.raises(ShapeError, match="divisible"):
            require_divisible("L", 100, 64)

    def test_require_divisible_bad_divisor(self):
        with pytest.raises(ConfigError):
            require_divisible("L", 100, 0)

    def test_require_power_of_two_accepts(self):
        for value in (1, 2, 64, 4096):
            require_power_of_two("T", value)

    @pytest.mark.parametrize("value", [0, 3, 12, -4])
    def test_require_power_of_two_rejects(self, value):
        with pytest.raises(ConfigError):
            require_power_of_two("T", value)
