"""Tiled MatMul kernel with the outer-product dataflow.

Models the CUTLASS-style GEMM the paper uses as its baseline SDA
MatMul [2]: the output matrix is divided into ``tile_m x tile_n``
tiles, one per thread block; each block streams LHS columns and RHS
rows through a double-buffered shared-memory pipeline, accumulates the
output tile in registers, and writes it once (Fig. 3(b)).

Traffic accounting follows the tiling: an operand streams from DRAM
once if it fits in (half of) the L2 cache — weights and the small
per-head Q/K/V matrices do — and once per crossing tile wave otherwise.
An optional element-wise epilogue (scale, mask, bias) adds CUDA-core
FLOPs but no traffic, which is exactly why those layers are "free" to
fuse (Section 2.3).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ShapeError
from repro.common.validation import require_positive
from repro.gpu.costmodel import (
    KernelLaunch,
    MLP_MATMUL,
    WorkloadShape,
)
from repro.gpu.occupancy import TBResources
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel, ceil_div


class MatMulKernel(Kernel):
    """Batched ``(batch, m, k) @ (batch, k, n)`` on the tensor cores.

    Parameters
    ----------
    batch, m, n, k:
        Logical GEMM shape.  ``batch`` covers both the inference batch
        and the attention heads (folded together, as the SDA block
        launches all heads in one kernel).
    a_shared, b_shared:
        Operand is shared across the batch (e.g. a weight matrix);
        its bytes are counted once instead of per batch item.
    epilogue:
        Optional element-wise function applied to the fp32 accumulator
        before the output is stored (scale/mask fusion).
    epilogue_flops_per_element:
        CUDA-core FLOPs the epilogue costs per output element.
    """

    def __init__(
        self,
        batch: int,
        m: int,
        n: int,
        k: int,
        *,
        dtype: DType = DType.FP16,
        tile_m: int = 128,
        tile_n: int = 128,
        tile_k: int = 32,
        threads: int = 256,
        a_shared: bool = False,
        b_shared: bool = False,
        epilogue: Optional[Callable[[np.ndarray], np.ndarray]] = None,
        epilogue_flops_per_element: float = 0.0,
        name: str = "matmul",
        category: str = CATEGORY.MATMUL,
    ) -> None:
        for label, value in (("batch", batch), ("m", m), ("n", n), ("k", k)):
            require_positive(label, value)
        require_positive("tile_m", tile_m)
        require_positive("tile_n", tile_n)
        require_positive("tile_k", tile_k)
        self.batch = batch
        self.m, self.n, self.k = m, n, k
        self.dtype = dtype
        self.tile_m, self.tile_n, self.tile_k = tile_m, tile_n, tile_k
        self.threads = threads
        self.a_shared = a_shared
        self.b_shared = b_shared
        self.epilogue = epilogue
        self.epilogue_flops_per_element = epilogue_flops_per_element
        self.name = name
        self.category = category

    # -- cost ----------------------------------------------------------

    @property
    def grid(self) -> int:
        """Thread blocks launched: one per output tile per batch item."""
        return self.batch * ceil_div(self.m, self.tile_m) * ceil_div(self.n, self.tile_n)

    def _tb_resources(self) -> TBResources:
        # Double-buffered LHS and RHS tiles live in shared memory; the
        # output tile lives in the register file.
        stage = (self.tile_m * self.tile_k + self.tile_k * self.tile_n)
        shared = 2 * stage * self.dtype.nbytes
        return TBResources(threads=self.threads, shared_mem=shared,
                           registers_per_thread=128)

    def _operand_read_bytes(
        self, spec: GPUSpec, elements: int, shared: bool, crossings: int
    ) -> float:
        """DRAM bytes to stream one operand.

        ``crossings`` is how many tile waves traverse the operand (the
        outer-product dataflow re-reads the LHS for every column of
        output tiles and vice versa) — unless the operand is resident
        in L2, in which case it streams from DRAM once.
        """
        copies = 1 if shared else self.batch
        operand_bytes = elements * self.dtype.nbytes * copies
        if operand_bytes <= spec.l2_size / 2:
            return float(operand_bytes)
        return float(operand_bytes) * crossings

    def flops(self) -> float:
        """Tensor-core FLOPs of the full batched GEMM."""
        return 2.0 * self.batch * self.m * self.n * self.k

    def output_bytes(self) -> float:
        """Bytes written for the output matrix."""
        return float(self.batch * self.m * self.n * self.dtype.nbytes)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        read_a = self._operand_read_bytes(
            spec, self.m * self.k, self.a_shared, ceil_div(self.n, self.tile_n)
        )
        read_b = self._operand_read_bytes(
            spec, self.k * self.n, self.b_shared, ceil_div(self.m, self.tile_m)
        )
        epilogue_flops = (
            self.epilogue_flops_per_element * self.batch * self.m * self.n
        )
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=self._tb_resources(),
            shape=WorkloadShape(grid=self.grid),
            dram_read_bytes=read_a + read_b + self._extra_read_bytes(),
            dram_write_bytes=self.output_bytes() + self._extra_write_bytes(),
            tensor_flops=self.flops(),
            cuda_flops=epilogue_flops + self._extra_cuda_flops(),
            bytes_in_flight_per_warp=MLP_MATMUL,
        )

    # Hooks for fused subclasses (extra traffic / FLOPs beyond the GEMM).
    def _extra_read_bytes(self) -> float:
        return 0.0

    def _extra_write_bytes(self) -> float:
        return 0.0

    def _extra_cuda_flops(self) -> float:
        return 0.0

    # -- numerics ------------------------------------------------------

    def _check_operands(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        expect_a = (self.batch, self.m, self.k)
        expect_b = (self.batch, self.k, self.n)
        if self.a_shared:
            expect_a = (self.m, self.k)
        if self.b_shared:
            expect_b = (self.k, self.n)
        if tuple(a.shape) != expect_a:
            raise ShapeError(f"{self.name}: LHS shape {a.shape}, expected {expect_a}")
        if tuple(b.shape) != expect_b:
            raise ShapeError(f"{self.name}: RHS shape {b.shape}, expected {expect_b}")
        return self.dtype.quantize(a), self.dtype.quantize(b)

    def compute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """FP16-storage, FP32-accumulate GEMM with optional epilogue."""
        a, b = self._check_operands(a, b)
        out = np.matmul(a, b, dtype=np.float32)
        if self.epilogue is not None:
            out = self.epilogue(out)
        return self.dtype.quantize(out)

