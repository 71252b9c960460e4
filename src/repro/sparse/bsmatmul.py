"""Block-sparse MatMul kernels (DeepSpeed/Triton style, Section 3.4).

Two flavours cover the SDA block:

- **SDD** (dense x dense -> sparse): ``Q @ K^T`` evaluated only at the
  layout's nonzero blocks, one thread block per output block.  Work is
  perfectly balanced (every block costs the same).
- **DSD** (sparse x dense -> dense): ``A @ V`` where the LHS is the
  block-sparse attention matrix.  One thread block per *block row*, so
  per-block work is proportional to that row's nonzero count — the
  load-imbalance problem of Section 5.2 that larger batches amortise.

The fused variants mirror :mod:`repro.kernels.fused`: LS rides the SDD
epilogue (with sub-vector size ``T`` equal to the block size), GS rides
the DSD prologue.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ShapeError
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch, MLP_MATMUL, WorkloadShape
from repro.gpu.occupancy import TBResources
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel, ceil_div
from repro.kernels.decomposed import INTERMEDIATE_BYTES, local_softmax
from repro.kernels.fused import GS_PROLOGUE_FLOPS, LS_EPILOGUE_FLOPS
from repro.sparse.layout import BlockSparseLayout, BlockSparseMatrix

#: Pipeline efficiency of block-sparse GEMMs relative to the tuned
#: dense GEMM: 64x64 blocks underfeed the tensor-core mainloop and the
#: per-block scheduling overhead is not amortised, so Triton/DeepSpeed
#: block-sparse kernels sustain roughly half of cuBLAS efficiency.
BLOCK_SPARSE_GEMM_EFFICIENCY = 0.5


class _BlockSparseMatMulBase(Kernel):
    """Shared shape/cost helpers for the block-sparse GEMMs."""

    category = CATEGORY.MATMUL

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        name: str,
    ) -> None:
        require_positive("batch", batch)
        require_positive("d_head", d_head)
        self.layout = layout
        self.batch = batch
        self.d_head = d_head
        self.dtype = dtype
        self.name = name

    def flops(self) -> float:
        """Tensor-core FLOPs: dense math inside each nonzero block."""
        bs = self.layout.block_size
        return 2.0 * self.batch * self.layout.nnz_blocks * bs * bs * self.d_head

    def _block_data_bytes(self) -> float:
        return float(self.batch * self.layout.nnz_elements() * self.dtype.nbytes)

    def _dense_operand_bytes(self, spec: GPUSpec, crossings: float) -> float:
        """Traffic for a dense (L x d_head) operand under the L2 rule."""
        operand = self.batch * self.layout.seq_len * self.d_head * self.dtype.nbytes
        if operand <= spec.l2_size / 2:
            return float(operand)
        return float(operand) * crossings

    def _tb_resources(self) -> TBResources:
        bs = self.layout.block_size
        tile_k = min(32, self.d_head)
        shared = 2 * (bs * tile_k + tile_k * bs) * self.dtype.nbytes
        return TBResources(threads=256, shared_mem=shared,
                           registers_per_thread=128)

    def _check_dense(self, array: np.ndarray, name: str) -> np.ndarray:
        return self._stored((self.batch, self.layout.seq_len, self.d_head),
                            **{name: array})[0]


class BlockSparseMatMulSDD(_BlockSparseMatMulBase):
    """``Q @ K^T`` evaluated at nonzero blocks only."""

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        epilogue: Optional[Callable[..., np.ndarray]] = None,
        epilogue_flops_per_element: float = 0.0,
        name: str = "bs_sdd_matmul",
    ) -> None:
        super().__init__(layout, batch, d_head, dtype=dtype, name=name)
        self.epilogue = epilogue
        self.epilogue_flops_per_element = epilogue_flops_per_element

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        layout = self.layout
        read_q = self._dense_operand_bytes(spec, layout.mean_row_nnz)
        read_k = self._dense_operand_bytes(
            spec, layout.nnz_blocks / layout.n_block_cols
        )
        elements = self.batch * layout.nnz_elements()
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=self._tb_resources(),
            shape=WorkloadShape(grid=self.batch * layout.nnz_blocks),
            dram_read_bytes=read_q + read_k + self._extra_read_bytes(),
            dram_write_bytes=self._block_data_bytes() + self._extra_write_bytes(),
            tensor_flops=self.flops(),
            cuda_flops=self.epilogue_flops_per_element * elements
            + self._extra_cuda_flops(),
            bytes_in_flight_per_warp=MLP_MATMUL,
            compute_efficiency_scale=BLOCK_SPARSE_GEMM_EFFICIENCY,
        )

    def _extra_read_bytes(self) -> float:
        return 0.0

    def _extra_write_bytes(self) -> float:
        return 0.0

    def _extra_cuda_flops(self) -> float:
        return 0.0

    def _raw_blocks(self, q: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Per-block scores, epilogue applied, in fp32."""
        q = self._check_dense(q, "Q")
        k = self._check_dense(k, "K")
        layout, bs = self.layout, self.layout.block_size
        q_blocks = q.reshape(self.batch, layout.n_block_rows, bs, self.d_head)
        k_blocks = k.reshape(self.batch, layout.n_block_cols, bs, self.d_head)
        scores = np.einsum(
            "bnid,bnjd->bnij",
            q_blocks[:, layout.block_rows],
            k_blocks[:, layout.block_cols],
            dtype=np.float32,
        )
        if self.epilogue is not None:
            scores = self.epilogue(scores, self.layout)
        return scores

    def compute(self, q: np.ndarray, k: np.ndarray) -> BlockSparseMatrix:
        """Block-sparse attention scores from ``Q`` and ``K``.

        Note: takes ``K`` (not ``K^T``); the transpose happens inside
        the kernel, as in the real implementation.
        """
        scores = self._raw_blocks(q, k)
        return BlockSparseMatrix(self.layout, self.dtype.quantize(scores))


class FusedBSMatMulLSSDD(BlockSparseMatMulSDD):
    """SDD with Local Softmax in the epilogue (T = block size)."""

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        epilogue: Optional[Callable[..., np.ndarray]] = None,
        epilogue_flops_per_element: float = 0.0,
        name: str = "bs_sdd_ls_fused",
    ) -> None:
        super().__init__(
            layout,
            batch,
            d_head,
            dtype=dtype,
            epilogue=epilogue,
            epilogue_flops_per_element=epilogue_flops_per_element,
            name=name,
        )

    @property
    def num_subvectors(self) -> int:
        """One sub-vector per row line of each nonzero block."""
        return self.batch * self.layout.nnz_blocks * self.layout.block_size

    def _extra_write_bytes(self) -> float:
        return 2.0 * self.num_subvectors * INTERMEDIATE_BYTES

    def _extra_cuda_flops(self) -> float:
        return LS_EPILOGUE_FLOPS * self.batch * self.layout.nnz_elements()

    def compute(self, q: np.ndarray, k: np.ndarray):
        """Returns ``(x_prime: BlockSparseMatrix, m', d')`` with the
        statistics shaped ``(batch, nnz_blocks, block_size)``."""
        scores = self._raw_blocks(q, k)
        x_prime, m_prime, d_prime = local_softmax(
            scores, self.layout.block_size
        )
        return (
            BlockSparseMatrix(self.layout, self.dtype.quantize(x_prime)),
            m_prime[..., 0],
            d_prime[..., 0],
        )


class BlockSparseMatMulDSD(_BlockSparseMatMulBase):
    """``A @ V`` with a block-sparse LHS, one thread block per block row.

    Rows with more nonzero blocks take proportionally longer, which is
    the load-imbalance source of Section 5.2.
    """

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        name: str = "bs_dsd_matmul",
    ) -> None:
        super().__init__(layout, batch, d_head, dtype=dtype, name=name)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        layout = self.layout
        read_s = self._block_data_bytes()
        read_v = self._dense_operand_bytes(
            spec, layout.nnz_blocks / layout.n_block_cols
        )
        write_o = (
            self.batch * layout.seq_len * self.d_head * self.dtype.nbytes
        )
        grid = self.batch * layout.n_block_rows * ceil_div(self.d_head, 64)
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=self._tb_resources(),
            shape=WorkloadShape(
                grid=grid,
                mean_work=layout.mean_row_nnz,
                max_work=float(layout.max_row_nnz),
            ),
            dram_read_bytes=read_s + read_v + self._extra_read_bytes(),
            dram_write_bytes=write_o,
            tensor_flops=self.flops(),
            cuda_flops=self._extra_cuda_flops(),
            bytes_in_flight_per_warp=MLP_MATMUL,
            compute_efficiency_scale=BLOCK_SPARSE_GEMM_EFFICIENCY,
        )

    def _extra_read_bytes(self) -> float:
        return 0.0

    def _extra_cuda_flops(self) -> float:
        return 0.0

    def _multiply(self, data: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Batched DSD: one einsum per distinct row population.

        Rows with the same nonzero count contract in a single
        ``brnij,brnjd->brid`` einsum — bit-identical to the per-row
        ``bnij,bnjd->bid`` contraction (same per-output accumulation
        order), which :mod:`tests.test_golden_vectorized` enforces
        against :meth:`_multiply_reference`.
        """
        layout, bs = self.layout, self.layout.block_size
        v = self._check_dense(v, "V")
        v_blocks = v.reshape(self.batch, layout.n_block_cols, bs, self.d_head)
        out = np.zeros(
            (self.batch, layout.n_block_rows, bs, self.d_head), dtype=np.float32
        )
        for rows, block_idx in layout.rows_by_nnz():
            cols = layout.block_cols[block_idx]
            out[:, rows] = np.einsum(
                "brnij,brnjd->brid", data[:, block_idx], v_blocks[:, cols],
                dtype=np.float32,
            )
        return out.reshape(self.batch, layout.seq_len, self.d_head)

    def _multiply_reference(self, data: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Pre-vectorization per-block-row loop, kept as the golden
        reference for the batched :meth:`_multiply`."""
        layout, bs = self.layout, self.layout.block_size
        v = self._check_dense(v, "V")
        v_blocks = v.reshape(self.batch, layout.n_block_cols, bs, self.d_head)
        out = np.zeros(
            (self.batch, layout.n_block_rows, bs, self.d_head), dtype=np.float32
        )
        for block_row in range(layout.n_block_rows):
            idx = layout.blocks_in_row(block_row)
            if idx.size == 0:
                continue
            cols = layout.block_cols[idx]
            out[:, block_row] = np.einsum(
                "bnij,bnjd->bid", data[:, idx], v_blocks[:, cols],
                dtype=np.float32,
            )
        return out.reshape(self.batch, layout.seq_len, self.d_head)

    def compute(self, s: BlockSparseMatrix, v: np.ndarray) -> np.ndarray:
        """Dense output of the sparse-LHS MatMul."""
        if s.layout != self.layout:
            raise ShapeError(f"{self.name}: LHS layout does not match kernel")
        data = self.dtype.quantize(s.data)
        return self.dtype.quantize(self._multiply(data, v))


class FusedBSGSMatMulDSD(BlockSparseMatMulDSD):
    """DSD with Global Scaling in the prologue: ``(X' * r') @ V``."""

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        name: str = "bs_gs_dsd_fused",
    ) -> None:
        super().__init__(layout, batch, d_head, dtype=dtype, name=name)

    @property
    def num_subvectors(self) -> int:
        """Reconstruction factors consumed: one per block row line."""
        return self.batch * self.layout.nnz_blocks * self.layout.block_size

    def _extra_read_bytes(self) -> float:
        return float(self.num_subvectors * INTERMEDIATE_BYTES)

    def _extra_cuda_flops(self) -> float:
        return GS_PROLOGUE_FLOPS * self.batch * self.layout.nnz_elements()

    def compute(
        self, x_prime: BlockSparseMatrix, r_prime: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Scale each block row line by ``r'`` while multiplying by V."""
        if x_prime.layout != self.layout:
            raise ShapeError(f"{self.name}: LHS layout does not match kernel")
        expected = (self.batch, self.layout.nnz_blocks, self.layout.block_size)
        if tuple(r_prime.shape) != expected:
            raise ShapeError(
                f"{self.name}: r' shape {r_prime.shape}, expected {expected}"
            )
        data = self.dtype.quantize(x_prime.data)
        scaled = data * np.asarray(r_prime, dtype=np.float32)[..., None]
        return self.dtype.quantize(self._multiply(scaled, v))


def verification_oracles():
    """Oracles for the block-sparse MatMul family: the DSD golden pair,
    SDD vs the masked dense GEMM, and the full fused sparse attention
    pipeline vs dense masked attention."""
    import numpy as np

    from repro.sparse.bssoftmax import BlockSparseIR
    from repro.verify.contracts import EXACT, FP16_ATTENTION, FP32_ACCUM, \
        FP32_ATTENTION
    from repro.verify.refs import accumulation_slack, masked_scores
    from repro.verify.registry import OracleSpec
    from repro.kernels.softmax import safe_softmax

    def run_dsd_golden(case):
        layout = case.aux["layout"]
        bh, d = case.params["bh"], case.params["d"]
        kernel = BlockSparseMatMulDSD(layout, bh, d, dtype=case.dtype)
        blocks = case.arrays["blocks"]
        data = np.where(np.isfinite(blocks), blocks, 0.0).astype(np.float32)
        v = case.arrays["v"]
        quantized = case.dtype.quantize(data)
        return {
            "actual": kernel.compute(BlockSparseMatrix(layout, data), v),
            "expected": case.dtype.quantize(
                kernel._multiply_reference(quantized, v)),
        }

    def run_sdd_vs_dense(case):
        layout = case.aux["layout"]
        bh, d = case.params["bh"], case.params["d"]
        kernel = BlockSparseMatMulSDD(layout, bh, d, dtype=case.dtype)
        q, k = case.arrays["q"], case.arrays["k"]
        out = kernel.compute(q, k).to_dense(fill=0.0)
        qq, kq = case.dtype.quantize(q), case.dtype.quantize(k)
        dense = np.matmul(qq, np.swapaxes(kq, 1, 2), dtype=np.float32)
        expected = case.dtype.quantize(
            np.where(layout.element_mask(), dense, 0.0))
        return {"actual": out, "expected": expected}

    def run_fused_pipeline(case):
        layout = case.aux["layout"]
        bh, d = case.params["bh"], case.params["d"]
        q, k, v = case.arrays["q"], case.arrays["k"], case.arrays["v"]
        scale = np.float32(1.0 / np.sqrt(d))
        ls = FusedBSMatMulLSSDD(
            layout, bh, d, dtype=case.dtype,
            epilogue=lambda scores, _layout: scores * scale,
        )
        x_prime, m_prime, d_prime = ls.compute(q, k)
        r_prime = BlockSparseIR(layout, bh).compute(m_prime, d_prime)
        gs = FusedBSGSMatMulDSD(layout, bh, d, dtype=case.dtype)
        actual = gs.compute(x_prime, r_prime, v)

        qq, kq = case.dtype.quantize(q), case.dtype.quantize(k)
        scores = masked_scores(qq, kq, scale=scale,
                               mask=layout.element_mask())
        ref_probs = safe_softmax(scores)
        expected = case.dtype.quantize(
            np.matmul(ref_probs, v, dtype=np.float32))
        probs_blocks = case.dtype.quantize(x_prime.data) * np.asarray(
            r_prime, dtype=np.float32)[..., None]
        probs = BlockSparseMatrix(layout, probs_blocks).to_dense(fill=0.0)
        return {
            "actual": actual,
            "expected": expected,
            "probs": probs,
            "scores": scores,
            "slack": accumulation_slack(scores),
        }

    return [
        OracleSpec(
            name="block_sparse.dsd_golden",
            family="block_sparse",
            run=run_dsd_golden,
            contracts={DType.FP32: EXACT, DType.FP16: EXACT},
            tags=("golden",),
            description="vectorized DSD MatMul vs per-block-row reference",
        ),
        OracleSpec(
            name="block_sparse.sdd_vs_dense",
            family="block_sparse",
            run=run_sdd_vs_dense,
            contracts={DType.FP32: FP32_ACCUM, DType.FP16: FP32_ACCUM},
            description="block-sparse SDD scores vs masked dense GEMM",
        ),
        OracleSpec(
            name="block_sparse.fused_pipeline_vs_dense",
            family="block_sparse",
            run=run_fused_pipeline,
            contracts={DType.FP32: FP32_ATTENTION,
                       DType.FP16: FP16_ATTENTION},
            invariants=("row_sum_one", "masked_zeros", "finite_outputs"),
            description="fused block-sparse SDD∘LS → IR → GS∘DSD vs "
                        "dense masked attention",
        ),
    ]
