"""Block-sparse FlashAttention.

The tiled online-softmax kernel of :mod:`repro.kernels.flash` restricted
to a block-sparse layout: each thread block owns one block row of
queries and iterates only that row's nonzero K/V blocks, maintaining
the running max / normaliser / output accumulator.  Like the dense
variant it materialises no attention-sized tensor; like the
block-sparse MatMuls its per-row work is irregular (the load-imbalance
effect of Section 5.2 applies).

This is the Triton block-sparse FlashAttention design, provided so the
sparse models (BigBird, Longformer, GPT-Neo local layers) can run the
forward-looking ``flash`` plan.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch, MLP_MATMUL, WorkloadShape
from repro.gpu.occupancy import TBResources
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel
from repro.kernels.flash import (
    _RESCALE_FLOPS_PER_ELEMENT,
    _SOFTMAX_FLOPS,
    normalise,
    online_softmax_tile,
)
from repro.sparse.layout import BlockSparseLayout


class BlockSparseFlashAttentionKernel(Kernel):
    """One-kernel block-sparse attention with online softmax."""

    category = CATEGORY.MATMUL

    def __init__(
        self,
        layout: BlockSparseLayout,
        batch_heads: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        scale: float = 1.0,
        causal: bool = False,
        name: str = "bs_flash_attention",
    ) -> None:
        require_positive("batch_heads", batch_heads)
        require_positive("d_head", d_head)
        self.layout = layout
        self.batch_heads = batch_heads
        self.d_head = d_head
        self.dtype = dtype
        self.scale = scale
        self.causal = causal
        self.name = name

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        layout, d = self.layout, self.d_head
        elem = self.dtype.nbytes
        operand = self.batch_heads * layout.seq_len * d * elem
        bs = layout.block_size
        shared = (bs * d + 4 * bs * d) * elem  # Q tile + 2x K/V buffers
        elements = self.batch_heads * layout.nnz_elements()
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=TBResources(threads=256, shared_mem=shared,
                           registers_per_thread=255),
            shape=WorkloadShape(
                grid=self.batch_heads * layout.n_block_rows,
                mean_work=layout.mean_row_nnz,
                max_work=float(layout.max_row_nnz),
            ),
            dram_read_bytes=3 * operand,
            dram_write_bytes=operand,
            tensor_flops=2 * 2.0 * elements * d,
            cuda_flops=(
                _SOFTMAX_FLOPS
                + _RESCALE_FLOPS_PER_ELEMENT
            ) * elements,
            bytes_in_flight_per_warp=MLP_MATMUL,
            compute_efficiency_scale=0.5,  # same small-tile derate as
            # the Triton block-sparse GEMMs
        )

    def _check_qkv(self, q, k, v):
        return self._stored(
            (self.batch_heads, self.layout.seq_len, self.d_head),
            Q=q, K=k, V=v)

    def compute(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The block-row online-softmax recurrence, nonzero blocks only.

        Block rows with the same nonzero count run their recurrences in
        lockstep: the sequential dependence is on the block *position*
        within a row, so position ``j`` of every row in a group is one
        batched matmul/exp step.  Bit-identical to the per-row loop
        (:meth:`compute_reference`), enforced by the golden tests.
        """
        layout, bs, d = self.layout, self.layout.block_size, self.d_head
        q, k, v = self._check_qkv(q, k, v)
        bh = self.batch_heads
        scale = np.float32(self.scale)

        q_blocks = q.reshape(bh, layout.n_block_rows, bs, d)
        k_blocks = k.reshape(bh, layout.n_block_cols, bs, d)
        v_blocks = v.reshape(bh, layout.n_block_cols, bs, d)
        out = np.zeros((bh, layout.n_block_rows, bs, d), dtype=np.float32)

        for rows, block_idx in layout.rows_by_nnz():
            r = len(rows)
            q_tiles = q_blocks[:, rows]                    # (bh, r, bs, d)
            cols = layout.block_cols[block_idx]            # (r, k)
            m = np.full((bh, r, bs), -np.inf, dtype=np.float32)
            l = np.zeros((bh, r, bs), dtype=np.float32)
            acc = np.zeros((bh, r, bs, d), dtype=np.float32)
            for j in range(block_idx.shape[1]):
                kv = cols[:, j]                            # (r,)
                k_tile = k_blocks[:, kv]                   # (bh, r, bs, d)
                s = np.matmul(q_tiles, np.swapaxes(k_tile, 2, 3),
                              dtype=np.float32) * scale
                if self.causal:
                    qi = (rows[:, None] * bs
                          + np.arange(bs)[None, :])[:, :, None]
                    kj = (kv[:, None] * bs
                          + np.arange(bs)[None, :])[:, None, :]
                    s = np.where(kj > qi, -np.inf, s)
                m, l, acc = online_softmax_tile(m, l, acc, s,
                                                v_blocks[:, kv])
            out[:, rows] = normalise(acc, l)
        return self.dtype.quantize(out.reshape(bh, layout.seq_len, d))

    def compute_reference(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Pre-vectorization per-block-row recurrence, kept as the
        golden reference for the batched :meth:`compute`."""
        layout, bs, d = self.layout, self.layout.block_size, self.d_head
        q, k, v = self._check_qkv(q, k, v)
        bh = self.batch_heads
        scale = np.float32(self.scale)
        out = np.zeros((bh, layout.seq_len, d), dtype=np.float32)

        for block_row in range(layout.n_block_rows):
            q0 = block_row * bs
            q_tile = q[:, q0:q0 + bs]
            m = np.full((bh, bs), -np.inf, dtype=np.float32)
            l = np.zeros((bh, bs), dtype=np.float32)
            acc = np.zeros((bh, bs, d), dtype=np.float32)
            for idx in layout.blocks_in_row(block_row):
                col = int(layout.block_cols[idx])
                k0 = col * bs
                s = np.matmul(q_tile, np.swapaxes(k[:, k0:k0 + bs], 1, 2),
                              dtype=np.float32) * scale
                if self.causal:
                    qi = np.arange(q0, q0 + bs)[:, None]
                    kj = np.arange(k0, k0 + bs)[None, :]
                    s = np.where(kj > qi, -np.inf, s)
                tile_max = s.max(axis=-1)
                m_new = np.maximum(m, tile_max)
                safe_m = np.where(np.isfinite(m_new), m_new, 0.0)
                p = np.where(np.isfinite(s), np.exp(s - safe_m[..., None]),
                             0.0)
                correction = np.where(np.isfinite(m), np.exp(m - safe_m), 0.0)
                l = l * correction + p.sum(axis=-1)
                acc = acc * correction[..., None] + np.matmul(
                    p, v[:, k0:k0 + bs], dtype=np.float32
                )
                m = m_new
            out[:, q0:q0 + bs] = np.divide(
                acc, l[..., None], out=np.zeros_like(acc),
                where=l[..., None] > 0,
            )
        return self.dtype.quantize(out)


def verification_oracles():
    """Oracles for block-sparse FlashAttention: the batched-vs-per-row
    golden pair and the masked dense attention reference."""
    from repro.verify.contracts import EXACT, FP16_ATTENTION, FP32_ATTENTION
    from repro.verify.refs import accumulation_slack, dense_attention
    from repro.verify.registry import OracleSpec

    def _kernel(case):
        layout = case.aux["layout"]
        d = case.params["d"]
        return BlockSparseFlashAttentionKernel(
            layout, case.params["bh"], d, dtype=case.dtype,
            scale=1.0 / float(np.sqrt(d)), causal=case.params["causal"],
        )

    def run_golden(case):
        kernel = _kernel(case)
        q, k, v = case.arrays["q"], case.arrays["k"], case.arrays["v"]
        return {
            "actual": kernel.compute(q, k, v),
            "expected": kernel.compute_reference(q, k, v),
        }

    def run_vs_dense(case):
        kernel = _kernel(case)
        layout = case.aux["layout"]
        q, k, v = case.arrays["q"], case.arrays["k"], case.arrays["v"]
        expected, scores, _ = dense_attention(
            q, k, v, case.dtype, scale=kernel.scale,
            mask=layout.element_mask(), causal=case.params["causal"],
        )
        return {"actual": kernel.compute(q, k, v), "expected": expected,
                "slack": accumulation_slack(scores)}

    return [
        OracleSpec(
            name="block_sparse.flash_golden",
            family="block_sparse",
            run=run_golden,
            contracts={DType.FP32: EXACT, DType.FP16: EXACT},
            tags=("golden",),
            description="lockstep block-sparse flash vs per-row recurrence",
        ),
        OracleSpec(
            name="block_sparse.flash_vs_dense",
            family="block_sparse",
            run=run_vs_dense,
            contracts={DType.FP32: FP32_ATTENTION,
                       DType.FP16: FP16_ATTENTION},
            invariants=("finite_outputs",),
            description="block-sparse flash attention vs dense masked "
                        "attention",
        ),
    ]
