"""The scaled dot-product attention (SDA) block under every plan.

:class:`SDABlock` assembles the kernel pipeline for one attention
layer — dense or block-sparse — from the role graph of the chosen
:class:`~repro.core.plan.AttentionPlan`
(:func:`~repro.core.recompose.plan_graph`) and one role -> kernel table
per shape kind:

========================  ==================================================
plan                      pipeline
========================  ==================================================
``BASELINE``              MatMul(+scale/mask) -> softmax -> MatMul
``ONLINE``                MatMul(+scale/mask) -> online softmax -> MatMul
``DECOMPOSED`` (SD)       MatMul(+scale/mask) -> LS -> IR -> GS -> MatMul
``RECOMPOSED`` (SDF)      MatMul(+scale/mask+LS) -> IR -> (GS+MatMul)
``FUSED_LS_ONLY``         MatMul(+scale/mask+LS) -> IR -> GS -> MatMul
``FUSED_GS_ONLY``         MatMul(+scale/mask) -> LS -> IR -> (GS+MatMul)
whole-block plans         one kernel: fused MHA or FlashAttention
========================  ==================================================

Scale and mask ride the first MatMul's epilogue in every plan — the
paper's baseline already fuses element-wise layers (Section 2.3), so
the comparison isolates the softmax recomposition itself.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import PlanError, ShapeError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.core.recompose import build_kernels, plan_graph
from repro.gpu.device import Device
from repro.kernels.base import Kernel
from repro.kernels.decomposed import (
    GlobalScaleKernel,
    InterReductionKernel,
    LocalSoftmaxKernel,
)
from repro.kernels.fused import FusedGSMatMulKernel, FusedMatMulLSKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.softmax import (
    BatchedRowSoftmaxKernel,
    OnlineRowSoftmaxKernel,
    RowSoftmaxKernel,
)
from repro.models.config import AttentionSpec
from repro.sparse.bsmatmul import (
    BlockSparseMatMulDSD,
    BlockSparseMatMulSDD,
    FusedBSGSMatMulDSD,
    FusedBSMatMulLSSDD,
)
from repro.sparse.bssoftmax import (
    BlockSparseGS,
    BlockSparseIR,
    BlockSparseLS,
    BlockSparseRowSoftmax,
)

#: Epilogue cost of scale + additive mask, CUDA-core FLOPs per element.
_SCALE_MASK_FLOPS = 2.0


class _CausalBias:
    """Additive causal mask, materialised lazily (only when numerics run)."""

    def __init__(self, seq_len: int) -> None:
        self.seq_len = seq_len
        self._bias: Optional[np.ndarray] = None

    def __call__(self) -> np.ndarray:
        if self._bias is None:
            bias = np.zeros((self.seq_len, self.seq_len), dtype=np.float32)
            bias[np.triu_indices(self.seq_len, k=1)] = -np.inf
            self._bias = bias
        return self._bias


def _causal_block_bias(layout, block_index: int) -> np.ndarray:
    """Additive causal mask for one block of a block-sparse matrix."""
    bs = layout.block_size
    bi = layout.block_rows[block_index]
    bj = layout.block_cols[block_index]
    rows = np.arange(bi * bs, (bi + 1) * bs)[:, None]
    cols = np.arange(bj * bs, (bj + 1) * bs)[None, :]
    return np.where(cols > rows, -np.inf, 0.0).astype(np.float32)


class SDABlock:
    """One scaled dot-product attention block as a kernel pipeline.

    Parameters
    ----------
    batch:
        Inference batch size.
    num_heads, seq_len, d_head:
        Attention geometry; kernels fold batch and heads together.
    spec:
        The layer's :class:`~repro.models.config.AttentionSpec`.
    plan:
        The softmax execution plan (name or enum).
    t:
        Sub-vector size for the decomposed plans.  For block-sparse
        layers the sub-vector is the block width, per Section 3.4.
    """

    def __init__(
        self,
        *,
        batch: int,
        num_heads: int,
        seq_len: int,
        d_head: int,
        spec: AttentionSpec,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
        kv_seq_len: int = 0,
        key_padding_lengths: "np.ndarray | None" = None,
    ) -> None:
        require_positive("batch", batch)
        require_positive("num_heads", num_heads)
        require_positive("seq_len", seq_len)
        require_positive("d_head", d_head)
        if key_padding_lengths is not None:
            key_padding_lengths = np.asarray(key_padding_lengths)
            if key_padding_lengths.shape != (batch,):
                raise ShapeError(
                    f"key_padding_lengths must have shape ({batch},), got "
                    f"{key_padding_lengths.shape}"
                )
        self.key_padding_lengths = key_padding_lengths
        self.batch = batch
        self.num_heads = num_heads
        self.seq_len = seq_len
        # Cross-attention (decoder over encoder memory, Section 2.1)
        # has a rectangular L_q x L_kv attention matrix.
        self.kv_seq_len = kv_seq_len or seq_len
        self.d_head = d_head
        self.spec = spec
        self.plan = AttentionPlan.from_name(plan)
        self.dtype = dtype
        self.t = t
        self.scale = 1.0 / math.sqrt(d_head)
        self.batch_heads = batch * num_heads
        if self.kv_seq_len != self.seq_len and spec.is_sparse:
            raise PlanError(
                "block-sparse layouts are defined for square "
                "self-attention; cross-attention must be dense"
            )
        if key_padding_lengths is not None and (
            spec.is_sparse or self.plan.record.block is not None
        ):
            raise PlanError(
                "key padding masks are supported for the dense epilogue-"
                "based plans (baseline/sd/sdf/online/turbo)"
            )
        self.layout = spec.layout(seq_len, seed=layout_seed)
        self._graph = plan_graph(self.plan)
        if self.layout is None:
            self._kernels = build_kernels(self.plan, self._dense_table(),
                                          "dense attention")
        else:
            self._kernels = build_kernels(self.plan, self._sparse_table(),
                                          "block-sparse attention")

    # -- pipeline construction ------------------------------------------

    def _padding_bias(self) -> "np.ndarray | None":
        """Additive key-padding mask, ``(batch*heads, 1, kv_len)``.

        Positions at or beyond each batch item's true length receive
        ``-inf`` — the standard variable-length-batch mask.  The cost
        model is unchanged: padded batches still run fixed-shape
        kernels, which is exactly why serving systems bucket by length.
        """
        if self.key_padding_lengths is None:
            return None
        positions = np.arange(self.kv_seq_len)[None, :]
        masked = positions >= self.key_padding_lengths[:, None]
        bias = np.where(masked, -np.inf, 0.0).astype(np.float32)
        bias = np.repeat(bias, self.num_heads, axis=0)
        return bias[:, None, :]

    def _dense_epilogue(self):
        scale = np.float32(self.scale)
        padding = self._padding_bias()
        if self.spec.is_causal:
            causal = _CausalBias(self.seq_len)
            if padding is None:
                return lambda s: s * scale + causal()
            return lambda s: s * scale + causal() + padding
        if padding is None:
            return lambda s: s * scale
        return lambda s: s * scale + padding

    def _sparse_epilogue(self):
        scale = np.float32(self.scale)
        if self.spec.is_causal:
            def epilogue(blocks, layout):
                # All nonzero blocks' biases at once: same elementwise
                # adds as the per-block loop over _causal_block_bias.
                bs = layout.block_size
                rows = (layout.block_rows[:, None] * bs
                        + np.arange(bs)[None, :])
                cols = (layout.block_cols[:, None] * bs
                        + np.arange(bs)[None, :])
                bias = np.where(
                    cols[:, None, :] > rows[:, :, None], -np.inf, 0.0
                ).astype(np.float32)
                return blocks * scale + bias[None]

            return epilogue
        return lambda blocks, layout: blocks * scale

    def _dense_table(self) -> dict:
        """Role -> kernel factory for a dense (or cross-attention) block."""
        bh, length, d = self.batch_heads, self.seq_len, self.d_head
        kv_len, t, dtype = self.kv_seq_len, self.t, self.dtype
        rows = bh * length
        epilogue = self._dense_epilogue()

        def n_sv():
            if kv_len % t != 0:
                raise ShapeError(
                    f"attention row length {kv_len} not divisible by T={t}"
                )
            return kv_len // t

        def fully_fused():
            if self.spec.is_causal:
                raise PlanError(
                    "the FULLY_FUSED plan does not support causal masks"
                )
            if kv_len != length:
                raise PlanError(
                    "the FULLY_FUSED plan does not support cross-attention"
                )
            from repro.kernels.mha_fused import FullyFusedMHAKernel

            return FullyFusedMHAKernel(bh, length, d, dtype=dtype,
                                       scale=self.scale)

        def flash():
            if kv_len != length:
                raise PlanError(
                    "the FLASH plan does not support cross-attention"
                )
            from repro.kernels.flash import FlashAttentionKernel

            return FlashAttentionKernel(bh, length, d, dtype=dtype,
                                        scale=self.scale,
                                        causal=self.spec.is_causal)

        return {
            "qk": lambda: MatMulKernel(
                batch=bh, m=length, n=kv_len, k=d, dtype=dtype,
                tile_m=128, tile_n=128, tile_k=min(32, d),
                epilogue=epilogue,
                epilogue_flops_per_element=_SCALE_MASK_FLOPS,
                name="sda_qk_matmul", category="matmul",
            ),
            "softmax": lambda: RowSoftmaxKernel(rows=rows, length=kv_len,
                                                dtype=dtype),
            "online_softmax": lambda: OnlineRowSoftmaxKernel(
                rows=rows, length=kv_len, dtype=dtype),
            "batched_softmax": lambda: BatchedRowSoftmaxKernel(
                rows=rows, length=kv_len, dtype=dtype),
            "av": lambda: MatMulKernel(
                batch=bh, m=length, n=d, k=kv_len, dtype=dtype,
                tile_m=128, tile_n=min(128, max(8, d)), tile_k=32,
                name="sda_av_matmul", category="matmul",
            ),
            "ls": lambda: LocalSoftmaxKernel(num_subvectors=rows * n_sv(),
                                             t=t, dtype=dtype),
            "ir": lambda: InterReductionKernel(rows=rows,
                                               mean_subvectors=n_sv()),
            "gs": lambda: GlobalScaleKernel(num_subvectors=rows * n_sv(),
                                            t=t, dtype=dtype),
            "qk_ls": lambda: FusedMatMulLSKernel(
                batch=bh, m=length, n=kv_len, k=d, t=t, dtype=dtype,
                pre_softmax_epilogue=epilogue,
                pre_softmax_flops_per_element=_SCALE_MASK_FLOPS,
            ),
            "gs_av": lambda: FusedGSMatMulKernel(
                batch=bh, m=length, n=d, k=kv_len, t=t, dtype=dtype),
            "fused-mha": fully_fused,
            "flash": flash,
        }

    def _sparse_table(self) -> dict:
        """Role -> kernel factory for a block-sparse block (the
        sub-vector is the block width, so ``t`` plays no part)."""
        bh, d, layout, dtype = (self.batch_heads, self.d_head, self.layout,
                                self.dtype)
        epilogue = self._sparse_epilogue()

        def flash():
            from repro.sparse.bsflash import BlockSparseFlashAttentionKernel

            return BlockSparseFlashAttentionKernel(
                layout, bh, d, dtype=dtype, scale=self.scale,
                causal=self.spec.is_causal,
            )

        return {
            "qk": lambda: BlockSparseMatMulSDD(
                layout, bh, d, dtype=dtype, epilogue=epilogue,
                epilogue_flops_per_element=_SCALE_MASK_FLOPS),
            "softmax": lambda: BlockSparseRowSoftmax(layout, bh, dtype=dtype),
            "av": lambda: BlockSparseMatMulDSD(layout, bh, d, dtype=dtype),
            "ls": lambda: BlockSparseLS(layout, bh, dtype=dtype),
            "ir": lambda: BlockSparseIR(layout, bh),
            "gs": lambda: BlockSparseGS(layout, bh, dtype=dtype),
            "qk_ls": lambda: FusedBSMatMulLSSDD(
                layout, bh, d, dtype=dtype, epilogue=epilogue,
                epilogue_flops_per_element=_SCALE_MASK_FLOPS),
            "gs_av": lambda: FusedBSGSMatMulDSD(layout, bh, d, dtype=dtype),
            "flash": flash,
        }

    # -- execution -------------------------------------------------------

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """The pipeline's kernels, in launch order."""
        return tuple(self._kernels)

    def simulate(self, device: Device) -> None:
        """Launch the pipeline on ``device`` without numerics."""
        for kernel in self._kernels:
            kernel.simulate(device)

    def forward(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        device: Optional[Device] = None,
    ) -> np.ndarray:
        """Numeric attention: ``(batch*heads, L, d_head)`` in and out.

        For cross-attention K and V carry ``kv_seq_len`` rows.
        """
        expected_q = (self.batch_heads, self.seq_len, self.d_head)
        expected_kv = (self.batch_heads, self.kv_seq_len, self.d_head)
        if tuple(q.shape) != expected_q:
            raise ShapeError(f"SDA Q shape {q.shape}, expected {expected_q}")
        for name, array in (("K", k), ("V", v)):
            if tuple(array.shape) != expected_kv:
                raise ShapeError(
                    f"SDA {name} shape {array.shape}, expected {expected_kv}"
                )
        # Dense score kernels take K^T; block-sparse and whole-block
        # kernels take K as stored.
        k_t = k if self.layout is not None else np.swapaxes(k, 1, 2)
        buffers = {"Q": q, "K": k, "K_T": k_t, "V": v}
        for node, kernel in zip(self._graph.nodes, self._kernels):
            result = kernel.run(device, *(buffers[b] for b in node.inputs))
            if len(node.outputs) == 1:
                result = (result,)
            buffers.update(zip(node.outputs, result))
        return buffers["O"]
