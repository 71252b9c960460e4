"""Fully fused MHA kernel (FasterTransformer-style, Section 7).

FasterTransformer, DeepSpeed and TensorRT [25, 36, 39] provide a
single kernel fusing the *entire* MHA block — both MatMuls and the
softmax — by giving each thread block a slab of query rows and keeping
that slab's full score rows (length ``L``) in shared memory while K
and V stream through.  This eliminates *all* off-chip traffic for the
attention matrix, strictly better than softmax recomposition — but the
score slab must fit in the SM's shared memory, so it "is only
applicable when the input sequence is short (e.g., less than 384 in
[25])".

This kernel models exactly that: the shared-memory demand grows
linearly in ``L``, and :func:`max_fusable_seq_len` reports where a
device runs out.  At L = 4096 the launch raises, which is why the
paper's recomposition — fusing softmax *sub-layers* whose working set
is one tile, independent of ``L`` — is the scalable alternative.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import KernelError
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch, MLP_MATMUL, WorkloadShape
from repro.gpu.occupancy import TBResources, compute_occupancy
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel, ceil_div
from repro.kernels.softmax import safe_softmax

#: Query rows each thread block owns end to end.
ROWS_PER_TB = 32

#: Bytes per score element held on-chip (fp32 accumulator).
_SCORE_BYTES = 4


def shared_mem_demand(seq_len: int, d_head: int,
                      dtype: DType = DType.FP16) -> int:
    """Shared memory one thread block needs: the fp32 score slab plus
    double-buffered K/V tiles."""
    score_slab = ROWS_PER_TB * seq_len * _SCORE_BYTES
    kv_tiles = 2 * 2 * 64 * d_head * dtype.nbytes
    return score_slab + kv_tiles


def max_fusable_seq_len(spec: GPUSpec, d_head: int = 64,
                        dtype: DType = DType.FP16) -> int:
    """Longest sequence whose fully fused MHA kernel still fits on
    ``spec`` (the Section 7 limitation, quantified)."""
    kv_tiles = 2 * 2 * 64 * d_head * dtype.nbytes
    budget = spec.max_shared_mem_per_sm - kv_tiles
    return max(0, budget // (ROWS_PER_TB * _SCORE_BYTES))


class FullyFusedMHAKernel(Kernel):
    """The whole SDA block in one kernel: zero attention-matrix traffic.

    Traffic is just Q/K/V in and the context matrix out.  The price is
    the ``ROWS_PER_TB x L`` fp32 score slab per thread block: the
    kernel refuses to launch once it exceeds the device's shared
    memory.
    """

    category = CATEGORY.MATMUL

    def __init__(
        self,
        batch_heads: int,
        seq_len: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        scale: float = 1.0,
        name: str = "mha_fully_fused",
    ) -> None:
        require_positive("batch_heads", batch_heads)
        require_positive("seq_len", seq_len)
        require_positive("d_head", d_head)
        self.batch_heads = batch_heads
        self.seq_len = seq_len
        self.d_head = d_head
        self.dtype = dtype
        self.scale = scale
        self.name = name

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        shared = shared_mem_demand(self.seq_len, self.d_head, self.dtype)
        if shared > spec.max_shared_mem_per_sm:
            raise KernelError(
                f"fully fused MHA needs {shared} B of shared memory per "
                f"thread block at L={self.seq_len}, but {spec.name} offers "
                f"{spec.max_shared_mem_per_sm} B — max fusable L is "
                f"{max_fusable_seq_len(spec, self.d_head, self.dtype)} "
                f"(Section 7: fused MHA kernels only apply to short "
                f"sequences)"
            )
        tb = TBResources(threads=256, shared_mem=shared,
                         registers_per_thread=128)
        compute_occupancy(spec, tb)  # raises if it cannot run at all
        bh, length, d = self.batch_heads, self.seq_len, self.d_head
        elem = self.dtype.nbytes
        operand = bh * length * d * elem
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=tb,
            shape=WorkloadShape(grid=bh * ceil_div(length, ROWS_PER_TB)),
            dram_read_bytes=3 * operand,
            dram_write_bytes=operand,
            tensor_flops=2 * 2.0 * bh * length * length * d,
            cuda_flops=7.0 * bh * length * length,  # scale + softmax
            bytes_in_flight_per_warp=MLP_MATMUL,
        )

    def compute(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Numerics: the whole attention block at fp16 storage."""
        q, k, v = self._stored(
            (self.batch_heads, self.seq_len, self.d_head), Q=q, K=k, V=v)
        scores = np.matmul(q, np.swapaxes(k, 1, 2), dtype=np.float32)
        probs = safe_softmax(scores * np.float32(self.scale))
        return self.dtype.quantize(np.matmul(probs, v, dtype=np.float32))


def verification_oracles():
    """Oracle for the fully fused MHA kernel (non-causal by design)."""
    from repro.common.dtypes import DType
    from repro.verify.contracts import FP16_ATTENTION, FP32_ATTENTION
    from repro.verify.refs import accumulation_slack, dense_attention
    from repro.verify.registry import OracleSpec

    def run(case):
        q = case.arrays["q_sq"]
        bh, l_k, d = q.shape
        kernel = FullyFusedMHAKernel(bh, l_k, d, dtype=case.dtype,
                                     scale=case.params["scale"])
        k, v = case.arrays["k"], case.arrays["v"]
        expected, scores, _ = dense_attention(q, k, v, case.dtype,
                                              scale=case.params["scale"])
        return {"actual": kernel.compute(q, k, v), "expected": expected,
                "slack": accumulation_slack(scores)}

    return [
        OracleSpec(
            name="attention.fused_mha_vs_dense",
            family="attention",
            run=run,
            contracts={DType.FP32: FP32_ATTENTION,
                       DType.FP16: FP16_ATTENTION},
            invariants=("finite_outputs",),
            applies=lambda case: not case.params["causal"],
            description="single-kernel fused MHA vs dense attention",
        ),
    ]
