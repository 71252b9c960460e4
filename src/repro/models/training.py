"""Training-step simulation for the SDA block (Section 6).

The paper argues softmax recomposition applies to the *forward* pass
of training: the backward pass of softmax needs only the softmax
output (Eq. 3), so the forward never has to materialise the softmax
input off-chip.  :class:`TrainingSDAStep` makes that concrete:

- the **forward** runs under any plan (baseline / SD / SDF) exactly as
  in inference — under SDF the attention matrix is stored once, as the
  locally softmaxed ``X'`` plus the tiny ``r'`` factors, which is all
  the backward needs to reconstruct ``Y = X' * r'``;
- the **backward** is the standard five-kernel chain
  (``dV = Y^T dO``, ``dA = dO V^T``, softmax backward, ``dQ = dX K``,
  ``dK = dX^T Q``) and is identical across plans, except that plans
  whose forward never writes ``Y`` (SDF and the GS-only ablation)
  reconstruct it from ``X'``/``r'`` in their prologues (one extra
  multiply per element, no extra traffic beyond ``r'``).

Only row-softmax plans are modelled: whole-block kernels (fused MHA,
FlashAttention) never write the attention matrix this backward reads,
and the online/batched softmaxes are outside the model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import PlanError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.core.recompose import plan_graph
from repro.gpu.device import Device
from repro.gpu.profiler import Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.backward import SoftmaxBackwardKernel
from repro.kernels.base import CATEGORY, Kernel
from repro.kernels.decomposed import INTERMEDIATE_BYTES
from repro.kernels.matmul import MatMulKernel
from repro.models.attention import SDABlock
from repro.models.config import AttentionKind, AttentionSpec


@dataclass(frozen=True)
class TrainingProfiles:
    """Forward and backward profiles of one SDA training step."""

    forward: Profile
    backward: Profile

    @property
    def total_time(self) -> float:
        """Forward + backward latency in seconds."""
        return self.forward.total_time() + self.backward.total_time()

    @property
    def total_dram_bytes(self) -> float:
        """Forward + backward off-chip traffic in bytes."""
        return (self.forward.total_dram_bytes()
                + self.backward.total_dram_bytes())


class TrainingSDAStep:
    """One dense SDA block, forward + backward, under a chosen plan."""

    def __init__(
        self,
        *,
        batch: int,
        num_heads: int,
        seq_len: int,
        d_head: int,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        spec: "AttentionSpec | None" = None,
        layout_seed: int = 0,
    ) -> None:
        require_positive("seq_len", seq_len)
        self.plan = AttentionPlan.from_name(plan)
        record = self.plan.record
        if record.block is not None or record.softmax != "row":
            raise PlanError(
                f"training is modelled for the baseline/SD/SDF plans, "
                f"not {self.plan.value!r}"
            )
        self.batch_heads = batch * num_heads
        self.seq_len = seq_len
        self.d_head = d_head
        self.dtype = dtype
        self.t = t
        self.spec = spec or AttentionSpec(kind=AttentionKind.DENSE)
        self.forward_block = SDABlock(
            batch=batch, num_heads=num_heads, seq_len=seq_len,
            d_head=d_head, spec=self.spec,
            plan=self.plan, dtype=dtype, t=t, layout_seed=layout_seed,
        )
        self.layout = self.forward_block.layout

    def _backward_kernels(self) -> list[Kernel]:
        if self.layout is not None:
            return self._sparse_backward_kernels()
        return self._dense_backward_kernels()

    def _sparse_backward_kernels(self) -> list[Kernel]:
        """Block-sparse backward chain: gradients exist only at the
        layout's nonzero blocks (the mask is constant, not learned)."""
        from repro.kernels.backward import BlockSparseSoftmaxBackward
        from repro.sparse.bsmatmul import (
            BlockSparseMatMulDSD,
            BlockSparseMatMulSDD,
        )

        bh, d = self.batch_heads, self.d_head
        layout = self.layout
        transposed = layout.transposed()
        return [
            # dV = S^T @ dO : sparse-transposed LHS against dO.
            BlockSparseMatMulDSD(transposed, bh, d, dtype=self.dtype,
                                 name="bwd_dv_bs_matmul"),
            # dA = dO @ V^T at the nonzero blocks only.
            BlockSparseMatMulSDD(layout, bh, d, dtype=self.dtype,
                                 name="bwd_da_bs_matmul"),
            BlockSparseSoftmaxBackward(layout, bh, dtype=self.dtype),
            # dQ = dX @ K and dK = dX^T @ Q.
            BlockSparseMatMulDSD(layout, bh, d, dtype=self.dtype,
                                 name="bwd_dq_bs_matmul"),
            BlockSparseMatMulDSD(transposed, bh, d, dtype=self.dtype,
                                 name="bwd_dk_bs_matmul"),
        ]

    def _dense_backward_kernels(self) -> list[Kernel]:
        bh, length, d = self.batch_heads, self.seq_len, self.d_head
        # When the forward never writes Y (GS fused into the AV MatMul)
        # the stored attention matrix is X'; kernels that consume Y
        # reconstruct it as X' * r' in their prologue: one extra CUDA
        # FLOP per LHS element plus the 1/T-sized r' read.
        recomposed = plan_graph(self.plan).producer("Y") is None
        reconstruct_flops = 1.0 if recomposed else 0.0
        r_prime_bytes = (
            bh * length * (length // self.t) * INTERMEDIATE_BYTES
            if recomposed else 0.0
        )

        class _YConsumingMatMul(MatMulKernel):
            def _extra_read_bytes(self) -> float:
                return r_prime_bytes

            def _extra_cuda_flops(self) -> float:
                return reconstruct_flops * self.batch * self.m * self.k

        return [
            # dV = Y^T @ dO : reads the stored attention matrix once.
            _YConsumingMatMul(batch=bh, m=length, n=d, k=length,
                              dtype=self.dtype, name="bwd_dv_matmul",
                              category=CATEGORY.MATMUL),
            # dA = dO @ V^T : writes an attention-sized gradient.
            MatMulKernel(batch=bh, m=length, n=length, k=d,
                         dtype=self.dtype, name="bwd_da_matmul",
                         category=CATEGORY.MATMUL),
            # dX = softmax_backward(Y, dA): 3 more sweeps.
            SoftmaxBackwardKernel(rows=bh * length, length=length,
                                  dtype=self.dtype),
            # dQ = dX @ K and dK = dX^T @ Q: read dX twice.
            MatMulKernel(batch=bh, m=length, n=d, k=length,
                         dtype=self.dtype, name="bwd_dq_matmul",
                         category=CATEGORY.MATMUL),
            MatMulKernel(batch=bh, m=length, n=d, k=length,
                         dtype=self.dtype, name="bwd_dk_matmul",
                         category=CATEGORY.MATMUL),
        ]

    def simulate(self, gpu: "GPUSpec | str" = "A100") -> TrainingProfiles:
        """Cost-only forward + backward on ``gpu``."""
        spec = get_gpu(gpu)
        device = Device(spec)
        self.forward_block.simulate(device)
        forward = device.take_profile()
        for kernel in self._backward_kernels():
            kernel.simulate(device)
        return TrainingProfiles(forward=forward,
                                backward=device.take_profile())
