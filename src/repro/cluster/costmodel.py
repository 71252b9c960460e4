"""Engine-step latency for a tensor/pipeline-parallel replica.

A cluster replica is one TP×PP GPU group serving the model as a unit.
:class:`ShardedStepCostModel` extends the single-GPU
:class:`~repro.serving.costmodel.StepCostModel` with Megatron sharding
and the collective traffic it implies:

- **compute** — the step kernels are built with ``tp_shards=tp``:
  column/row-parallel projections and FF slices carry ``1/tp`` of the
  work, attention runs over ``H/tp`` heads, and LayerNorm/residual
  replicate.  ``repro parallel`` shards its layers the same way, but
  its kernels differ: step GEMMs tile K by 64 and append to the KV cache;
- **communication** — every layer all-reduces the step's hidden states
  twice (post-attention and post-FF) under the configured ring/tree
  algorithm; each of the ``pp - 1`` pipeline boundaries ships them once
  point to point.  :mod:`repro.models.parallel` prices both for
  ``repro parallel`` and here alike.

Pipeline stages run the same step back to back for a single request
stream (inference, no microbatch overlap across requests in one engine
step), so compute time is unchanged by ``pp``; only the boundary
transfers are added.  Communication is a pure function of the step's
total token count, so it memoizes just like the compute side.
"""

from __future__ import annotations

from repro.common.dtypes import DType
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import (
    InterconnectSpec,
    NVLINK3,
    allreduce_time,
    alltoall_time,
)
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.parallel import layer_allreduce_time, stage_transfer_time
from repro.serving.costmodel import StepCostModel


class ShardedStepCostModel(StepCostModel):
    """Memoized engine-step latency for one TP×PP replica.

    ``step_cost`` returns ``(total, comm)`` so callers can report the
    communication share; ``step_time`` stays compatible with the base
    class and returns the total.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        kv_bucket: int = 64,
        tp: int = 1,
        pp: int = 1,
        ep: int = 1,
        interconnect: InterconnectSpec = NVLINK3,
        algorithm: str = "ring",
    ) -> None:
        require_positive("tp", tp)
        require_positive("pp", pp)
        super().__init__(model, gpu, plan=plan, dtype=dtype, t=t,
                         kv_bucket=kv_bucket, tp_shards=tp, ep_shards=ep)
        self.tp = tp
        self.pp = pp
        self.ep = ep
        self.interconnect = interconnect
        self.algorithm = algorithm
        # Validate the algorithm (and the sharding) eagerly, not on the
        # millionth step.
        allreduce_time(interconnect, 1, tp, algorithm=algorithm)
        self._comm_cache: dict[int, float] = {}

    @property
    def n_gpus(self) -> int:
        """GPUs in the replica group."""
        return self.tp * self.pp * self.ep

    def comm_time(self, total_tokens: int) -> float:
        """Collective time of one engine step over ``total_tokens``.

        Two hidden-state all-reduces per layer across the TP group,
        plus one point-to-point hidden-state transfer per pipeline
        boundary.  Expert parallelism (``ep > 1``) adds two all-to-alls
        per layer — dispatch and combine of the step's routed
        activations (``tokens * top_k`` rows) across the EP group.
        """
        if total_tokens <= 0:
            return 0.0
        cached = self._comm_cache.get(total_tokens)
        if cached is None:
            cached = self.model.num_layers * 2 * layer_allreduce_time(
                self.model, total_tokens, self.dtype, tp=self.tp,
                interconnect=self.interconnect, algorithm=self.algorithm,
            ) + (self.pp - 1) * stage_transfer_time(
                self.model, total_tokens, self.dtype,
                interconnect=self.interconnect)
            if self.ep > 1:
                from repro.models.moe import routed_bytes

                cached += self.model.num_layers * 2 * alltoall_time(
                    self.interconnect,
                    routed_bytes(self.model, total_tokens, self.dtype),
                    self.ep,
                )
            self._comm_cache[total_tokens] = cached
        return cached

    def step_cost(
        self,
        *,
        prefill: "list[tuple[int, int]] | None" = None,
        decode_kv: "list[int] | None" = None,
    ) -> "tuple[float, float]":
        """One engine step's ``(total, comm)`` latency in seconds."""
        compute = super().step_time(prefill=prefill, decode_kv=decode_kv)
        if compute == 0.0:
            return 0.0, 0.0
        total_tokens = (sum(m for m, _ in (prefill or []))
                        + len(decode_kv or []))
        comm = self.comm_time(total_tokens)
        return compute + comm, comm

    def decode_step_cost(self, decode_kv: "list[int]") -> "tuple[float, float]":
        """:meth:`step_cost` for a pure-decode step, as a hot path.

        Composes the base class's memo-walking
        :meth:`~repro.serving.costmodel.StepCostModel.decode_step_time`
        with the memoized collective time exactly as ``step_cost``
        does, so the floats match it bit for bit.
        """
        compute = self.decode_step_time(decode_kv)
        if compute == 0.0:
            return 0.0, 0.0
        comm = self.comm_time(len(decode_kv))
        return compute + comm, comm

    def step_time(
        self,
        *,
        prefill: "list[tuple[int, int]] | None" = None,
        decode_kv: "list[int] | None" = None,
    ) -> float:
        total, _ = self.step_cost(prefill=prefill, decode_kv=decode_kv)
        return total
