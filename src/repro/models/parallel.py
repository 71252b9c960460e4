"""Tensor-parallel inference (Megatron-style) — an extension beyond the
paper's single-GPU evaluation.

The MHA block splits by heads (Q/K/V/out projections column/row
parallel) and the FF block by its hidden dimension; each transformer
layer then needs two all-reduces of the hidden states (after the
attention output projection and after FC2).  Softmax recomposition
applies unchanged within each GPU's shard — every GPU runs the same
SDA pipeline over ``H/n`` heads — so the speedup survives tensor
parallelism, diluted only by the communication share.

The shard is the standard layer built with ``tp_shards=n``; the
collectives are priced by :func:`layer_allreduce_time` and
:func:`stage_transfer_time`, which the cluster's cost model shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.gpu.interconnect import (
    InterconnectSpec,
    NVLINK3,
    allreduce_time,
    point_to_point_time,
)
from repro.gpu.profiler import KernelRecord, Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.models.runtime import InferenceResult, InferenceSession

#: Profiler category for collective communication.
COMM_CATEGORY = "comm"


def _hidden_bytes(model: ModelConfig, tokens: int, dtype: DType) -> int:
    return tokens * model.d_model * dtype.nbytes


def layer_allreduce_time(model: ModelConfig, tokens: int, dtype: DType, *,
                         tp: int, interconnect: InterconnectSpec,
                         algorithm: str) -> float:
    """One of a layer's two hidden-state all-reduces (post-attention
    and post-FF) over ``tokens`` rows across a ``tp``-GPU group."""
    return allreduce_time(interconnect, _hidden_bytes(model, tokens, dtype),
                          tp, algorithm=algorithm)


def stage_transfer_time(model: ModelConfig, tokens: int, dtype: DType, *,
                        interconnect: InterconnectSpec) -> float:
    """One pipeline-boundary transfer of ``tokens`` rows of hidden
    states, point to point."""
    return point_to_point_time(interconnect,
                               _hidden_bytes(model, tokens, dtype))


@dataclass(frozen=True)
class TensorParallelResult:
    """Outcome of a tensor-parallel inference simulation."""

    result: InferenceResult
    n_gpus: int
    interconnect: InterconnectSpec
    #: All-reduce algorithm the collectives were charged with.
    algorithm: str = "ring"

    @property
    def total_time(self) -> float:
        """Per-inference latency (all GPUs run in lockstep)."""
        return self.result.total_time

    @property
    def comm_time(self) -> float:
        """Time spent in all-reduces."""
        return self.result.profile.time_by_category().get(COMM_CATEGORY, 0.0)

    @property
    def comm_fraction(self) -> float:
        """Fraction of latency spent communicating."""
        return self.comm_time / self.total_time

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict(
            "tensor-parallel",
            model=self.result.model.name,
            gpu=self.result.gpu.name,
            plan=self.result.plan.value,
            seq_len=self.result.seq_len,
            batch=self.result.batch,
            n_gpus=self.n_gpus,
            interconnect=self.interconnect.name,
            algorithm=self.algorithm,
            total_time_s=self.total_time,
            comm_time_s=self.comm_time,
            comm_fraction=self.comm_fraction,
        )


class TensorParallelSession(InferenceSession):
    """Simulate one model sharded across ``n_gpus`` identical devices.

    Every GPU runs the same shard (``tp_shards = n_gpus``) of each
    layer, and the two per-layer hidden-state all-reduces are charged
    to the interconnect.  Inputs are checked as
    :class:`InferenceSession` checks them; the plan must be a fixed
    one (``"auto"`` measures unsharded layers, so it is rejected).
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        *,
        n_gpus: int = 2,
        gpu: "GPUSpec | str" = "A100",
        interconnect: InterconnectSpec = NVLINK3,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        seq_len: int = 4096,
        batch: int = 1,
        dtype: DType = DType.FP16,
        t: int = 64,
        algorithm: str = "ring",
    ) -> None:
        require_positive("n_gpus", n_gpus)
        self.n_gpus = self.tp_shards = n_gpus
        self.interconnect = interconnect
        self.algorithm = algorithm
        super().__init__(model, gpu=gpu, plan=AttentionPlan.from_name(plan),
                         seq_len=seq_len, batch=batch, dtype=dtype, t=t)

    def simulate(self) -> TensorParallelResult:
        """Cost-only tensor-parallel inference (not memoized)."""
        result = self._simulate_uncached()
        tokens = self.batch * self.seq_len
        hidden_bytes = _hidden_bytes(self.model, tokens, self.dtype)
        comm = layer_allreduce_time(
            self.model, tokens, self.dtype, tp=self.n_gpus,
            interconnect=self.interconnect, algorithm=self.algorithm)
        profile = Profile()
        for _, count, layer_profile in result.layer_groups:
            # Two all-reduces per layer: post-attention and post-FF.
            for index in range(2):
                layer_profile.add(KernelRecord(
                    name=f"allreduce_{index}",
                    category=COMM_CATEGORY,
                    time=comm,
                    dram_read_bytes=hidden_bytes,
                    dram_write_bytes=hidden_bytes,
                    tensor_flops=0.0,
                    cuda_flops=0.0,
                    bandwidth_utilization=0.0,
                    bound="memory",
                ))
            profile.extend(layer_profile.scaled(count))
        return TensorParallelResult(
            result=self._result(profile, result.layer_groups),
            n_gpus=self.n_gpus,
            interconnect=self.interconnect,
            algorithm=self.algorithm,
        )


@dataclass(frozen=True)
class PipelineParallelResult:
    """Outcome of a pipeline-parallel inference simulation."""

    stage_time: float
    n_stages: int
    microbatches: int
    comm_per_boundary: float

    @property
    def bubble_fraction(self) -> float:
        """Idle fraction from pipeline fill/drain:
        ``(stages - 1) / (microbatches + stages - 1)``."""
        return (self.n_stages - 1) / (self.microbatches + self.n_stages - 1)

    @property
    def total_time(self) -> float:
        """Latency of the whole batch through the pipeline.

        Each of ``microbatches + stages - 1`` pipeline ticks costs one
        stage time plus one activation transfer.
        """
        ticks = self.microbatches + self.n_stages - 1
        return ticks * (self.stage_time + self.comm_per_boundary)

    @property
    def throughput_efficiency(self) -> float:
        """Useful fraction of device-time (1 - bubble, ignoring comm)."""
        return 1.0 - self.bubble_fraction

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict(
            "pipeline-parallel",
            n_stages=self.n_stages,
            microbatches=self.microbatches,
            stage_time_s=self.stage_time,
            comm_per_boundary_s=self.comm_per_boundary,
            bubble_fraction=self.bubble_fraction,
            total_time_s=self.total_time,
            throughput_efficiency=self.throughput_efficiency,
        )


class PipelineParallelSession:
    """Layer-wise pipeline parallelism (GPipe-style, inference).

    The layer stack splits into ``n_stages`` contiguous stages; the
    batch splits into ``microbatches`` that stream through.  Per-stage
    compute reuses the single-GPU layer simulation; stage boundaries
    ship one microbatch of hidden states point to point.

    Complementary to :class:`TensorParallelSession`: tensor parallelism
    cuts *latency* (every GPU works on every token), pipelining cuts
    nothing off the single-request latency but scales *throughput* with
    far less communication.
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        *,
        n_stages: int = 2,
        microbatches: int = 4,
        gpu: "GPUSpec | str" = "A100",
        interconnect: InterconnectSpec = NVLINK3,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        seq_len: int = 4096,
        batch: int = 4,
        dtype: DType = DType.FP16,
        t: int = 64,
    ) -> None:
        require_positive("n_stages", n_stages)
        require_positive("microbatches", microbatches)
        self.model = get_model(model)
        if self.model.num_layers % n_stages != 0:
            raise ConfigError(
                f"{self.model.name}: {self.model.num_layers} layers do not "
                f"split across {n_stages} stages"
            )
        if batch % microbatches != 0:
            raise ConfigError(
                f"batch {batch} not divisible into {microbatches} microbatches"
            )
        self.n_stages = n_stages
        self.microbatches = microbatches
        self.gpu = get_gpu(gpu)
        self.interconnect = interconnect
        self.plan = AttentionPlan.from_name(plan)
        self.seq_len = seq_len
        self.batch = batch
        self.dtype = dtype
        self.t = t

    def simulate(self) -> PipelineParallelResult:
        """Cost-only pipeline-parallel inference of one batch."""
        micro = self.batch // self.microbatches
        one_microbatch = InferenceSession(
            self.model, gpu=self.gpu, plan=self.plan,
            seq_len=self.seq_len, batch=micro, dtype=self.dtype, t=self.t,
        ).simulate()
        return PipelineParallelResult(
            stage_time=one_microbatch.total_time / self.n_stages,
            n_stages=self.n_stages,
            microbatches=self.microbatches,
            comm_per_boundary=stage_transfer_time(
                self.model, micro * self.seq_len, self.dtype,
                interconnect=self.interconnect),
        )
