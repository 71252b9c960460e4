"""One serving engine's configuration, declared once.

:class:`EngineConfig` holds every knob that shapes one engine.  Each
front-end (serving, the cluster's replicas and shards, the control
plane's fleet, and the tuner through them) builds one from its keyword
arguments, and the config assembles every engine they run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.interconnect import NVLINK3, InterconnectSpec
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.serving.costmodel import check_serving_plan, shared_cost_model
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.memory import KVBlockManager, check_reserve_fraction
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.serving.specdecode import spec_decode_runtime

__all__ = ["ENGINE_MODES", "EngineConfig"]

#: Execution modes: ``epoch`` (vectorized fast path, the default) and
#: ``event`` (the classic one-step-per-iteration loop).
ENGINE_MODES = ("epoch", "event")


@dataclass(frozen=True)
class EngineConfig:
    """Every knob that shapes one serving engine; frozen and picklable
    (a sharded cluster run ships one per worker).  The model, GPU and
    plan are resolved, and the plan and the step sizes checked, on
    construction, so a bad knob fails where the front-end is built.

    >>> EngineConfig("bert-large", "a100", "sdf", tp=2).plan.value
    'sdf'
    """

    model: ModelConfig
    gpu: GPUSpec
    plan: "AttentionPlan | PlanSource | str" = AttentionPlan.BASELINE
    #: The decomposition's tile width T.
    t: int = 64
    dtype: DType = DType.FP16
    chunk_tokens: int = 512
    max_batch: int = 32
    #: KV block size; decode KV lengths are priced at this granularity.
    block_tokens: int = 64
    reserve_fraction: float = 0.1
    #: The replica group's shards, links and all-reduce algorithm.
    tp: int = 1
    pp: int = 1
    ep: int = 1
    interconnect: InterconnectSpec = NVLINK3
    algorithm: str = "ring"
    #: Speculative decoding: the proposer (``None`` disables it), its
    #: depth γ and its modeled acceptance rate.
    draft_model: "ModelConfig | str | None" = None
    draft_len: int = 4
    accept_rate: float = 1.0
    #: Stepping mode (one of :data:`ENGINE_MODES`) and epoch cap.
    engine: str = "epoch"
    max_epoch: int = DEFAULT_MAX_EPOCH

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_MODES:
            raise ServingError(
                f"engine must be one of {ENGINE_MODES}, got {self.engine!r}"
            )
        for name in ("t", "chunk_tokens", "max_batch", "max_epoch"):
            require_positive(name, getattr(self, name))
        check_reserve_fraction(self.reserve_fraction)
        model, gpu = get_model(self.model), get_gpu(self.gpu)
        plan = resolve_plan(self.plan, model=model, gpu=gpu, t=self.t)
        check_serving_plan(plan)
        object.__setattr__(self, "model", model)
        object.__setattr__(self, "gpu", gpu)
        object.__setattr__(self, "plan", plan)

    @property
    def sharding(self) -> "dict[str, object]":
        """The replica group's layout, as
        :class:`~repro.cluster.costmodel.ShardedStepCostModel` takes it."""
        return dict(tp=self.tp, pp=self.pp, ep=self.ep,
                    interconnect=self.interconnect, algorithm=self.algorithm)

    def kv_pool(self) -> KVBlockManager:
        """A fresh KV pool sized for the replica group."""
        return KVBlockManager.for_model(
            self.model, self.gpu, block_tokens=self.block_tokens,
            dtype=self.dtype, reserve_fraction=self.reserve_fraction,
            n_gpus=self.tp * self.pp * self.ep)

    def priced(self, cls, costs: "dict | None" = None, **sharding):
        """The engine's ``cls`` step-cost model (``sharding`` adds a
        replica group's layout) and draft runtime (``None`` without a
        draft model), from the pool ``costs``
        (:func:`~repro.serving.costmodel.shared_cost_model`)."""
        cost = shared_cost_model(
            costs, cls, self.model, self.gpu, plan=self.plan,
            dtype=self.dtype, t=self.t, kv_bucket=self.block_tokens,
            **sharding)
        return cost, spec_decode_runtime(self, costs)

    def build_engine(self, cost, spec_decode, *, tracer, lane: str,
                     on_step) -> EpochEngine:
        """An engine stepping a fresh KV pool and scheduler at ``cost``;
        the scheduler traces to ``lane`` and ``on_step`` receives each
        traced :class:`~repro.serving.engine.Stretch`."""
        memory = self.kv_pool()
        scheduler = ContinuousBatchingScheduler(
            memory, chunk_tokens=self.chunk_tokens,
            max_batch=self.max_batch, tracer=tracer, trace_process=lane)
        return EpochEngine(
            cost=cost, memory=memory, scheduler=scheduler, tracer=tracer,
            epoch=self.engine == "epoch", max_epoch=self.max_epoch,
            on_step=on_step, spec_decode=spec_decode)
