"""Inference runtime: run a model on a simulated device.

:class:`InferenceSession` is the user-facing entry point.  Two modes:

- :meth:`InferenceSession.simulate` — cost-only execution at full
  paper scale (L = 4096 attention matrices are never materialised);
  identical layers are timed once and the profile replicated.
- :meth:`InferenceSession.forward` — numeric execution for
  correctness tests and small-scale demos.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.device import Device
from repro.gpu.energy import EnergyModel
from repro.gpu.profiler import Profile
from repro.gpu.simcache import MISSING, simulate_cache
from repro.obs.tracer import current_tracer
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, _check_tp_shards, get_model
from repro.models.layers import TransformerLayer
from repro.models.weights import ModelWeights


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one simulated inference."""

    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    seq_len: int
    batch: int
    profile: Profile
    #: Per-layer-group profiles: (group label, layer count, one-layer
    #: profile).  Populated by :meth:`InferenceSession.simulate`.
    layer_groups: tuple = ()

    @property
    def total_time(self) -> float:
        """End-to-end latency in seconds."""
        return self.profile.total_time()

    @property
    def total_dram_bytes(self) -> float:
        """Total off-chip traffic in bytes."""
        return self.profile.total_dram_bytes()

    @property
    def offchip_energy(self) -> float:
        """Off-chip access energy in joules."""
        return EnergyModel(self.gpu).offchip_energy(self.profile)

    def time_breakdown(self) -> dict[str, float]:
        """Execution time per kernel category (Fig. 2 stacks)."""
        return self.profile.time_by_category()

    def traffic_breakdown(self) -> dict[str, float]:
        """Off-chip traffic per kernel category (Fig. 8(b) stacks)."""
        return self.profile.traffic_by_category()

    def softmax_time_fraction(self) -> float:
        """Fraction of latency spent in softmax kernels."""
        return self.profile.time_fraction("softmax")

    def speedup_over(self, baseline: "InferenceResult") -> float:
        """``baseline.total_time / self.total_time``."""
        return baseline.total_time / self.total_time

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``).

        Carries the headline numbers and the per-category breakdowns;
        kernel-level spans are exported separately by
        ``repro trace --sim inference``.
        """
        from repro.common.results import result_dict

        return result_dict(
            "inference",
            model=self.model.name,
            gpu=self.gpu.name,
            plan=self.plan.value,
            seq_len=self.seq_len,
            batch=self.batch,
            total_time_s=self.total_time,
            total_dram_bytes=float(self.total_dram_bytes),
            offchip_energy_j=self.offchip_energy,
            softmax_time_fraction=self.softmax_time_fraction(),
            time_breakdown_s=self.time_breakdown(),
            traffic_breakdown_bytes=self.traffic_breakdown(),
        )

    def layer_summary(self) -> list[tuple[str, int, float, float]]:
        """Per-layer-group rows: (label, layer count, per-layer latency
        seconds, share of total time)."""
        total = self.total_time or 1.0
        return [
            (label, count, profile.total_time(),
             profile.total_time() * count / total)
            for label, count, profile in self.layer_groups
        ]


def simulate_cache_key(model, gpu, plan, seq_len, batch, *,
                       dtype=DType.FP16, t=64, layout_seed=0):
    """Content address of one cost-only simulation.

    Shared by :meth:`InferenceSession.simulate` and the sweep engine
    (which seeds the cache with results computed in worker processes),
    so both always agree on what identifies a result.
    """
    return (model, gpu, plan, seq_len, batch, dtype, t, layout_seed)


def freeze_result(result: InferenceResult) -> InferenceResult:
    """Deep-freeze a result's profiles before it enters the cache."""
    result.profile.freeze()
    for _, _, group_profile in result.layer_groups:
        group_profile.freeze()
    return result


class InferenceSession:
    """Configured model + device + plan, ready to simulate or run.

    >>> session = InferenceSession("bert-large", gpu="A100",
    ...                            plan="sdf", seq_len=4096)
    >>> result = session.simulate()
    >>> result.total_time > 0
    True
    """

    #: Tensor-parallel GPUs per layer (``TensorParallelSession`` sets it).
    tp_shards = 1

    def __init__(
        self,
        model: "ModelConfig | str",
        *,
        gpu: "GPUSpec | str" = "A100",
        plan: "PlanSource | AttentionPlan | str" = AttentionPlan.BASELINE,
        seq_len: int = 4096,
        batch: int = 1,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
        weight_seed: int = 0,
    ) -> None:
        self.model = get_model(model)
        self.gpu = get_gpu(gpu)
        _check_tp_shards(self.model, self.tp_shards)
        if getattr(self.model, "is_moe", False):
            raise ConfigError(
                f"{self.model.name}: the single-pass inference session "
                f"executes layers numerically and does not route "
                f"mixture-of-experts FFNs; run MoE scenarios through the "
                f"serving simulators (serve-sim / cluster-sim)"
            )
        # PlanSource is the one resolution point: fixed names/enums or
        # "auto" (measured selection).
        self.plan = resolve_plan(plan, model=self.model, gpu=self.gpu,
                                 seq_len=seq_len, batch=batch, t=t)
        if seq_len < 1:
            raise ConfigError(f"seq_len must be positive, got {seq_len}")
        if batch < 1:
            raise ConfigError(f"batch must be positive, got {batch}")
        self.seq_len = seq_len
        self.batch = batch
        self.dtype = dtype
        self.t = t
        self.layout_seed = layout_seed
        self.weights = ModelWeights(self.model, seed=weight_seed)

    def _make_layer(self, layer: int) -> TransformerLayer:
        return TransformerLayer(
            self.model,
            layer,
            batch=self.batch,
            seq_len=self.seq_len,
            plan=self.plan,
            dtype=self.dtype,
            t=self.t,
            layout_seed=self.layout_seed,
            tp_shards=self.tp_shards,
        )

    def _simulate_key(self):
        """Content address of a cost-only simulation.

        Everything :meth:`simulate` depends on — weights are excluded
        on purpose (cost-only execution never touches values).
        """
        return simulate_cache_key(
            self.model, self.gpu, self.plan, self.seq_len, self.batch,
            dtype=self.dtype, t=self.t, layout_seed=self.layout_seed,
        )

    def simulate(self) -> InferenceResult:
        """Cost-only inference at full scale.

        Layers sharing an attention spec produce identical kernels, so
        each distinct spec is simulated once and its profile replicated.

        Memoized across sessions: the result is a pure function of
        ``(model, gpu, plan, seq_len, batch, dtype, t, layout_seed)``,
        so repeated sweep points return the *same* deep-frozen
        :class:`InferenceResult` (its profiles reject mutation).  Call
        :func:`repro.gpu.simcache.invalidate` to flush.
        """
        key = self._simulate_key()
        cached = simulate_cache.get(key, MISSING)
        if cached is not MISSING:
            self._trace_simulate(cached, hit=True)
            return cached
        result = self._simulate_uncached()
        simulate_cache.put(key, freeze_result(result))
        self._trace_simulate(result, hit=False)
        return result

    def _trace_simulate(self, result: InferenceResult, *, hit: bool) -> None:
        """Record one cost-only simulation on the active tracer."""
        tracer = current_tracer()
        if not tracer.enabled:
            return
        pid, tid = tracer.track("inference", self.gpu.name)
        tracer.push(
            f"{self.model.name} {self.plan.value}", "inference",
            result.total_time, pid=pid, tid=tid,
            args={
                "seq_len": self.seq_len,
                "batch": self.batch,
                "cached": hit,
                "softmax_fraction": result.softmax_time_fraction(),
            },
        )
        tracer.metrics.counter("inference.simulations").inc()
        tracer.metrics.counter("inference.sim_time_s").add(result.total_time)

    def _simulate_uncached(self) -> InferenceResult:
        """One full cost-only simulation (the pre-cache code path)."""
        device = Device(self.gpu)
        profile = Profile()
        layer_groups = []
        for layer, spec, count in self.model.layer_groups():
            self._make_layer(layer).simulate(device)
            layer_profile = device.take_profile()
            layer_groups.append((spec.kind.value, count, layer_profile))
            profile.extend(layer_profile.scaled(count))
        return self._result(profile, tuple(layer_groups))

    def _result(self, profile: Profile,
                layer_groups: tuple = ()) -> InferenceResult:
        """This session's configuration around ``profile``."""
        return InferenceResult(
            model=self.model,
            gpu=self.gpu,
            plan=self.plan,
            seq_len=self.seq_len,
            batch=self.batch,
            profile=profile,
            layer_groups=layer_groups,
        )

    def forward(
        self, hidden: np.ndarray, *, with_device: bool = False
    ):
        """Numeric inference over ``(batch, L, D)`` hidden states.

        Returns the output hidden states, or ``(output, result)`` when
        ``with_device`` is set.  Intended for small ``seq_len``; the
        attention matrices are materialised.
        """
        expected = (self.batch, self.seq_len, self.model.d_model)
        if tuple(hidden.shape) != expected:
            raise ConfigError(
                f"hidden shape {hidden.shape}, expected {expected}"
            )
        device = Device(self.gpu) if with_device else None
        for layer in range(self.model.num_layers):
            hidden = self._make_layer(layer).forward(
                hidden, self.weights.layer(layer), device
            )
        if with_device:
            return hidden, self._result(device.take_profile())
        return hidden
