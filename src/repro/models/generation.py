"""Autoregressive generation with a KV cache.

The paper evaluates single-pass (prefill-style) inference over long
inputs; production GPT serving adds a second phase — token-by-token
decode against a growing key/value cache.  This module simulates that
full pipeline so users can see where softmax recomposition matters:

- **prefill** processes the whole prompt at once — the L x L attention
  matrix dominates and recomposition applies in full;
- **decode** computes one query row per step — the "attention matrix"
  is 1 x L per head, far too small to be memory-sweep-bound, so the
  step is dominated by streaming the weights and the KV cache.
  Recomposition is honestly irrelevant there, and the simulation shows
  it.

Decode kernels reuse the library's MatMul/softmax kernels at m = 1
shapes; the KV cache contributes an append write and a full read per
layer per step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.core.recompose import build_kernels
from repro.gpu.device import Device
from repro.gpu.profiler import Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.base import CATEGORY, ceil_div
from repro.kernels.decomposed import (
    GlobalScaleKernel,
    InterReductionKernel,
    LocalSoftmaxKernel,
)
from repro.kernels.elementwise import AddBiasGeluKernel, LayerNormKernel, \
    ResidualAddKernel
from repro.kernels.fused import FusedGSMatMulKernel, FusedMatMulLSKernel
from repro.kernels.matmul import MatMulKernel
from repro.kernels.softmax import RowSoftmaxKernel
from repro.models.config import AttentionKind, ModelConfig, get_model
from repro.models.footprint import weight_bytes
from repro.models.runtime import InferenceResult, InferenceSession


def kv_cache_bytes_for(
    model: ModelConfig,
    tokens: int,
    *,
    batch: int = 1,
    dtype: DType = DType.FP16,
) -> int:
    """Bytes of K and V cached for ``tokens`` positions of every layer."""
    return 2 * batch * model.num_layers * tokens * model.d_model * dtype.nbytes


def attention_step_kernels(
    model: ModelConfig,
    layer: int,
    *,
    m_tokens: int,
    kv_len: int,
    batch: int = 1,
    dtype: DType = DType.FP16,
    plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
    t: int = 64,
    prefix: str = "dec",
    tp_shards: int = 1,
) -> list:
    """Attention kernels of one layer step: ``m_tokens`` query rows
    against ``kv_len`` cached keys/values.

    With ``tp_shards > 1`` the kernels are the *per-GPU* work of a
    Megatron tensor-parallel group: each shard runs the identical
    pipeline over ``H / tp_shards`` heads (the collectives are charged
    separately by the caller).

    Plan-aware for the rectangular chunked-prefill shapes
    (``m_tokens > 1``): the decomposition plans replace the monolithic
    softmax with LS/IR/GS (fused per the plan's graph), padding the row
    length up to a whole number of ``t``-sized sub-vectors.  Every
    other plan runs the baseline chain (this library has no
    rectangular online, batched or whole-block kernels).  Decode steps
    (``m_tokens = 1``) always use the monolithic row softmax — a
    ``1 x kv_len`` row is far too small for recomposition to matter,
    and that honesty is the point of the decode model.  Local-causal
    layers attend to a fixed window, short enough that they also keep
    the monolithic kernel under every plan.
    """
    plan = AttentionPlan.from_name(plan)
    _check_tp_shards(model, tp_shards)
    heads, d_head = model.num_heads // tp_shards, model.d_head
    spec = model.layer_attention(layer)
    windowed = spec.kind is AttentionKind.LOCAL_CAUSAL
    attend_len = (min(kv_len, spec.window + m_tokens - 1) if windowed
                  else kv_len)
    m = m_tokens
    bh = batch * heads
    rows = bh * m
    tile_m = min(128, max(1, m))
    # Decode rows, windowed layers and plans without rectangular
    # kernels all run the baseline chain (see above).
    if not (plan.record.decompose and m > 1 and not windowed):
        plan = AttentionPlan.BASELINE
    # A row decomposes into whole sub-vectors; ragged tails are padded.
    n_attend = (ceil_div(attend_len, t) * t if plan.record.decompose
                else attend_len)
    n_sv = n_attend // t
    table = {
        "qk": lambda: MatMulKernel(
            batch=bh, m=m, n=n_attend, k=d_head, dtype=dtype,
            tile_m=tile_m, tile_n=128, tile_k=min(64, d_head),
            name=f"{prefix}_qk_matmul", category=CATEGORY.MATMUL),
        "softmax": lambda: RowSoftmaxKernel(
            rows=rows, length=n_attend, dtype=dtype,
            name=f"{prefix}_softmax"),
        "av": lambda: MatMulKernel(
            batch=bh, m=m, n=d_head, k=n_attend, dtype=dtype,
            tile_m=tile_m, tile_n=64, tile_k=64,
            name=f"{prefix}_av_matmul", category=CATEGORY.MATMUL),
        "ls": lambda: LocalSoftmaxKernel(
            num_subvectors=rows * n_sv, t=t, dtype=dtype,
            name=f"{prefix}_ls"),
        "ir": lambda: InterReductionKernel(
            rows=rows, mean_subvectors=n_sv, name=f"{prefix}_ir"),
        "gs": lambda: GlobalScaleKernel(
            num_subvectors=rows * n_sv, t=t, dtype=dtype,
            name=f"{prefix}_gs"),
        "qk_ls": lambda: FusedMatMulLSKernel(
            batch=bh, m=m, n=n_attend, k=d_head, t=t, dtype=dtype,
            name=f"{prefix}_qk_ls_fused"),
        "gs_av": lambda: FusedGSMatMulKernel(
            batch=bh, m=m, n=d_head, k=n_attend, t=t, dtype=dtype,
            name=f"{prefix}_gs_av_fused"),
    }
    return build_kernels(plan, table, "serving steps")


def layer_step_kernels(
    model: ModelConfig,
    layer: int,
    *,
    m_tokens: int,
    kv_len: int,
    batch: int = 1,
    dtype: DType = DType.FP16,
    plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
    t: int = 64,
    prefix: str = "dec",
    tp_shards: int = 1,
    ep_shards: int = 1,
) -> list:
    """Kernel launches of one layer processing ``m_tokens`` new queries
    against ``kv_len`` cached keys/values.

    ``m_tokens = 1`` is a decode step (every GEMM is a GEMV streaming
    the weights); ``m_tokens = C`` is one chunked-prefill step
    (rectangular ``C x kv_len`` attention).  Shared by
    :class:`GenerationSession` and the serving simulator's step cost
    model (:mod:`repro.serving.costmodel`).  ``tp_shards`` selects one
    tensor-parallel GPU's share of the layer (collectives excluded).
    """
    pre, post = mlp_step_kernels(model, m_tokens=m_tokens, batch=batch,
                                 dtype=dtype, prefix=prefix,
                                 tp_shards=tp_shards, ep_shards=ep_shards)
    return [
        *pre,
        *attention_step_kernels(model, layer, m_tokens=m_tokens,
                                kv_len=kv_len, batch=batch, dtype=dtype,
                                plan=plan, t=t, prefix=prefix,
                                tp_shards=tp_shards),
        *post,
    ]


def _check_tp_shards(model: ModelConfig, tp_shards: int) -> None:
    """Validate that ``model`` shards across ``tp_shards`` GPUs."""
    require_positive("tp_shards", tp_shards)
    if model.num_heads % tp_shards != 0:
        raise ConfigError(
            f"{model.name}: {model.num_heads} heads do not shard "
            f"across {tp_shards} GPUs"
        )
    if model.d_ff % tp_shards != 0:
        raise ConfigError(
            f"{model.name}: d_ff={model.d_ff} does not shard across "
            f"{tp_shards} GPUs"
        )


def mlp_step_kernels(
    model: ModelConfig,
    *,
    m_tokens: int,
    batch: int = 1,
    dtype: DType = DType.FP16,
    prefix: str = "dec",
    tp_shards: int = 1,
    ep_shards: int = 1,
) -> tuple[list, list]:
    """The non-attention kernels of one layer step, as
    ``(before_attention, after_attention)`` lists.

    These are independent of the KV length and of the attention plan —
    in a continuous-batching engine they run once over the step's
    *combined* token batch, which is why the serving cost model prices
    them separately from the per-request attention kernels.

    With ``tp_shards > 1`` the kernels carry one GPU's share of a
    Megatron tensor-parallel layer: Q/K/V and FC1 are column-parallel
    (full ``d_model`` in, ``1/n`` slice out), out-proj and FC2 are
    row-parallel, LayerNorm/residual replicate, and the KV-cache
    append writes only the shard's heads.  The two per-layer
    hidden-state all-reduces are *not* included — the caller charges
    them through :mod:`repro.gpu.interconnect`.

    Mixture-of-experts models (:class:`~repro.models.moe.MoEConfig`
    with routing) replace the dense FC1/GeLU/FC2 with the router gate,
    dispatch, grouped expert GEMMs, and combine of
    :func:`~repro.models.moe.moe_ffn_kernels`; ``ep_shards`` selects
    one expert-parallel GPU's share (the EP all-to-alls are charged by
    the caller, like the TP all-reduces).  The degenerate
    ``n_experts=1, top_k=1`` config emits exactly the dense list.
    """
    from repro.models.moe import check_ep_shards, moe_ffn_kernels

    _check_tp_shards(model, tp_shards)
    check_ep_shards(model, ep_shards)
    d, dff = model.d_model, model.d_ff
    ds, dffs = d // tp_shards, dff // tp_shards
    m = m_tokens

    def fc(n, k, name, category):
        return MatMulKernel(batch=batch, m=m, n=n, k=k, dtype=dtype,
                            tile_m=min(128, max(1, m)), tile_n=128,
                            tile_k=64, b_shared=True, name=name,
                            category=category)

    if getattr(model, "is_moe", False):
        ffn = moe_ffn_kernels(model, m_tokens=m, batch=batch, dtype=dtype,
                              prefix=prefix, tp_shards=tp_shards,
                              ep_shards=ep_shards)
    else:
        ffn = [
            fc(dffs, d, f"{prefix}_ff1", CATEGORY.FEEDFORWARD),
            AddBiasGeluKernel(batch * m * dffs, dtype=dtype),
            fc(d, dffs, f"{prefix}_ff2", CATEGORY.FEEDFORWARD),
        ]
    pre = [
        fc(ds, d, f"{prefix}_q_proj", CATEGORY.FC),
        fc(ds, d, f"{prefix}_k_proj", CATEGORY.FC),
        fc(ds, d, f"{prefix}_v_proj", CATEGORY.FC),
        # KV-cache append: write this step's K and V rows (this
        # shard's heads only).
        _CacheAppendKernel(batch * 2 * m * ds, dtype),
    ]
    post = [
        fc(d, ds, f"{prefix}_out_proj", CATEGORY.FC),
        ResidualAddKernel(batch * m * d, dtype=dtype),
        LayerNormKernel(batch * m, d, dtype=dtype),
        *ffn,
        ResidualAddKernel(batch * m * d, dtype=dtype),
        LayerNormKernel(batch * m, d, dtype=dtype),
    ]
    return pre, post


@dataclass(frozen=True)
class GenerationResult:
    """Outcome of one simulated prompt + generation run."""

    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    prompt_len: int
    generated_tokens: int
    batch: int
    prefill: InferenceResult
    decode_profile: Profile

    @property
    def prefill_time(self) -> float:
        """Prompt-processing latency in seconds."""
        return self.prefill.total_time

    @property
    def decode_time(self) -> float:
        """Total decode latency in seconds."""
        return self.decode_profile.total_time()

    @property
    def total_time(self) -> float:
        """End-to-end latency in seconds."""
        return self.prefill_time + self.decode_time

    @property
    def time_per_token(self) -> float:
        """Mean decode latency per generated token."""
        return self.decode_time / self.generated_tokens

    @property
    def tokens_per_second(self) -> float:
        """Decode throughput (per batch lane)."""
        return 1.0 / self.time_per_token

    @property
    def kv_cache_bytes(self) -> int:
        """KV cache size at the end of generation."""
        length = self.prompt_len + self.generated_tokens
        return kv_cache_bytes_for(self.model, length, batch=self.batch)

    @property
    def kv_cache_fraction(self) -> float:
        """KV cache size as a fraction of the device memory."""
        return self.kv_cache_bytes / self.gpu.hbm_bytes

    def to_dict(self) -> "dict[str, object]":
        """Versioned JSON-ready document (``repro.result/v1``)."""
        from repro.common.results import result_dict

        return result_dict(
            "generation",
            model=self.model.name,
            gpu=self.gpu.name,
            plan=self.plan.value,
            prompt_len=self.prompt_len,
            generated_tokens=self.generated_tokens,
            batch=self.batch,
            prefill_time_s=self.prefill_time,
            decode_time_s=self.decode_time,
            total_time_s=self.total_time,
            time_per_token_s=self.time_per_token,
            tokens_per_second=self.tokens_per_second,
            kv_cache_bytes=self.kv_cache_bytes,
            kv_cache_fraction=self.kv_cache_fraction,
        )


class GenerationSession:
    """Simulate prompt prefill followed by token-by-token decode.

    >>> session = GenerationSession("gpt-neo-1.3b", prompt_len=2048,
    ...                             generated_tokens=32)
    >>> result = session.simulate()
    >>> result.decode_time > 0
    True
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        *,
        gpu: "GPUSpec | str" = "A100",
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        prompt_len: int = 2048,
        generated_tokens: int = 64,
        batch: int = 1,
        dtype: DType = DType.FP16,
        t: int = 64,
        prefill_chunk: int = 0,
    ) -> None:
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        self.plan = AttentionPlan.from_name(plan)
        require_positive("prompt_len", prompt_len)
        require_positive("generated_tokens", generated_tokens)
        require_positive("batch", batch)
        if not any(spec.is_causal for spec in self.model.attention):
            raise ConfigError(
                f"{self.model.name} is not an autoregressive model; "
                f"generation needs causal attention"
            )
        self.prompt_len = prompt_len
        self.generated_tokens = generated_tokens
        self.batch = batch
        self.dtype = dtype
        self.t = t
        if prefill_chunk and prompt_len % prefill_chunk != 0:
            raise ConfigError(
                f"prompt_len {prompt_len} not divisible by prefill_chunk "
                f"{prefill_chunk}"
            )
        self.prefill_chunk = prefill_chunk
        resident = (weight_bytes(self.model, dtype)
                    + kv_cache_bytes_for(self.model,
                                         prompt_len + generated_tokens,
                                         batch=batch, dtype=dtype))
        if resident > self.gpu.hbm_bytes:
            raise ConfigError(
                f"weights + KV cache for prompt_len={prompt_len} plus "
                f"{generated_tokens} generated tokens at batch={batch} "
                f"need {resident / 1e9:.2f} GB, exceeding the "
                f"{self.gpu.name}'s {self.gpu.hbm_bytes / 1e9:.2f} GB "
                f"device memory"
            )

    # -- decode-step kernels ------------------------------------------------

    def _layer_kernels(self, layer: int, m_tokens: int, kv_len: int,
                       prefix: str):
        """Kernel launches of one layer step (see
        :func:`layer_step_kernels`); chunked prefill honours the
        session's attention plan."""
        return layer_step_kernels(
            self.model, layer, m_tokens=m_tokens, kv_len=kv_len,
            batch=self.batch, dtype=self.dtype, plan=self.plan, t=self.t,
            prefix=prefix,
        )

    def _decode_layer_kernels(self, layer: int, kv_len: int):
        """Kernel launches of one layer for one decode step."""
        return self._layer_kernels(layer, 1, kv_len, "dec")

    # -- simulation ------------------------------------------------------------

    def _chunked_prefill(self) -> InferenceResult:
        """Prefill the prompt in chunks of ``prefill_chunk`` tokens.

        Each chunk's queries attend to the whole cache so far — a
        rectangular ``C x kv`` attention — which bounds the peak
        attention-matrix memory to ``C x L`` instead of ``L x L`` at a
        modest latency cost (more, smaller kernel launches).
        """
        device = Device(self.gpu)
        chunk = self.prefill_chunk
        for start in range(0, self.prompt_len, chunk):
            kv_len = start + chunk
            for layer in range(self.model.num_layers):
                for kernel in self._layer_kernels(layer, chunk, kv_len,
                                                  "prefill"):
                    kernel.simulate(device)
        return InferenceResult(
            model=self.model, gpu=self.gpu, plan=self.plan,
            seq_len=self.prompt_len, batch=self.batch,
            profile=device.take_profile(),
        )

    def simulate(self) -> GenerationResult:
        """Cost-only simulation of prefill plus every decode step."""
        if self.prefill_chunk:
            prefill = self._chunked_prefill()
        else:
            prefill = InferenceSession(
                self.model, gpu=self.gpu, plan=self.plan,
                seq_len=self.prompt_len, batch=self.batch,
                dtype=self.dtype, t=self.t,
            ).simulate()

        device = Device(self.gpu)
        for step in range(self.generated_tokens):
            kv_len = self.prompt_len + step + 1
            for layer in range(self.model.num_layers):
                for kernel in self._decode_layer_kernels(layer, kv_len):
                    kernel.simulate(device)
        return GenerationResult(
            model=self.model,
            gpu=self.gpu,
            plan=self.plan,
            prompt_len=self.prompt_len,
            generated_tokens=self.generated_tokens,
            batch=self.batch,
            prefill=prefill,
            decode_profile=device.take_profile(),
        )


class _CacheAppendKernel(ResidualAddKernel):
    """Appending this step's K/V rows to the cache: a small write."""

    def __init__(self, elements: int, dtype: DType) -> None:
        super().__init__(elements, dtype=dtype)
        self.name = "kv_cache_append"
        self.reads_per_element = 1.0
        self.writes_per_element = 1.0
