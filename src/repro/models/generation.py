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

A step's attention kernels (decode at m = 1, or an m-row prefill
chunk) come from the same dense role -> kernel table as a whole
:class:`~repro.models.attention.SDABlock`, at serving-step tiles; the
KV cache contributes an append write and a full read per layer per
step.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.common.validation import require_positive
from repro.core.autotune import PAPER_CANDIDATES
from repro.core.plan import AttentionPlan
from repro.core.recompose import (
    SOFTMAX_ROLES,
    build_kernels,
    missing_kernel,
    plan_graph,
)
from repro.gpu.device import Device
from repro.gpu.profiler import Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.base import CATEGORY, ceil_div
from repro.kernels.elementwise import AddBiasGeluKernel, LayerNormKernel, \
    ResidualAddKernel
from repro.kernels.matmul import MatMulKernel
from repro.models.attention import STEP_TILES, dense_attention_table
from repro.models.config import (
    AttentionKind,
    AttentionSpec,
    ModelConfig,
    _check_tp_shards,
    get_model,
)
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


def step_shape_kind(spec: AttentionSpec, m_tokens: int) -> str:
    """``windowed`` on a local-causal layer, else ``prefill`` for
    ``m_tokens > 1`` query rows and ``decode`` for one."""
    if spec.kind is AttentionKind.LOCAL_CAUSAL:
        return "windowed"
    return "prefill" if m_tokens > 1 else "decode"


#: Serving shape kind -> plan -> the role graph a step runs.  Decode
#: rows and local-causal windows are too small for recomposition to
#: matter, so they run the baseline graph under every plan.
STEP_GRAPHS = {
    "prefill": plan_graph,
    "decode": lambda plan: plan_graph(AttentionPlan.BASELINE),
    "windowed": lambda plan: plan_graph(AttentionPlan.BASELINE),
}


def attended_length(spec: AttentionSpec, graph, *, m_tokens: int,
                    kv_len: int, t: int) -> int:
    """The keys an ``m_tokens``-row step over ``kv_len`` cached keys
    runs its attention kernels over, under role graph ``graph``.

    A local-causal row attends at most ``window + m_tokens - 1`` keys,
    and a decomposed row (every such graph keeps a standalone IR)
    splits into whole ``t``-sized sub-vectors, its ragged tail padded.
    Two steps of one layer and width with equal attended lengths launch
    identical kernels, so this is the length a step's price is keyed
    by; it is its own fixed point.
    """
    if spec.kind is AttentionKind.LOCAL_CAUSAL:
        kv_len = min(kv_len, spec.window + m_tokens - 1)
    if "ir" in graph.roles:
        kv_len = ceil_div(kv_len, t) * t
    return kv_len


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

    The step's shape kind (:func:`step_shape_kind`) picks the role
    graph it runs from :data:`STEP_GRAPHS`, and the kernels come from
    the one dense table, :func:`~repro.models.attention.dense_attention_table`,
    at serving-step tiles and with no numeric epilogue.  A ``prefill``
    chunk runs the plan's own graph: the decomposition plans replace
    the monolithic softmax with LS/IR/GS (fused per the plan).  Every
    kind runs over the row's :func:`attended_length`.  A prefill step
    builds only row-softmax plans without a whole-block kernel; the
    others (``online``, ``turbo``, ``fused-mha``,
    ``flash``) raise :class:`~repro.common.errors.PlanError` naming the
    role it does not build.  ``decode`` and ``windowed`` steps run the
    baseline graph under every plan.
    """
    plan = AttentionPlan.from_name(plan)
    _check_tp_shards(model, tp_shards)
    heads, d_head = model.num_heads // tp_shards, model.d_head
    spec = model.layer_attention(layer)
    kind = step_shape_kind(spec, m_tokens)
    record = plan.record
    if kind == "prefill" and (record.softmax != "row"
                              or record.block is not None):
        raise missing_kernel(plan,
                             record.block or SOFTMAX_ROLES[record.softmax],
                             "prefill serving steps")
    graph = STEP_GRAPHS[kind](plan)
    table = dense_attention_table(
        batch_heads=batch * heads, m=m_tokens,
        kv_len=attended_length(spec, graph, m_tokens=m_tokens,
                               kv_len=kv_len, t=t),
        d_head=d_head, t=t, dtype=dtype, tiles=STEP_TILES, prefix=prefix)
    return build_kernels(plan, table, f"{kind} serving steps", graph)


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
        self.model = get_model(model)
        self.gpu = get_gpu(gpu)
        self.plan = AttentionPlan.from_name(plan)
        require_positive("prompt_len", prompt_len)
        require_positive("generated_tokens", generated_tokens)
        require_positive("batch", batch)
        require_positive("t", t)
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
        if prefill_chunk:
            # Chunks are prefill serving steps, priced over the serving
            # plan set (the paper's plans), as the serving simulators do.
            if self.plan not in PAPER_CANDIDATES:
                supported = ", ".join(p.value for p in PAPER_CANDIDATES)
                raise ConfigError(
                    f"chunked prefill supports plans {supported}; got "
                    f"{self.plan.value!r} (use prefill_chunk=0)"
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
                for kernel in layer_step_kernels(
                        self.model, layer, m_tokens=chunk, kv_len=kv_len,
                        batch=self.batch, dtype=self.dtype, plan=self.plan,
                        t=self.t, prefix="prefill"):
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
                for kernel in layer_step_kernels(
                        self.model, layer, m_tokens=1, kv_len=kv_len,
                        batch=self.batch, dtype=self.dtype, plan=self.plan,
                        t=self.t):
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
