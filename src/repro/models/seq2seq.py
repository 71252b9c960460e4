"""Sequence-to-sequence (encoder-decoder) transformer (Section 2.1).

The vanilla transformer [40] the paper's background section describes:
an encoder stack over the source sequence and a decoder stack whose
layers interleave causal self-attention, *cross-attention* over the
encoder memory (a rectangular ``L_tgt x L_src`` attention matrix), and
the FF block.  Softmax recomposition applies to both attention kinds —
the cross-attention softmax rows have length ``L_src``, so its LS/GS
decomposition works unchanged.

This module provides the configuration, the decoder layer (reusing the
library's kernels), and a :class:`Seq2SeqSession` runtime mirroring
:class:`~repro.models.runtime.InferenceSession`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.common.validation import require_divisible, require_positive
from repro.core.plan import AttentionPlan
from repro.gpu.device import Device
from repro.gpu.profiler import Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.base import CATEGORY, Kernel
from repro.kernels.elementwise import LayerNormKernel, ResidualAddKernel
from repro.models.attention import SDABlock
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig
from repro.models.layers import FFBlock, MHABlock, _Block, _fc_kernel
from repro.models.runtime import InferenceResult
from repro.models.weights import LayerWeights, make_layer_weights


@dataclass(frozen=True)
class Seq2SeqConfig:
    """Architecture of an encoder-decoder transformer."""

    name: str
    num_encoder_layers: int
    num_decoder_layers: int
    d_model: int
    num_heads: int
    d_ff: int

    def __post_init__(self) -> None:
        require_positive("num_encoder_layers", self.num_encoder_layers)
        require_positive("num_decoder_layers", self.num_decoder_layers)
        require_positive("d_model", self.d_model)
        require_divisible("d_model", self.d_model, self.num_heads)

    @property
    def d_head(self) -> int:
        """Per-head hidden size."""
        return self.d_model // self.num_heads

    def encoder_config(self) -> ModelConfig:
        """The encoder stack as an encoder-only :class:`ModelConfig`."""
        return ModelConfig(
            name=f"{self.name}-encoder",
            num_layers=self.num_encoder_layers,
            d_model=self.d_model,
            num_heads=self.num_heads,
            d_ff=self.d_ff,
            attention=(AttentionSpec(kind=AttentionKind.DENSE),),
        )

    def decoder_self_config(self) -> ModelConfig:
        """The decoder's self-attention geometry as a config."""
        return ModelConfig(
            name=f"{self.name}-decoder",
            num_layers=self.num_decoder_layers,
            d_model=self.d_model,
            num_heads=self.num_heads,
            d_ff=self.d_ff,
            attention=(AttentionSpec(kind=AttentionKind.DENSE_CAUSAL),),
        )


#: The original "base" transformer of Vaswani et al. [40].
VANILLA_TRANSFORMER_BASE = Seq2SeqConfig(
    name="Transformer-base",
    num_encoder_layers=6,
    num_decoder_layers=6,
    d_model=512,
    num_heads=8,
    d_ff=2048,
)

#: The "big" variant of [40].
VANILLA_TRANSFORMER_BIG = Seq2SeqConfig(
    name="Transformer-big",
    num_encoder_layers=6,
    num_decoder_layers=6,
    d_model=1024,
    num_heads=16,
    d_ff=4096,
)


@dataclass(frozen=True)
class DecoderLayerWeights:
    """Self-attention + FF weights plus the cross-attention set."""

    base: LayerWeights
    cross_wq: np.ndarray
    cross_wk: np.ndarray
    cross_wv: np.ndarray
    cross_wo: np.ndarray
    ln3_gamma: np.ndarray
    ln3_beta: np.ndarray


def make_decoder_weights(config: Seq2SeqConfig, layer: int,
                         *, seed: int = 0) -> DecoderLayerWeights:
    """Deterministic decoder-layer weights."""
    base = make_layer_weights(config.decoder_self_config(), layer, seed=seed)
    rng = np.random.default_rng((seed, layer, 0xC055))
    d = config.d_model

    def w():
        return (rng.standard_normal((d, d)) * 0.02).astype(np.float32)

    return DecoderLayerWeights(
        base=base,
        cross_wq=w(), cross_wk=w(), cross_wv=w(), cross_wo=w(),
        ln3_gamma=np.ones(d, dtype=np.float32),
        ln3_beta=np.zeros(d, dtype=np.float32),
    )


class CrossMHABlock(_Block):
    """Cross-attention: queries from the decoder, keys/values from the
    encoder memory (the second MHA input case of Section 2.1)."""

    def __init__(
        self,
        config: Seq2SeqConfig,
        *,
        batch: int,
        tgt_len: int,
        src_len: int,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
    ) -> None:
        self.config = config
        self.batch = batch
        self.tgt_len = tgt_len
        self.src_len = src_len
        d = config.d_model
        self.q_proj = _fc_kernel(batch, tgt_len, d, d, dtype,
                                 "cross_q_proj", CATEGORY.FC)
        self.k_proj = _fc_kernel(batch, src_len, d, d, dtype,
                                 "cross_k_proj", CATEGORY.FC)
        self.v_proj = _fc_kernel(batch, src_len, d, d, dtype,
                                 "cross_v_proj", CATEGORY.FC)
        self.out_proj = _fc_kernel(batch, tgt_len, d, d, dtype,
                                   "cross_out_proj", CATEGORY.FC)
        self.sda = SDABlock(
            batch=batch,
            num_heads=config.num_heads,
            seq_len=tgt_len,
            kv_seq_len=src_len,
            d_head=config.d_head,
            spec=AttentionSpec(kind=AttentionKind.DENSE),
            plan=plan,
            dtype=dtype,
            t=t,
        )

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """All kernels of the block in launch order."""
        return (self.q_proj, self.k_proj, self.v_proj,
                *self.sda.kernels, self.out_proj)

    def _split(self, x: np.ndarray, length: int) -> np.ndarray:
        heads, d_head = self.config.num_heads, self.config.d_head
        x = x.reshape(self.batch, length, heads, d_head)
        return x.transpose(0, 2, 1, 3).reshape(-1, length, d_head)

    def forward(self, hidden, memory, weights: DecoderLayerWeights,
                device=None) -> np.ndarray:
        """Numeric cross-attention: decoder hidden + encoder memory."""
        q = self._split(self.q_proj.run(device, hidden, weights.cross_wq),
                        self.tgt_len)
        k = self._split(self.k_proj.run(device, memory, weights.cross_wk),
                        self.src_len)
        v = self._split(self.v_proj.run(device, memory, weights.cross_wv),
                        self.src_len)
        context = self.sda.forward(q, k, v, device)
        heads, d_head = self.config.num_heads, self.config.d_head
        context = context.reshape(self.batch, heads, self.tgt_len, d_head) \
            .transpose(0, 2, 1, 3) \
            .reshape(self.batch, self.tgt_len, self.config.d_model)
        return self.out_proj.run(device, context, weights.cross_wo)


class DecoderLayer(_Block):
    """Causal self-attention + cross-attention + FF (post-LN)."""

    def __init__(
        self,
        config: Seq2SeqConfig,
        *,
        batch: int,
        tgt_len: int,
        src_len: int,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
    ) -> None:
        self.config = config
        self.self_attn = MHABlock(
            config.decoder_self_config(), 0, batch=batch, seq_len=tgt_len,
            plan=plan, dtype=dtype, t=t,
        )
        self.cross_attn = CrossMHABlock(
            config, batch=batch, tgt_len=tgt_len, src_len=src_len,
            plan=plan, dtype=dtype, t=t,
        )
        self.ff = FFBlock(config.decoder_self_config(), batch=batch,
                          seq_len=tgt_len, dtype=dtype)
        elements = batch * tgt_len * config.d_model
        rows = batch * tgt_len
        self.residuals = tuple(ResidualAddKernel(elements, dtype=dtype)
                               for _ in range(3))
        self.norms = tuple(LayerNormKernel(rows, config.d_model, dtype=dtype)
                           for _ in range(3))

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """All kernels of the layer in launch order."""
        return (
            *self.self_attn.kernels, self.residuals[0], self.norms[0],
            *self.cross_attn.kernels, self.residuals[1], self.norms[1],
            *self.ff.kernels, self.residuals[2], self.norms[2],
        )

    def forward(self, hidden, memory, weights: DecoderLayerWeights,
                device=None) -> np.ndarray:
        """Numeric decoder layer."""
        attn = self.self_attn.forward(hidden, weights.base, device)
        hidden = self.residuals[0].run(device, attn, hidden)
        hidden = self.norms[0].run(device, hidden, weights.base.ln1_gamma,
                                   weights.base.ln1_beta)
        cross = self.cross_attn.forward(hidden, memory, weights, device)
        hidden = self.residuals[1].run(device, cross, hidden)
        hidden = self.norms[1].run(device, hidden, weights.ln3_gamma,
                                   weights.ln3_beta)
        ff = self.ff.forward(hidden, weights.base, device)
        hidden = self.residuals[2].run(device, ff, hidden)
        return self.norms[2].run(device, hidden, weights.base.ln2_gamma,
                                 weights.base.ln2_beta)


class Seq2SeqSession:
    """Encoder-decoder inference: source encoding + target decoding.

    >>> session = Seq2SeqSession(VANILLA_TRANSFORMER_BASE,
    ...                          src_len=4096, tgt_len=4096)
    >>> session.simulate().total_time > 0
    True
    """

    def __init__(
        self,
        config: Seq2SeqConfig = VANILLA_TRANSFORMER_BASE,
        *,
        gpu: "GPUSpec | str" = "A100",
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        src_len: int = 4096,
        tgt_len: int = 4096,
        batch: int = 1,
        dtype: DType = DType.FP16,
        t: int = 64,
        weight_seed: int = 0,
    ) -> None:
        require_positive("src_len", src_len)
        require_positive("tgt_len", tgt_len)
        require_positive("batch", batch)
        self.config = config
        self.gpu = get_gpu(gpu)
        self.plan = AttentionPlan.from_name(plan)
        self.src_len = src_len
        self.tgt_len = tgt_len
        self.batch = batch
        self.dtype = dtype
        self.t = t
        self.weight_seed = weight_seed

    def _encoder_layer(self):
        from repro.models.layers import TransformerLayer

        return TransformerLayer(
            self.config.encoder_config(), 0, batch=self.batch,
            seq_len=self.src_len, plan=self.plan, dtype=self.dtype, t=self.t,
        )

    def _decoder_layer(self):
        return DecoderLayer(
            self.config, batch=self.batch, tgt_len=self.tgt_len,
            src_len=self.src_len, plan=self.plan, dtype=self.dtype, t=self.t,
        )

    def simulate(self) -> InferenceResult:
        """Cost-only encoder + decoder inference."""
        device = Device(self.gpu)
        profile = Profile()
        self._encoder_layer().simulate(device)
        profile.extend(
            device.take_profile().scaled(self.config.num_encoder_layers)
        )
        self._decoder_layer().simulate(device)
        profile.extend(
            device.take_profile().scaled(self.config.num_decoder_layers)
        )
        return InferenceResult(
            model=self.config.encoder_config(),
            gpu=self.gpu,
            plan=self.plan,
            seq_len=max(self.src_len, self.tgt_len),
            batch=self.batch,
            profile=profile,
        )

    def forward(self, src_hidden: np.ndarray,
                tgt_hidden: np.ndarray) -> np.ndarray:
        """Numeric encoder-decoder forward (small scales)."""
        expected_src = (self.batch, self.src_len, self.config.d_model)
        expected_tgt = (self.batch, self.tgt_len, self.config.d_model)
        if tuple(src_hidden.shape) != expected_src:
            raise ConfigError(
                f"src hidden shape {src_hidden.shape}, expected {expected_src}"
            )
        if tuple(tgt_hidden.shape) != expected_tgt:
            raise ConfigError(
                f"tgt hidden shape {tgt_hidden.shape}, expected {expected_tgt}"
            )
        memory = src_hidden
        encoder_config = self.config.encoder_config()
        for layer in range(self.config.num_encoder_layers):
            weights = make_layer_weights(encoder_config, layer,
                                         seed=self.weight_seed)
            memory = self._encoder_layer().forward(memory, weights)
        hidden = tgt_hidden
        for layer in range(self.config.num_decoder_layers):
            weights = make_decoder_weights(self.config, layer,
                                           seed=self.weight_seed)
            hidden = self._decoder_layer().forward(hidden, memory, weights)
        return hidden
