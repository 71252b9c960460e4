"""Model configurations (Section 4).

The paper evaluates the *large* variant of each model with parameters
"according to the pre-trained model from HuggingFace":

===============  ======  =====  =====  =====  ==============================
model            layers  d_m    heads  d_ff   attention
===============  ======  =====  =====  =====  ==============================
BERT-large       24      1024   16     4096   dense, bidirectional
GPT-Neo-1.3B     24      2048   16     8192   alternating dense-causal /
                                              local-causal (window 256)
BigBird-large    24      1024   16     4096   block-sparse: window + random
                                              + global (block 64)
Longformer-large 24      1024   16     4096   block-sparse: sliding window
                                              512 + global tokens
===============  ======  =====  =====  =====  ==============================
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import ConfigError
from repro.common.validation import require_divisible, require_positive
from repro.sparse.layout import BlockSparseLayout
from repro.sparse.patterns import (
    bigbird_layout,
    gpt_neo_local_layout,
    longformer_layout,
)


class AttentionKind(enum.Enum):
    """Attention mechanism of one transformer layer."""

    DENSE = "dense"
    DENSE_CAUSAL = "dense_causal"
    BIGBIRD = "bigbird"
    LONGFORMER = "longformer"
    LOCAL_CAUSAL = "local_causal"


@dataclass(frozen=True)
class AttentionSpec:
    """Attention configuration of one layer.

    ``window`` is in tokens (Longformer / GPT-Neo local);
    ``window_blocks`` / ``random_blocks`` / ``global_blocks`` are in
    blocks (BigBird).
    """

    kind: AttentionKind
    block_size: int = 64
    window: int = 0
    window_blocks: int = 3
    random_blocks: int = 3
    global_blocks: int = 2

    @property
    def is_sparse(self) -> bool:
        """Whether the layer uses a block-sparse attention matrix."""
        return self.kind in (
            AttentionKind.BIGBIRD,
            AttentionKind.LONGFORMER,
            AttentionKind.LOCAL_CAUSAL,
        )

    @property
    def is_causal(self) -> bool:
        """Whether future positions are masked (decoder layers)."""
        return self.kind in (
            AttentionKind.DENSE_CAUSAL,
            AttentionKind.LOCAL_CAUSAL,
        )

    def layout(self, seq_len: int, *, seed: int = 0) -> Optional[BlockSparseLayout]:
        """The block-sparse layout for ``seq_len``, or None if dense."""
        if self.kind is AttentionKind.BIGBIRD:
            return bigbird_layout(
                seq_len,
                self.block_size,
                window_blocks=self.window_blocks,
                random_blocks=self.random_blocks,
                global_blocks=self.global_blocks,
                seed=seed,
            )
        if self.kind is AttentionKind.LONGFORMER:
            return longformer_layout(
                seq_len,
                self.block_size,
                window=self.window,
                global_blocks=self.global_blocks,
            )
        if self.kind is AttentionKind.LOCAL_CAUSAL:
            return gpt_neo_local_layout(
                seq_len, self.block_size, window=self.window
            )
        return None


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of one transformer model.

    ``attention`` is a cycle of per-layer specs: BERT has one entry
    (all layers identical); GPT-Neo has two (alternating dense/local).
    """

    name: str
    num_layers: int
    d_model: int
    num_heads: int
    d_ff: int
    attention: tuple[AttentionSpec, ...]

    def __post_init__(self) -> None:
        require_positive("num_layers", self.num_layers)
        require_positive("d_model", self.d_model)
        require_positive("num_heads", self.num_heads)
        require_positive("d_ff", self.d_ff)
        require_divisible("d_model", self.d_model, self.num_heads)
        if not self.attention:
            raise ConfigError(f"{self.name}: attention cycle is empty")

    @property
    def d_head(self) -> int:
        """Per-head hidden size ``D_head = D_m / H_num``."""
        return self.d_model // self.num_heads

    @property
    def is_sparse(self) -> bool:
        """Whether any layer uses block-sparse attention."""
        return any(spec.is_sparse for spec in self.attention)

    def layer_attention(self, layer: int) -> AttentionSpec:
        """Attention spec of layer ``layer`` (cycled)."""
        if not 0 <= layer < self.num_layers:
            raise ConfigError(
                f"{self.name}: layer {layer} out of range "
                f"[0, {self.num_layers})"
            )
        return self.attention[layer % len(self.attention)]

    def unique_layer_specs(self) -> list[tuple[AttentionSpec, int]]:
        """Distinct layer specs with their multiplicities.

        The simulator times each distinct layer once and replicates the
        profile, since identical layers produce identical kernels.
        """
        counts: dict[AttentionSpec, int] = {}
        for layer in range(self.num_layers):
            spec = self.layer_attention(layer)
            counts[spec] = counts.get(spec, 0) + 1
        return list(counts.items())

    def layer_groups(self) -> list[tuple[int, AttentionSpec, int]]:
        """``(layer, spec, count)`` per distinct layer spec: ``layer`` is
        one index with that spec, standing for all ``count`` of them."""
        layer_of_spec = {self.layer_attention(layer): layer
                         for layer in range(self.num_layers)}
        return [(layer_of_spec[spec], spec, count)
                for spec, count in self.unique_layer_specs()]


BERT_LARGE = ModelConfig(
    name="BERT-large",
    num_layers=24,
    d_model=1024,
    num_heads=16,
    d_ff=4096,
    attention=(AttentionSpec(kind=AttentionKind.DENSE),),
)

GPT_NEO_1_3B = ModelConfig(
    name="GPT-Neo-1.3B",
    num_layers=24,
    d_model=2048,
    num_heads=16,
    d_ff=8192,
    attention=(
        AttentionSpec(kind=AttentionKind.DENSE_CAUSAL),
        AttentionSpec(kind=AttentionKind.LOCAL_CAUSAL, window=256),
    ),
)

BIGBIRD_LARGE = ModelConfig(
    name="BigBird-large",
    num_layers=24,
    d_model=1024,
    num_heads=16,
    d_ff=4096,
    attention=(
        AttentionSpec(
            kind=AttentionKind.BIGBIRD,
            block_size=64,
            window_blocks=3,
            random_blocks=3,
            global_blocks=2,
        ),
    ),
)

LONGFORMER_LARGE = ModelConfig(
    name="Longformer-large",
    num_layers=24,
    d_model=1024,
    num_heads=16,
    d_ff=4096,
    attention=(
        AttentionSpec(
            kind=AttentionKind.LONGFORMER,
            block_size=64,
            window=512,
            global_blocks=1,
        ),
    ),
)

_REGISTRY = {
    "bert": BERT_LARGE,
    "bert-large": BERT_LARGE,
    "gpt-neo": GPT_NEO_1_3B,
    "gpt-neo-1.3b": GPT_NEO_1_3B,
    "bigbird": BIGBIRD_LARGE,
    "bigbird-large": BIGBIRD_LARGE,
    "longformer": LONGFORMER_LARGE,
    "longformer-large": LONGFORMER_LARGE,
}


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


def get_model(name: "str | ModelConfig") -> ModelConfig:
    """Look up a model preset by (case-insensitive) name; a config is
    already resolved and comes back unchanged."""
    if isinstance(name, ModelConfig):
        return name
    if name.lower() not in _REGISTRY:
        # MoE presets register on import; pull them in lazily so the
        # lookup works regardless of which module loaded first.
        import repro.models.moe  # noqa: F401

    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        known = ", ".join(sorted({c.name for c in _REGISTRY.values()}))
        raise ConfigError(f"unknown model {name!r}; known models: {known}") from None


def preset_names() -> tuple[str, ...]:
    """Every registered model preset's lookup name, MoE presets
    included, in registry order."""
    import repro.models.moe  # noqa: F401  (registers the MoE presets)

    return tuple(dict.fromkeys(config.name.lower()
                               for config in _REGISTRY.values()))


def all_models() -> tuple[ModelConfig, ...]:
    """The four evaluated models, in the paper's order."""
    return (BERT_LARGE, GPT_NEO_1_3B, BIGBIRD_LARGE, LONGFORMER_LARGE)
