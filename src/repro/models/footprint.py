"""Device-memory footprint model.

Section 2.2 motivates sparse attention with the *memory footprint* of
the attention matrix — O(L^2) per head for dense attention versus
O(L) for block-sparse — and Section 2.3 notes a single BERT-large
batch at L = 4096 carries a 512 MB attention matrix.  This module
computes the peak device-memory footprint of an inference
configuration: weights, resident activations, the attention matrix (or
its block-sparse storage), and the plan-dependent softmax
intermediates.  The attention term is the most attention-matrix-sized
buffers live at once in the plan's graph
(:func:`~repro.core.recompose.plan_graph`):

- ``BASELINE`` holds the raw scores ``X`` and the softmax output ``Y``
  (ping-pong: peak is two attention-sized buffers);
- ``DECOMPOSED`` (SD) peaks while GS reads ``X'`` and writes ``Y``
  alongside the statistics — same two matrices plus the 1/T extras;
- ``RECOMPOSED`` (SDF) materialises only ``X'`` plus the 1/T-sized
  ``m'``/``d'``/``r'`` — *halving* peak attention-matrix memory, a
  side benefit of the fusion;
- whole-block plans (fused MHA, FlashAttention) never write the
  matrix to DRAM at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.core.plan import AttentionPlan
from repro.core.recompose import plan_graph
from repro.kernels.decomposed import INTERMEDIATE_BYTES
from repro.models.config import ModelConfig


@dataclass(frozen=True)
class MemoryFootprint:
    """Peak device-memory footprint of one inference configuration."""

    weights: int
    activations: int
    attention: int
    intermediates: int

    @property
    def total(self) -> int:
        """Total bytes resident at the peak."""
        return (self.weights + self.activations + self.attention
                + self.intermediates)


def weight_bytes(config: ModelConfig, dtype: DType = DType.FP16) -> int:
    """Parameter bytes of the model (per-layer matrices + biases).

    Mixture-of-experts configs carry ``n_experts`` copies of the FFN
    matrices plus the router gate per layer; the degenerate one-expert
    case is byte-identical to the dense formula.
    """
    d, dff = config.d_model, config.d_ff
    attention = 4 * d * d + 4 * d
    ffn = 2 * d * dff + dff + d
    n_experts = getattr(config, "n_experts", 1)
    if n_experts > 1:
        per_layer = attention + n_experts * ffn + d * n_experts
    else:
        per_layer = attention + ffn
    return config.num_layers * per_layer * dtype.nbytes


def _attention_matrix_bytes(config: ModelConfig, seq_len: int, batch: int,
                            dtype: DType, layer: int) -> int:
    """Bytes of one layer's full attention matrix (or block storage)."""
    spec = config.layer_attention(layer)
    layout = spec.layout(seq_len)
    heads = config.num_heads
    if layout is None:
        return batch * heads * seq_len * seq_len * dtype.nbytes
    return batch * heads * layout.nnz_elements() * dtype.nbytes


def inference_footprint(
    config: ModelConfig,
    *,
    seq_len: int,
    batch: int = 1,
    plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
    dtype: DType = DType.FP16,
    t: int = 64,
) -> MemoryFootprint:
    """Peak footprint of one inference (layers execute sequentially, so
    the peak is the heaviest single layer plus persistent state)."""
    plan = AttentionPlan.from_name(plan)
    heads = config.num_heads
    graph = plan_graph(plan)
    live_matrices = graph.peak_live(graph.matrix_buffers())

    # Persistent: weights + double-buffered hidden states + Q/K/V.
    activations = 5 * batch * seq_len * config.d_model * dtype.nbytes

    worst_attention = 0
    worst_intermediates = 0
    for layer in range(config.num_layers):
        matrix = _attention_matrix_bytes(config, seq_len, batch, dtype, layer)
        worst_attention = max(worst_attention, live_matrices * matrix)
        if not plan.record.decompose:
            continue
        layout = config.layer_attention(layer).layout(seq_len)
        if layout is None:
            subvectors = batch * heads * seq_len * (seq_len // t)
        else:  # per-block sub-vectors: one per block row line
            subvectors = batch * heads * layout.nnz_blocks * layout.block_size
        stats = 3 * subvectors * INTERMEDIATE_BYTES
        worst_intermediates = max(worst_intermediates, stats)

    return MemoryFootprint(
        weights=weight_bytes(config, dtype),
        activations=activations,
        attention=worst_attention,
        intermediates=worst_intermediates,
    )
