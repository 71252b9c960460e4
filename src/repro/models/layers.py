"""Transformer building blocks: MHA block, FF block, full layer.

Kernel categories follow the paper's breakdown (Fig. 2 / Fig. 8):
the four MHA projections are ``fc``; the SDA MatMuls are ``matmul``;
softmax kernels are ``softmax``; the FF block is ``feedforward``;
LayerNorm and residuals are ``other``.

``tp_shards = n`` builds one GPU's share of a Megatron tensor-parallel
layer: Q/K/V and FC1 are column-parallel (``d -> d/n``), out-proj and
FC2 row-parallel (``d/n -> d``), attention runs over ``H/n`` heads, and
LayerNorm/residual replicate.  A shard is cost-only (no ``forward``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.core.plan import AttentionPlan
from repro.gpu.device import Device
from repro.kernels.base import CATEGORY, Kernel
from repro.kernels.elementwise import (
    AddBiasGeluKernel,
    LayerNormKernel,
    ResidualAddKernel,
)
from repro.kernels.matmul import MatMulKernel
from repro.models.attention import SDABlock
from repro.models.config import ModelConfig, _check_tp_shards
from repro.models.weights import LayerWeights


def _check_unsharded(tp_shards: int) -> None:
    if tp_shards > 1:
        raise ConfigError(f"a {tp_shards}-way tensor-parallel shard is "
                          f"cost-only; numeric forward needs tp_shards=1")


class _Block:
    """A block whose cost is its ``kernels`` launched in order."""

    def simulate(self, device: Device) -> None:
        """Launch the block's kernels without numerics."""
        for kernel in self.kernels:
            kernel.simulate(device)


def _fc_kernel(batch: int, seq_len: int, n: int, k: int, dtype: DType,
               name: str, category: str) -> MatMulKernel:
    return MatMulKernel(
        batch=batch, m=seq_len, n=n, k=k, dtype=dtype,
        b_shared=True, name=name, category=category,
    )


class MHABlock(_Block):
    """Multi-head self-attention: Q/K/V projections, SDA, output FC."""

    def __init__(
        self,
        config: ModelConfig,
        layer: int,
        *,
        batch: int,
        seq_len: int,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
        tp_shards: int = 1,
    ) -> None:
        _check_tp_shards(config, tp_shards)
        self.config = config
        self.batch = batch
        self.seq_len = seq_len
        self.dtype = dtype
        self.tp_shards = tp_shards
        d, ds = config.d_model, config.d_model // tp_shards
        self.q_proj = _fc_kernel(batch, seq_len, ds, d, dtype, "q_proj", CATEGORY.FC)
        self.k_proj = _fc_kernel(batch, seq_len, ds, d, dtype, "k_proj", CATEGORY.FC)
        self.v_proj = _fc_kernel(batch, seq_len, ds, d, dtype, "v_proj", CATEGORY.FC)
        self.out_proj = _fc_kernel(batch, seq_len, d, ds, dtype, "out_proj",
                                   CATEGORY.FC)
        self.sda = SDABlock(
            batch=batch,
            num_heads=config.num_heads // tp_shards,
            seq_len=seq_len,
            d_head=config.d_head,
            spec=config.layer_attention(layer),
            plan=plan,
            dtype=dtype,
            t=t,
            layout_seed=layout_seed,
        )

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """All kernels of the block in launch order."""
        return (self.q_proj, self.k_proj, self.v_proj,
                *self.sda.kernels, self.out_proj)

    def _split_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch, L, D) -> (batch*heads, L, d_head)."""
        heads, d_head = self.config.num_heads, self.config.d_head
        x = x.reshape(self.batch, self.seq_len, heads, d_head)
        return x.transpose(0, 2, 1, 3).reshape(-1, self.seq_len, d_head)

    def _merge_heads(self, x: np.ndarray) -> np.ndarray:
        """(batch*heads, L, d_head) -> (batch, L, D)."""
        heads, d_head = self.config.num_heads, self.config.d_head
        x = x.reshape(self.batch, heads, self.seq_len, d_head)
        return x.transpose(0, 2, 1, 3).reshape(
            self.batch, self.seq_len, self.config.d_model
        )

    def forward(
        self,
        hidden: np.ndarray,
        weights: LayerWeights,
        device: Optional[Device] = None,
    ) -> np.ndarray:
        """Numeric MHA over ``(batch, L, D)`` hidden states."""
        _check_unsharded(self.tp_shards)
        q = self._split_heads(self.q_proj.run(device, hidden, weights.wq))
        k = self._split_heads(self.k_proj.run(device, hidden, weights.wk))
        v = self._split_heads(self.v_proj.run(device, hidden, weights.wv))
        context = self._merge_heads(self.sda.forward(q, k, v, device))
        return self.out_proj.run(device, context, weights.wo)


class FFBlock(_Block):
    """FeedForward block: FC -> bias+GeLU -> FC."""

    def __init__(
        self,
        config: ModelConfig,
        *,
        batch: int,
        seq_len: int,
        dtype: DType = DType.FP16,
        tp_shards: int = 1,
    ) -> None:
        _check_tp_shards(config, tp_shards)
        self.config = config
        self.tp_shards = tp_shards
        d, dffs = config.d_model, config.d_ff // tp_shards
        self.fc1 = _fc_kernel(batch, seq_len, dffs, d, dtype, "ff_fc1",
                              CATEGORY.FEEDFORWARD)
        self.act = AddBiasGeluKernel(batch * seq_len * dffs, dtype=dtype)
        self.fc2 = _fc_kernel(batch, seq_len, d, dffs, dtype, "ff_fc2",
                              CATEGORY.FEEDFORWARD)

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """All kernels of the block in launch order."""
        return (self.fc1, self.act, self.fc2)

    def forward(
        self,
        hidden: np.ndarray,
        weights: LayerWeights,
        device: Optional[Device] = None,
    ) -> np.ndarray:
        """Numeric FF over ``(batch, L, D)`` hidden states."""
        _check_unsharded(self.tp_shards)
        h = self.fc1.run(device, hidden, weights.w_ff1)
        h = self.act.run(device, h, weights.b_ff1)
        return self.fc2.run(device, h, weights.w_ff2)


class TransformerLayer(_Block):
    """One encoder/decoder layer: MHA + FF with residuals and LayerNorm
    (post-LN, as in BERT)."""

    def __init__(
        self,
        config: ModelConfig,
        layer: int,
        *,
        batch: int,
        seq_len: int,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
        tp_shards: int = 1,
    ) -> None:
        self.config = config
        self.mha = MHABlock(
            config, layer, batch=batch, seq_len=seq_len, plan=plan,
            dtype=dtype, t=t, layout_seed=layout_seed, tp_shards=tp_shards,
        )
        self.ff = FFBlock(config, batch=batch, seq_len=seq_len, dtype=dtype,
                          tp_shards=tp_shards)
        elements = batch * seq_len * config.d_model
        rows = batch * seq_len
        self.residual1 = ResidualAddKernel(elements, dtype=dtype)
        self.residual2 = ResidualAddKernel(elements, dtype=dtype)
        self.ln1 = LayerNormKernel(rows, config.d_model, dtype=dtype)
        self.ln2 = LayerNormKernel(rows, config.d_model, dtype=dtype)

    @property
    def kernels(self) -> tuple[Kernel, ...]:
        """All kernels of the layer in launch order."""
        return (
            *self.mha.kernels, self.residual1, self.ln1,
            *self.ff.kernels, self.residual2, self.ln2,
        )

    def forward(
        self,
        hidden: np.ndarray,
        weights: LayerWeights,
        device: Optional[Device] = None,
    ) -> np.ndarray:
        """Numeric layer over ``(batch, L, D)`` hidden states."""
        attn = self.mha.forward(hidden, weights, device)
        hidden = self.residual1.run(device, attn, hidden)
        hidden = self.ln1.run(device, hidden, weights.ln1_gamma, weights.ln1_beta)
        ff = self.ff.forward(hidden, weights, device)
        hidden = self.residual2.run(device, ff, hidden)
        return self.ln2.run(device, hidden, weights.ln2_gamma, weights.ln2_beta)
