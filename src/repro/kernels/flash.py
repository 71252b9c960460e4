"""FlashAttention-style tiled attention (Dao et al., 2022).

Published the same year as the paper, FlashAttention is the natural
end point of the ideas softmax recomposition develops: where SDF
decomposes softmax so its sub-layers fuse into the two MatMuls (still
materialising the locally softmaxed matrix ``X'`` once), FlashAttention
keeps a *running* softmax — the online-normaliser recurrence of [21]
applied per K/V tile — and rescales a resident output accumulator, so
no attention-sized tensor ever exists:

    for each K/V tile j:
        S_j   = Q_i @ K_j^T            (in registers)
        m_new = max(m, rowmax(S_j))
        P_j   = exp(S_j - m_new)
        l     = l * exp(m - m_new) + rowsum(P_j)
        O     = O * exp(m - m_new) + P_j @ V_j
        m     = m_new
    O /= l

Shared memory holds only fixed-size tiles — independent of ``L`` — so
unlike the fully fused MHA kernel (Section 7) it works at any sequence
length.  The price is extra arithmetic: the exponentials run on the
CUDA/SFU pipes *inside* the GEMM mainloop, and the output accumulator
is rescaled once per K/V tile.

Included as a forward-looking comparison plan (``flash``); the
benchmark suite positions it against SDF.
"""

from __future__ import annotations

import numpy as np

from repro.common.dtypes import DType
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch, MLP_MATMUL, WorkloadShape
from repro.gpu.occupancy import TBResources
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel, ceil_div

#: Query rows per thread block (the Q tile height).
TILE_Q = 128
#: K/V rows per mainloop iteration (the K/V tile height).
TILE_KV = 128

#: CUDA-core FLOP-equivalents per attention-matrix element for the
#: in-mainloop softmax: SFU exponent (~4 issue slots at ~50% epilogue
#: efficiency => 8), running max/sum updates (~4).
_SOFTMAX_FLOPS = 12.0
#: Accumulator rescale: d_head multiply-adds per row per K/V tile,
#: i.e. d_head / TILE_KV per attention element.
_RESCALE_FLOPS_PER_ELEMENT = 64.0 / TILE_KV


def rescale_accumulate(acc, l, correction, p, v_tile):
    """One K/V tile's update of the output accumulator and the running
    row sum: both rescaled by ``correction``, plus the tile's
    ``p @ v_tile`` and row sums of ``p``."""
    l = l * correction + p.sum(axis=-1)
    acc = acc * correction[..., None] + np.matmul(p, v_tile,
                                                  dtype=np.float32)
    return acc, l


def normalise(acc, l):
    """The epilogue: every output row divided by its row sum."""
    return np.divide(acc, l[..., None], out=np.zeros_like(acc),
                     where=l[..., None] > 0)


def online_softmax_tile(m, l, acc, s, v_tile, accumulate=rescale_accumulate):
    """Fold one K/V tile (scores ``s``, values ``v_tile``) into the
    running row max ``m``, row sum ``l`` and accumulator ``acc``; fully
    ``-inf`` score rows are exact no-ops.  Returns ``(m, l, acc)``."""
    m_new = np.maximum(m, s.max(axis=-1))
    safe_m = np.where(np.isfinite(m_new), m_new, 0.0)
    p = np.where(np.isfinite(s), np.exp(s - safe_m[..., None]), 0.0)
    correction = np.where(np.isfinite(m), np.exp(m - safe_m), 0.0)
    acc, l = accumulate(acc, l, correction, p, v_tile)
    return m_new, l, acc


class FlashAttentionKernel(Kernel):
    """Single-kernel tiled attention with online softmax.

    Traffic: Q/K/V in, O out — nothing else.  Compute: both GEMMs on
    the tensor cores plus the per-element online-softmax work on the
    CUDA/SFU pipes.
    """

    category = CATEGORY.MATMUL
    #: The recurrence's per-tile update and epilogue: the two steps a
    #: variant recurrence (FLASH-D) replaces.
    _accumulate = staticmethod(rescale_accumulate)
    _finish = staticmethod(normalise)

    def __init__(
        self,
        batch_heads: int,
        seq_len: int,
        d_head: int,
        *,
        dtype: DType = DType.FP16,
        scale: float = 1.0,
        causal: bool = False,
        name: str = "flash_attention",
    ) -> None:
        require_positive("batch_heads", batch_heads)
        require_positive("seq_len", seq_len)
        require_positive("d_head", d_head)
        self.batch_heads = batch_heads
        self.seq_len = seq_len
        self.d_head = d_head
        self.dtype = dtype
        self.scale = scale
        self.causal = causal
        self.name = name

    def _score_elements(self) -> float:
        """Attention-matrix elements actually computed."""
        full = self.batch_heads * self.seq_len * self.seq_len
        # Causal kernels skip tiles entirely above the diagonal.
        return full / 2 if self.causal else float(full)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        d = self.d_head
        operand = self.batch_heads * self.seq_len * d * self.dtype.nbytes
        scores = self._score_elements()
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=TBResources(threads=256,
                           shared_mem=flash_shared_mem(d, self.dtype),
                           registers_per_thread=255),
            shape=WorkloadShape(
                grid=self.batch_heads * ceil_div(self.seq_len, TILE_Q)
            ),
            dram_read_bytes=3 * operand,
            dram_write_bytes=operand,
            tensor_flops=2 * 2.0 * scores * d,
            cuda_flops=(_SOFTMAX_FLOPS + _RESCALE_FLOPS_PER_ELEMENT) * scores,
            bytes_in_flight_per_warp=MLP_MATMUL,
        )

    def _check_qkv(self, q, k, v):
        return self._stored((self.batch_heads, self.seq_len, self.d_head),
                            Q=q, K=k, V=v)

    def compute(self, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
        """The tiled online-softmax recurrence, all Q tiles in lockstep.

        Q tiles are mutually independent, so the full-height tiles run
        as one extra batch axis; only the K/V mainloop (the true
        sequential dependence) remains a Python loop.  A ragged tail
        tile runs the same math at its own height.  Bit-identical to
        the tile-by-tile loop (:meth:`compute_reference`), enforced by
        the golden tests.
        """
        q, k, v = self._check_qkv(q, k, v)
        bh, length, d = self.batch_heads, self.seq_len, self.d_head
        out = np.zeros((bh, length, d), dtype=np.float32)

        full = (length // TILE_Q) * TILE_Q
        if full:
            tiles = q[:, :full].reshape(bh, -1, TILE_Q, d)
            starts = np.arange(0, full, TILE_Q)
            out[:, :full] = self._forward_tiles(
                tiles, starts, k, v
            ).reshape(bh, full, d)
        if full < length:
            out[:, full:] = self._forward_tiles(
                q[:, full:, :][:, None], np.array([full]), k, v
            )[:, 0]
        return self.dtype.quantize(out)

    def _forward_tiles(
        self, q_tiles: np.ndarray, starts: np.ndarray,
        k: np.ndarray, v: np.ndarray,
    ) -> np.ndarray:
        """Run the K/V recurrence for ``(bh, nt, rows, d)`` Q tiles.

        For causal attention, a K/V tile entirely above a Q tile's
        diagonal skips that Q tile, as the early ``break`` of the
        tile-by-tile loop does; the Q tiles still active form a suffix
        of ``starts``.  (A fully ``-inf`` tile is an exact no-op for
        the stock update, but FLASH-D's rescale by ``l * (1 / l)`` can
        move its accumulator by an ulp.)
        """
        bh, nt, rows, d = q_tiles.shape
        length = self.seq_len
        scale = np.float32(self.scale)
        m = np.full((bh, nt, rows), -np.inf, dtype=np.float32)
        l = np.zeros((bh, nt, rows), dtype=np.float32)
        acc = np.zeros((bh, nt, rows, d), dtype=np.float32)
        qi = (starts[:, None] + np.arange(rows)[None, :])[:, :, None]
        last_rows = starts + rows - 1
        for k0 in range(0, length, TILE_KV):
            k1 = min(k0 + TILE_KV, length)
            lo = int(np.searchsorted(last_rows, k0)) if self.causal else 0
            if lo == nt:
                break  # above every tile's diagonal
            s = np.matmul(q_tiles[:, lo:],
                          np.swapaxes(k[:, None, k0:k1], 2, 3),
                          dtype=np.float32) * scale
            if self.causal:
                kj = np.arange(k0, k1)[None, None, :]
                s = np.where(kj > qi[lo:], -np.inf, s)
            m[:, lo:], l[:, lo:], acc[:, lo:] = online_softmax_tile(
                m[:, lo:], l[:, lo:], acc[:, lo:], s, v[:, None, k0:k1],
                self._accumulate,
            )
        return self._finish(acc, l)

    def compute_reference(
        self, q: np.ndarray, k: np.ndarray, v: np.ndarray
    ) -> np.ndarray:
        """Pre-vectorization tile-by-tile loop, kept as the golden
        reference for the batched :meth:`compute`: the same per-tile
        update and epilogue, one Q tile at a time."""
        q, k, v = self._check_qkv(q, k, v)
        bh, length, d = self.batch_heads, self.seq_len, self.d_head
        scale = np.float32(self.scale)
        out = np.zeros((bh, length, d), dtype=np.float32)

        for q0 in range(0, length, TILE_Q):
            q1 = min(q0 + TILE_Q, length)
            q_tile = q[:, q0:q1]
            rows = q1 - q0
            m = np.full((bh, rows), -np.inf, dtype=np.float32)
            l = np.zeros((bh, rows), dtype=np.float32)
            acc = np.zeros((bh, rows, d), dtype=np.float32)
            for k0 in range(0, length, TILE_KV):
                k1 = min(k0 + TILE_KV, length)
                if self.causal and k0 > q1 - 1:
                    break  # tiles entirely above the diagonal
                s = np.matmul(q_tile, np.swapaxes(k[:, k0:k1], 1, 2),
                              dtype=np.float32) * scale
                if self.causal:
                    qi = np.arange(q0, q1)[:, None]
                    kj = np.arange(k0, k1)[None, :]
                    s = np.where(kj > qi, -np.inf, s)
                m, l, acc = online_softmax_tile(m, l, acc, s, v[:, k0:k1],
                                                self._accumulate)
            out[:, q0:q1] = self._finish(acc, l)
        return self.dtype.quantize(out)


def flash_shared_mem(d_head: int, dtype: DType = DType.FP16) -> int:
    """Shared memory per thread block: the Q tile plus double-buffered
    K and V tiles (the output accumulator and the m/l statistics live in
    registers).  Independent of sequence length, which is why
    FlashAttention scales where the fused MHA kernel of Section 7
    cannot."""
    return (TILE_Q * d_head + 4 * TILE_KV * d_head) * dtype.nbytes


def verification_oracles():
    """Oracles for the dense FlashAttention kernel: the textbook dense
    reference plus the vectorized-vs-tile-loop golden pair."""
    from repro.common.dtypes import DType
    from repro.verify.contracts import EXACT, FP16_ATTENTION, FP32_ATTENTION
    from repro.verify.refs import accumulation_slack, dense_attention
    from repro.verify.registry import OracleSpec

    def _kernel(case):
        q = case.arrays["q_sq"]
        bh, l_k, d = q.shape
        return FlashAttentionKernel(
            bh, l_k, d, dtype=case.dtype, scale=case.params["scale"],
            causal=case.params["causal"],
        ), q

    def run_vs_dense(case):
        kernel, q = _kernel(case)
        k, v = case.arrays["k"], case.arrays["v"]
        expected, scores, _ = dense_attention(
            q, k, v, case.dtype, scale=case.params["scale"],
            causal=case.params["causal"],
        )
        return {"actual": kernel.compute(q, k, v), "expected": expected,
                "slack": accumulation_slack(scores)}

    def run_golden(case):
        kernel, q = _kernel(case)
        k, v = case.arrays["k"], case.arrays["v"]
        return {
            "actual": kernel.compute(q, k, v),
            "expected": kernel.compute_reference(q, k, v),
        }

    return [
        OracleSpec(
            name="attention.flash_vs_dense",
            family="attention",
            run=run_vs_dense,
            contracts={DType.FP32: FP32_ATTENTION,
                       DType.FP16: FP16_ATTENTION},
            invariants=("finite_outputs",),
            description="tiled online-softmax attention vs dense attention",
        ),
        OracleSpec(
            name="attention.flash_golden",
            family="attention",
            run=run_golden,
            contracts={DType.FP32: EXACT, DType.FP16: EXACT},
            tags=("golden",),
            description="vectorized flash compute vs tile-loop reference",
        ),
    ]
