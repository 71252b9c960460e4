"""Approximate softmax kernels: LUT exp, block-precision, division-free.

The paper's SDF recomposition accelerates *exact* softmax by
restructuring its passes; this module implements the companion axis
the related work opens — trading a bounded amount of accuracy for
speed.  Three designs from PAPERS.md:

- :class:`ApproxRowSoftmaxKernel` — Vasyltsov & Chang's LUT/polynomial
  exponential: split ``z·log2(e)`` into integer and fractional parts,
  look ``2^f`` up in a ``2^table_bits``-entry table (optionally with a
  first-order correction), and apply the integer part as an exponent
  shift.  Replaces the SFU exponential with a shared-memory lookup.
- :class:`BAPSSoftmaxKernel` — block-wise low-precision accumulation:
  probabilities are quantised to fp16 and summed *in fp16* within
  fixed-size blocks, each block carrying its own local max; a per-block
  fp32 rescale recombines the blocks exactly.  The fp16 row staging
  halves shared memory, raising occupancy on long rows.
- :class:`FlashDAttentionKernel` — FLASH-D: the FlashAttention
  recurrence rewritten so the accumulator stays *normalised* at every
  step.  One reciprocal per row per K/V tile folds the division into
  the existing rescale multiply, deleting the per-element division
  epilogue.

Each kernel prices its own launch through the existing roofline cost
model and reports instruction/traffic counters via :meth:`counters`.
Their fuzz oracles carry :class:`~repro.verify.profiles.
ErrorProfileContract` budgets instead of exact-match contracts — the
harness *measures* each kernel's distance from the float64 reference
and fails only when a declared budget is exceeded.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch
from repro.gpu.occupancy import TBResources
from repro.gpu.specs import GPUSpec
from repro.kernels.flash import TILE_KV, FlashAttentionKernel
from repro.kernels.softmax import RowSoftmaxKernel, _row_threads

_LOG2E = 1.4426950408889634

#: Exponent floor for the integer part of ``z*log2(e)``; anything this
#: small underflows every storage format, so clamping keeps the int
#: conversion safe without changing any output.
_MIN_EXPONENT = -16384


def lut_exp_table(table_bits: int, degree: int) -> np.ndarray:
    """The ``2^f`` lookup table for ``f`` in ``[0, 1)``.

    Degree 0 stores midpoint samples (nearest-value lookup); degree 1
    stores left-edge samples, linearly interpolated to the right edge.
    """
    size = 1 << table_bits
    grid = np.arange(size, dtype=np.float64) / size
    if degree == 0:
        return np.exp2(grid + 0.5 / size)
    return np.exp2(grid)


def lut_exp(z: np.ndarray, table_bits: int = 8,
            degree: int = 1) -> np.ndarray:
    """Approximate ``exp(z)`` for ``z <= 0`` via table lookup.

    ``-inf`` entries (masked positions) map to exactly 0, matching the
    repo-wide masking contract.  Table math runs in fp32, mirroring a
    kernel that holds the table in shared memory as fp32 words.
    """
    z = np.asarray(z, dtype=np.float32)
    finite = np.isfinite(z)
    t = np.where(finite, z, 0.0).astype(np.float32) * np.float32(_LOG2E)
    n = np.maximum(np.floor(t), np.float32(_MIN_EXPONENT))
    size = 1 << table_bits
    # Saturating index: inputs below the exponent floor land on the
    # table's first entry (the result underflows to zero via ldexp
    # regardless), and fp32 rounding at the top lands on the last.
    pos = (t - n) * np.float32(size)
    idx = np.clip(pos.astype(np.int64), 0, size - 1)
    table = lut_exp_table(table_bits, degree).astype(np.float32)
    if degree == 0:
        approx = table[idx]
    else:
        step = np.float32(2.0 ** (1.0 / size))
        frac = np.clip(pos - idx.astype(np.float32), 0.0, 1.0)
        approx = table[idx] * (np.float32(1.0) + frac * (step - 1.0))
    e = np.ldexp(approx, n.astype(np.int64))
    return np.where(finite, e, np.float32(0.0))


class ApproxRowSoftmaxKernel(RowSoftmaxKernel):
    """Row softmax with the exponential replaced by a LUT (+ linear).

    The LUT collapses the exponent-sum pass's SFU work into one
    shared-memory lookup and at most one fused multiply-add, letting
    the two remaining passes pipeline like the online-normaliser kernel
    (both touch DRAM, duty 0.8) while issuing fewer CUDA-core slots per
    element.  ``table_bits`` sets the table resolution; ``degree`` 0 is
    a pure midpoint lookup, 1 adds first-order interpolation (the
    "polynomial" refinement, ~2\\ :sup:`-2·bits` relative error instead
    of ~2\\ :sup:`-bits`).
    """

    _LUT_PHASE_DUTY = 0.8

    def __init__(self, *args, table_bits: int = 8, degree: int = 1,
                 **kwargs) -> None:
        kwargs.setdefault("name", "lut_softmax")
        super().__init__(*args, **kwargs)
        require_positive("table_bits", table_bits)
        if table_bits > 16:
            raise ConfigError(
                f"table_bits={table_bits}: a >64K-entry table no longer "
                f"fits shared memory alongside the row"
            )
        if degree not in (0, 1):
            raise ConfigError(f"degree must be 0 or 1, got {degree}")
        self.table_bits = table_bits
        self.degree = degree

    @property
    def table_bytes(self) -> int:
        """Shared-memory footprint of the fp32 lookup table."""
        return (1 << self.table_bits) * 4

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        base = super().launch_spec(spec)
        shared = self.worst_case_length * 4 + self.table_bytes
        return replace(
            base,
            tb=TBResources(
                threads=_row_threads(self.worst_case_length, spec),
                shared_mem=shared,
            ),
            # Lookup + FMA + accumulate replace the 5-op exp chain; the
            # fused max/sum sweep raises the duty like online softmax.
            cuda_flops=3.0 * self.total_elements,
            issue_fraction=self._LUT_PHASE_DUTY * self.density,
        )

    def counters(self) -> "dict[str, float]":
        """Instruction/traffic counters for the approx-sweep report."""
        elements = self.total_elements
        return {
            "exp_ops": 0.0,
            "lut_lookups": elements,
            "mul_ops": (2.0 if self.degree else 1.0) * elements,
            # One reciprocal per row; the normalise pass multiplies.
            "div_ops": float(self.rows),
            "table_bytes": float(self.table_bytes),
            "dram_bytes": 2.0 * elements * self.dtype.nbytes,
        }

    def compute(self, x: np.ndarray) -> np.ndarray:
        """LUT softmax along the last axis with storage semantics."""
        x = self._stored_rows(x)
        m = np.max(x, axis=-1, keepdims=True)
        finite_m = np.where(np.isfinite(m), m, 0.0)
        e = lut_exp(x - finite_m, self.table_bits, self.degree)
        d = np.sum(e, axis=-1, keepdims=True, dtype=np.float32)
        probs = np.divide(e, d, out=np.zeros_like(e), where=d > 0)
        return self.dtype.quantize(probs)


class BAPSSoftmaxKernel(RowSoftmaxKernel):
    """Block-wise low-precision accumulation with per-block rescale.

    Each row is cut into ``block_size`` chunks.  Within a chunk the
    exponentials are quantised to fp16 and accumulated *in fp16* — the
    chunk's local max keeps them in ``(0, 1]`` where fp16 is dense —
    and the chunk sums are recombined in fp32 with per-block
    ``exp(m'_k - m)`` rescales, exactly the SDF inter-reduction shape.
    The fp16 row staging halves the shared-memory footprint, which
    raises occupancy (and therefore achieved bandwidth) on rows long
    enough to be shared-memory limited.
    """

    def __init__(self, *args, block_size: int = 32, **kwargs) -> None:
        kwargs.setdefault("name", "baps_softmax")
        super().__init__(*args, **kwargs)
        require_positive("block_size", block_size)
        self.block_size = block_size

    @property
    def num_blocks(self) -> int:
        """Blocks per row (ragged tail padded with ``-inf``)."""
        return -(-self.length // self.block_size)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        base = super().launch_spec(spec)
        # fp16 row staging plus per-block (m', d') statistics in fp32.
        shared = self.worst_case_length * 2 + self.num_blocks * 8
        return replace(
            base,
            tb=TBResources(
                threads=_row_threads(self.worst_case_length, spec),
                shared_mem=shared,
            ),
            # The extra per-block rescale multiply rides on the
            # normalise pass: 6 ops/element instead of 5.
            cuda_flops=6.0 * self.total_elements,
        )

    def counters(self) -> "dict[str, float]":
        elements = self.total_elements
        blocks = self.rows * self.num_blocks
        return {
            "exp_ops": elements + blocks,  # per-element + per-block rescale
            "lut_lookups": 0.0,
            "mul_ops": 2.0 * elements,
            # One reciprocal per row; block combines are multiplies.
            "div_ops": float(self.rows),
            "fp16_accumulations": elements,
            "dram_bytes": 2.0 * elements * self.dtype.nbytes,
        }

    def compute(self, x: np.ndarray) -> np.ndarray:
        """Blocked fp16-accumulation softmax along the last axis."""
        x = np.asarray(self._stored_rows(x), dtype=np.float32)
        bs = self.block_size
        pad = self.num_blocks * bs - self.length
        if pad:
            x = np.concatenate(
                [x, np.full(x.shape[:-1] + (pad,), -np.inf,
                            dtype=np.float32)],
                axis=-1,
            )
        sub = x.reshape(x.shape[:-1] + (self.num_blocks, bs))
        m_blk = np.max(sub, axis=-1)
        finite_blk = np.where(np.isfinite(m_blk), m_blk, 0.0)
        p = np.where(np.isfinite(sub),
                     np.exp(sub - finite_blk[..., None]), 0.0)
        p16 = p.astype(np.float16)
        # The block accumulator itself is fp16: every partial sum
        # rounds to half precision, which is the error source the
        # per-block rescale bounds to block_size elements.
        d_blk = np.zeros(m_blk.shape, dtype=np.float16)
        for j in range(bs):
            d_blk = (d_blk + p16[..., j]).astype(np.float16)
        m = np.max(m_blk, axis=-1, keepdims=True)
        finite_m = np.where(np.isfinite(m), m, 0.0)
        scale = np.where(np.isfinite(m_blk),
                         np.exp(m_blk - finite_m), 0.0).astype(np.float32)
        d_row = np.sum(scale * d_blk.astype(np.float32), axis=-1,
                       keepdims=True)
        factor = np.divide(scale, d_row, out=np.zeros_like(scale),
                           where=d_row > 0)
        probs = p16.astype(np.float32) * factor[..., None]
        probs = probs.reshape(x.shape)
        if pad:
            probs = probs[..., :self.length]
        return self.dtype.quantize(probs)


class FlashDAttentionKernel(FlashAttentionKernel):
    """FLASH-D: FlashAttention with the division hidden in the rescale.

    The stock recurrence rescales the accumulator by ``exp(m - m_new)``
    per K/V tile and divides every output element by ``l`` in the
    epilogue.  FLASH-D keeps the accumulator normalised instead:

        l_new = l·corr + rowsum(P_j)
        O     = O · (l·corr / l_new) + (P_j / l_new) @ V_j

    One reciprocal of ``l_new`` per row per tile feeds both rescales as
    multiplies, so the per-element division pipeline disappears from
    the launch — fewer CUDA/SFU issue slots per attention element — and
    the epilogue is a plain store.
    """

    #: Stock flash spends ~12 CUDA-flop-equivalents per score element
    #: on the in-mainloop softmax; folding the division into the
    #: rescale multiply returns the division pipeline's issue slots.
    _SOFTMAX_FLOPS = 10.0

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("name", "flashd_attention")
        super().__init__(*args, **kwargs)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        base = super().launch_spec(spec)
        rescale = self.d_head / float(TILE_KV)
        return replace(
            base,
            cuda_flops=(self._SOFTMAX_FLOPS + rescale)
            * self._score_elements(),
        )

    def counters(self) -> "dict[str, float]":
        rows = self.batch_heads * self.seq_len
        kv_tiles = -(-self.seq_len // TILE_KV)
        scores = self._score_elements()
        return {
            "exp_ops": scores + rows * kv_tiles,
            "lut_lookups": 0.0,
            "mul_ops": scores + 2.0 * rows * kv_tiles * self.d_head,
            # One reciprocal per row per K/V tile — versus the stock
            # epilogue's d_head divisions per row.
            "div_ops": float(rows * kv_tiles),
            "dram_bytes": 4.0 * rows * self.d_head * self.dtype.nbytes,
        }

    @staticmethod
    def _accumulate(acc, l, correction, p, v_tile):
        """The normalised-accumulator update: ``acc`` stays divided by
        the running row sum ``l``."""
        carried = l * correction
        l_new = carried + p.sum(axis=-1)
        inv = np.divide(
            np.float32(1.0), l_new, out=np.zeros_like(l_new),
            where=l_new > 0,
        )
        # Both rescales share the one reciprocal: the carried mass
        # shrinks to its new share, the tile lands pre-normalised.
        acc = acc * (carried * inv)[..., None] + np.matmul(
            p * inv[..., None], v_tile, dtype=np.float32
        )
        return acc, l_new

    @staticmethod
    def _finish(acc, l):
        """No final division: the accumulator is already normalised."""
        return acc


def baseline_softmax_counters(rows: int, length: int,
                              dtype: DType) -> "dict[str, float]":
    """The monolithic kernel's counters, for side-by-side reports."""
    elements = float(rows) * length
    return {
        "exp_ops": elements,
        "lut_lookups": 0.0,
        "mul_ops": elements,
        # The normalise pass divides every element by the row sum.
        "div_ops": elements,
        "dram_bytes": 2.0 * elements * dtype.nbytes,
    }


def flash_softmax_counters(batch_heads: int, seq_len: int, d_head: int,
                           dtype: DType,
                           causal: bool = False) -> "dict[str, float]":
    """Stock FlashAttention softmax counters (the FLASH-D comparison)."""
    rows = batch_heads * seq_len
    kv_tiles = -(-seq_len // TILE_KV)
    scores = batch_heads * seq_len * seq_len / (2.0 if causal else 1.0)
    return {
        "exp_ops": scores + rows * kv_tiles,
        "lut_lookups": 0.0,
        "mul_ops": scores + rows * kv_tiles * d_head,
        # Epilogue divides every output element by l.
        "div_ops": float(rows * d_head),
        "dram_bytes": 4.0 * rows * d_head * dtype.nbytes,
    }


def verification_oracles():
    """Error-profile oracles: each approximate kernel vs the float64
    exact reference, with declared accuracy budgets per dtype."""
    from repro.verify.invariants import SOFTMAX_INVARIANTS
    from repro.verify.profiles import ErrorProfileContract
    from repro.verify.refs import exact_attention, exact_softmax
    from repro.verify.registry import OracleSpec

    # Budgets hold ~4x margin over the worst profile measured across
    # 1000 fuzz cases per dtype (seeds 0-4); see docs/approx.md for the
    # measured numbers behind each bound.
    LUT_PROFILES = {
        # Measured worst: ulp=77, mean_rel=4.4e-7, abs=2.9e-7, kl=1.4e-7.
        DType.FP32: ErrorProfileContract(
            max_ulp=512, mean_rel_err=2e-6, max_abs_err=2e-6,
            max_row_kl=1e-6),
        # fp16 output rounding dominates the LUT's own error.
        # Measured worst: ulp=1, mean_rel=2.8e-4, abs=2.5e-4, kl=3.7e-4.
        DType.FP16: ErrorProfileContract(
            max_ulp=4, mean_rel_err=1.5e-3, max_abs_err=1.5e-3,
            max_row_kl=2e-3),
    }
    BAPS_PROFILES = {
        # The fp16 accumulator flushes probabilities below the fp16
        # subnormal threshold (~6e-8) to exact zero, so relative and
        # ULP error are unbounded by design at fp32 storage — the
        # contract's teeth are the absolute and KL axes.  Measured
        # worst: mean_rel=0.17, abs=7.7e-4, kl=2.7e-3.
        DType.FP32: ErrorProfileContract(
            max_ulp=1 << 31, mean_rel_err=0.75, max_abs_err=4e-3,
            max_row_kl=1e-2),
        # Measured worst: ulp=5, mean_rel=1.6e-3, abs=7.2e-4, kl=2.3e-3.
        DType.FP16: ErrorProfileContract(
            max_ulp=16, mean_rel_err=8e-3, max_abs_err=4e-3,
            max_row_kl=1e-2),
    }
    FLASHD_PROFILES = {
        # Attention outputs: no probability axis, so no KL budget.
        # Near-zero outputs from cancellation in the value contraction
        # make the fp32 ULP axis wide.  Measured worst: ulp=3.4e5,
        # mean_rel=4.0e-5, abs=5.7e-5.
        DType.FP32: ErrorProfileContract(
            max_ulp=1 << 21, mean_rel_err=2e-4, max_abs_err=4e-4,
            max_row_kl=None),
        # Near-zero outputs sit in fp16's subnormal range, where a
        # ~1e-5 absolute error counts hundreds of ULPs.  Measured
        # worst: ulp=267 (sweep, L=256), mean_rel=2.5e-4, abs=1.8e-3.
        DType.FP16: ErrorProfileContract(
            max_ulp=1024, mean_rel_err=1e-3, max_abs_err=8e-3,
            max_row_kl=None),
    }

    def _softmax_oracle(kernel_cls, name, description, profiles,
                        invariants, **kernel_kwargs):
        def run(case):
            x = case.arrays["x"]
            rows = x.shape[0] * x.shape[1]
            length = x.shape[-1]
            kernel = kernel_cls(rows=rows, length=length,
                                dtype=case.dtype, **kernel_kwargs)
            actual = kernel.compute(x)
            return {
                "actual": actual,
                "expected": exact_softmax(case.dtype.quantize(x)),
                "probs": actual,
                "scores": case.dtype.quantize(x),
                "softmax_fn": kernel.compute,
                "x": np.asarray(x, dtype=np.float32),
            }

        return OracleSpec(
            name=name,
            family="softmax",
            run=run,
            profiles=profiles,
            invariants=invariants,
            tags=("approx",),
            description=description,
        )

    def run_flashd(case):
        q = case.arrays["q_sq"]
        bh, l_k, d = q.shape
        kernel = FlashDAttentionKernel(
            bh, l_k, d, dtype=case.dtype, scale=case.params["scale"],
            causal=case.params["causal"],
        )
        k, v = case.arrays["k"], case.arrays["v"]
        expected, _, _ = exact_attention(
            q, k, v, case.dtype, scale=case.params["scale"],
            causal=case.params["causal"],
        )
        return {"actual": kernel.compute(q, k, v), "expected": expected}

    return [
        _softmax_oracle(
            ApproxRowSoftmaxKernel,
            "softmax.lut_kernel",
            "LUT/polynomial-exp softmax vs float64 exact softmax",
            LUT_PROFILES,
            SOFTMAX_INVARIANTS,
        ),
        _softmax_oracle(
            BAPSSoftmaxKernel,
            "softmax.baps_kernel",
            "block-precision (fp16-accumulate) softmax vs float64 exact",
            BAPS_PROFILES,
            # Block boundaries break permutation equivariance by design
            # (permuting a row regroups its fp16 accumulations).
            ("row_sum_one", "masked_zeros", "finite_outputs"),
        ),
        OracleSpec(
            name="attention.flashd_vs_exact",
            family="attention",
            run=run_flashd,
            profiles=FLASHD_PROFILES,
            invariants=("finite_outputs",),
            tags=("approx",),
            description="division-free FlashAttention vs float64 exact "
                        "attention",
        ),
    ]
