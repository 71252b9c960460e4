"""Monolithic row-wise safe softmax kernel (the baseline).

This is the TensorRT-style kernel the paper uses as its dense baseline
(Section 4) and the DeepSpeed-style kernel used for block-sparse
attention: one thread block per row vector of the attention matrix,
with the whole row staged in shared memory so that the three dependent
passes (max, exponent-sum, normalise) touch DRAM only to load the row
once and store the result once (Fig. 3(a)).

Two properties of this kernel drive the paper's analysis:

- **Phase duty.**  Only the load and store passes issue DRAM traffic;
  the reduction passes traverse the row in shared memory while still
  occupying issue slots, halving the effective memory-level
  parallelism (``PHASE_DUTY``).
- **Conservative allocation.**  Every thread block is sized for the
  *worst-case* row.  For sparse attention the worst case is a dense
  (global) row of length ``L`` even though the average row holds only
  ``density * L`` nonzeros, so most threads never issue a memory
  instruction (Section 5.1) — modelled as an ``issue_fraction``
  proportional to the density.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import KernelError, ShapeError
from repro.common.validation import require_positive
from repro.gpu.costmodel import KernelLaunch, MLP_REDUCTION, WorkloadShape
from repro.gpu.occupancy import TBResources, compute_occupancy
from repro.gpu.specs import GPUSpec
from repro.kernels.base import CATEGORY, Kernel

#: Fraction of the kernel's wall time during which warps issue DRAM
#: traffic: of the three row passes (load+max, exponent+sum in shared
#: memory, normalise+store), two touch DRAM; the barrier drains between
#: passes push the effective duty slightly below 2/3.
PHASE_DUTY = 0.6

#: Elements each thread owns within its row.
_ELEMENTS_PER_THREAD = 4


def safe_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically safe softmax (Eq. 1), tolerant of fully masked rows.

    Rows whose every element is ``-inf`` (fully masked) produce zeros
    instead of NaNs, matching what transformer kernels do in practice.
    """
    x = np.asarray(x, dtype=np.float32)
    m = np.max(x, axis=axis, keepdims=True)
    finite_m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(x - finite_m)
    e = np.where(np.isfinite(x), e, 0.0)
    d = np.sum(e, axis=axis, keepdims=True)
    return np.divide(e, d, out=np.zeros_like(e), where=d > 0)


def _row_threads(worst_case_length: int, spec: GPUSpec = None) -> int:
    """Threads per row-holding thread block.

    The block must be large enough to sweep the provisioned row in a
    few iterations, but production kernels (TensorRT autotunes this)
    never pick a block size that strands SM threads — e.g. 1024-thread
    blocks on a 1536-thread SM would idle a third of it.  So among the
    candidate sizes covering the row, pick the one maximising resident
    warps on ``spec``, accounting for the row staging buffer.
    """
    wanted = -(-worst_case_length // _ELEMENTS_PER_THREAD)
    aligned = int(min(1024, max(128, -(-wanted // 32) * 32)))
    if spec is None:
        return aligned
    candidates = [c for c in (128, 256, 512, 1024) if c <= aligned] or [aligned]
    shared = worst_case_length * 4

    def resident_warps(threads: int) -> int:
        occ = compute_occupancy(
            spec, TBResources(threads=threads, shared_mem=shared)
        )
        return occ.warps_per_sm

    return max(candidates, key=resident_warps)


class RowSoftmaxKernel(Kernel):
    """One-row-per-thread-block safe softmax.

    Parameters
    ----------
    rows:
        Total number of row vectors (batch x heads x L).
    length:
        Logical row length ``L``.
    mean_nnz / max_nnz:
        Elements actually present per row (defaults: dense, ``length``).
        The block-sparse softmax passes the per-row nonzero statistics
        here; allocation is still sized by ``worst_case_length``.
    worst_case_length:
        Row length the thread block is provisioned for (shared memory
        and thread count).  Defaults to ``length``.
    """

    category = CATEGORY.SOFTMAX

    def __init__(
        self,
        rows: int,
        length: int,
        *,
        dtype: DType = DType.FP16,
        mean_nnz: float = 0.0,
        max_nnz: float = 0.0,
        worst_case_length: int = 0,
        phase_duty: float = 0.0,
        name: str = "softmax",
    ) -> None:
        require_positive("rows", rows)
        require_positive("length", length)
        self.rows = rows
        self.length = length
        self.dtype = dtype
        self.mean_nnz = mean_nnz or float(length)
        self.max_nnz = max_nnz or self.mean_nnz
        self.worst_case_length = worst_case_length or length
        # Library implementations differ in how well the row passes are
        # pipelined; profiles may override the default duty.
        self.phase_duty = phase_duty or PHASE_DUTY
        self.name = name
        if self.mean_nnz > self.worst_case_length:
            raise ShapeError(
                f"mean_nnz ({self.mean_nnz}) exceeds worst_case_length "
                f"({self.worst_case_length})"
            )

    @property
    def total_elements(self) -> float:
        """Elements read and written across all rows."""
        return self.rows * self.mean_nnz

    @property
    def density(self) -> float:
        """Mean fraction of the provisioned row that holds data."""
        return self.mean_nnz / self.worst_case_length

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        elem_bytes = self.dtype.nbytes
        # fp32 staging buffer for the provisioned (worst-case) row.
        shared = self.worst_case_length * 4
        return KernelLaunch(
            name=self.name,
            category=self.category,
            tb=TBResources(
                threads=_row_threads(self.worst_case_length, spec),
                shared_mem=shared,
            ),
            shape=WorkloadShape(
                grid=self.rows,
                mean_work=self.mean_nnz,
                max_work=self.max_nnz,
            ),
            dram_read_bytes=self.total_elements * elem_bytes,
            dram_write_bytes=self.total_elements * elem_bytes,
            # Five operations per element (Section 3.1): subtract, exp,
            # accumulate, compare-max, divide => 2.5 Op/B at fp16.
            cuda_flops=5.0 * self.total_elements,
            issue_fraction=self.phase_duty * self.density,
            bytes_in_flight_per_warp=MLP_REDUCTION,
        )

    def _stored_rows(self, x: np.ndarray) -> np.ndarray:
        """``x`` at the storage dtype, checked to hold ``length``-long
        rows."""
        if x.shape[-1] != self.length:
            raise ShapeError(
                f"{self.name}: row length {x.shape[-1]}, expected {self.length}"
            )
        return self.dtype.quantize(x)

    def compute(self, x: np.ndarray) -> np.ndarray:
        """Safe softmax along the last axis with fp16 storage semantics."""
        return self.dtype.quantize(safe_softmax(self._stored_rows(x), axis=-1))


class BatchedRowSoftmaxKernel(RowSoftmaxKernel):
    """TurboTransformers-style batched softmax (Fang et al. [9]).

    Raises SM utilisation by assigning a *batch* of row vectors to each
    thread block, so short rows no longer strand most of the block's
    threads.  Two limitations the paper's related-work section calls
    out, both modelled here:

    - the row batch must fit in shared memory, which caps the
      supported sequence length ("the method supports sequence lengths
      up to 1,024") — longer rows raise :class:`KernelError`;
    - it "does not reduce the number of memory accesses of the
      attention matrix": traffic is identical to the monolithic
      kernel, so at long-L scales it cannot compete with recomposition.
    """

    #: Rows staged together in one thread block.
    ROWS_PER_TB = 4
    #: Longest row the batched layout supports (shared-memory bound).
    MAX_LENGTH = 1024

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("name", "batched_softmax")
        super().__init__(*args, **kwargs)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        if self.length > self.MAX_LENGTH:
            raise KernelError(
                f"batched softmax supports row lengths up to "
                f"{self.MAX_LENGTH}, got {self.length} (TurboTransformers "
                f"[9] limitation)"
            )
        base = super().launch_spec(spec)
        rows_per_tb = self.ROWS_PER_TB
        return replace(
            base,
            tb=TBResources(
                threads=256,
                shared_mem=rows_per_tb * self.worst_case_length * 4,
            ),
            shape=WorkloadShape(
                grid=-(-self.rows // rows_per_tb),
                mean_work=self.mean_nnz,
                max_work=self.max_nnz,
            ),
            # Batching keeps more warps issuing: the per-row reduction
            # phases of different rows interleave.
            issue_fraction=min(1.0, 0.85 * self.density),
        )


class OnlineRowSoftmaxKernel(RowSoftmaxKernel):
    """Online-normaliser softmax (Milakov & Gimelshein [21]).

    The max and normalisation term are produced in one fused sweep by
    rescaling a running sum whenever the running max grows, so two of
    the three passes collapse into one: both remaining passes touch
    DRAM, raising the phase duty from 1/2 to 2/3.  The rescaling costs
    extra arithmetic, and — decisive for the paper — the access pattern
    is still row-per-thread-block, so it remains un-fusable with the
    adjacent MatMuls (Section 7).
    """

    _ONLINE_PHASE_DUTY = 0.8

    def __init__(self, *args, **kwargs) -> None:
        kwargs.setdefault("name", "online_softmax")
        super().__init__(*args, **kwargs)

    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        base = super().launch_spec(spec)
        return replace(
            base,
            issue_fraction=self._ONLINE_PHASE_DUTY * self.density,
            cuda_flops=8.0 * self.total_elements,
        )

    def compute(self, x: np.ndarray) -> np.ndarray:
        """Online softmax along the last axis (fp16 storage)."""
        from repro.core.online import online_softmax

        return self.dtype.quantize(online_softmax(self._stored_rows(x)))


def verification_oracles():
    """Oracles pairing each row-softmax kernel variant with the base
    monolithic :class:`RowSoftmaxKernel`."""
    from repro.verify.contracts import EXACT, FP16_STORAGE, FP32_MATH
    from repro.verify.invariants import SOFTMAX_INVARIANTS
    from repro.verify.registry import OracleSpec

    def _pair(candidate_cls, name, description, contracts):
        def run(case):
            x = case.arrays["x"]
            rows = x.shape[0] * x.shape[1]
            length = x.shape[-1]
            candidate = candidate_cls(rows=rows, length=length,
                                      dtype=case.dtype)
            reference = RowSoftmaxKernel(rows=rows, length=length,
                                         dtype=case.dtype)
            actual = candidate.compute(x)
            return {
                "actual": actual,
                "expected": reference.compute(x),
                "probs": actual,
                "scores": case.dtype.quantize(x),
                "softmax_fn": candidate.compute,
                "x": np.asarray(x, dtype=np.float32),
            }

        return OracleSpec(
            name=name,
            family="softmax",
            run=run,
            contracts=contracts,
            invariants=SOFTMAX_INVARIANTS,
            description=description,
        )

    return [
        _pair(
            OnlineRowSoftmaxKernel,
            "softmax.online_kernel",
            "online-normaliser kernel vs monolithic row softmax",
            {DType.FP32: FP32_MATH, DType.FP16: FP16_STORAGE},
        ),
        _pair(
            BatchedRowSoftmaxKernel,
            "softmax.batched_kernel",
            "TurboTransformers batched kernel vs monolithic row softmax",
            {DType.FP32: EXACT, DType.FP16: EXACT},
        ),
    ]


@functools.lru_cache(maxsize=None)
def longest_row(spec: GPUSpec, dtype: DType = DType.FP16) -> int:
    """Longest row :class:`RowSoftmaxKernel` can launch on ``spec``: its
    thread block stages the whole row in shared memory.  A bisection
    over :func:`~repro.gpu.occupancy.compute_occupancy`; prices nothing.
    """

    def fits(length: int) -> bool:
        try:
            compute_occupancy(spec, RowSoftmaxKernel(
                1, length, dtype=dtype).launch_spec(spec).tb)
        except KernelError:
            return False
        return True

    low, high = 1, 2
    while fits(high):
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        low, high = (mid, high) if fits(mid) else (low, mid)
    return low
