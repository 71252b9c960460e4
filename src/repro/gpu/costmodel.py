"""Roofline kernel cost model with occupancy-driven bandwidth utilisation.

A kernel's execution time is::

    time = launch_overhead
         + imbalance_penalty * max(compute_time, memory_time)

where

- ``compute_time`` charges tensor-core and CUDA-core FLOPs against the
  device peaks, derated by the pipeline efficiency a tuned GEMM
  sustains and by compute occupancy (a grid too small to fill the
  device cannot reach peak);
- ``memory_time`` charges off-chip bytes against peak DRAM bandwidth,
  derated by (a) the streaming efficiency of the DRAM subsystem,
  (b) the *utilisation* achievable with the kernel's resident warps
  (Little's law: ``bandwidth × latency`` bytes must be in flight to
  saturate; each warp contributes a bounded amount of memory-level
  parallelism), and (c) the kernel's access efficiency (fraction of
  each DRAM transaction containing useful data);
- ``imbalance_penalty`` models wave quantisation and irregular
  per-thread-block work: full waves run at the mean work per block, the
  last wave's critical path is the maximum work per block.

This is the mechanism behind all of the paper's measured effects:

- the softmax layer is memory-bound (operational intensity 2.5 Op/B vs
  a machine balance > 25 FLOP/B — Section 3.1), so its time is its
  traffic divided by achieved bandwidth;
- the baseline *sparse* softmax conservatively sizes each thread block
  for a worst-case (dense) row, so only ``density`` of its warps issue
  memory instructions, collapsing utilisation (Section 5.1);
- block-sparse MatMul rows have irregular nonzero counts, so small
  grids suffer load imbalance that larger batches smooth out
  (Section 5.2 / Fig. 9b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import KernelError
from repro.common.validation import require_non_negative, require_positive
from repro.gpu.occupancy import Occupancy, TBResources, compute_occupancy
from repro.gpu.simcache import MISSING, kernel_cache
from repro.obs.tracer import current_tracer
from repro.gpu.specs import GPUSpec

#: Memory-level parallelism classes: in-flight DRAM bytes one warp of a
#: kernel sustains.  Streaming kernels unroll deeply (4 outstanding
#: 128 B lines); row-reduction kernels serialise on dependent
#: accumulations (1 outstanding line); double-buffered GEMM mainloops
#: (cp.async pipelines) keep whole tiles in flight.
MLP_STREAMING = 512.0
MLP_REDUCTION = 128.0
MLP_MATMUL = 1024.0

#: Resident warps per SM needed to saturate the compute pipelines
#: (4 schedulers x 2 eligible warps each to hide ALU latency).
_COMPUTE_SATURATION_WARPS = 8.0


@dataclass(frozen=True)
class WorkloadShape:
    """Grid size and per-thread-block work distribution.

    ``mean_work`` / ``max_work`` are in arbitrary consistent units
    (e.g. nonzero blocks per row); only their ratio matters, for the
    load-imbalance penalty.
    """

    grid: int
    mean_work: float = 1.0
    max_work: float = 1.0

    def __post_init__(self) -> None:
        require_positive("grid", self.grid)
        require_positive("mean_work", self.mean_work)
        if self.max_work < self.mean_work:
            raise KernelError(
                f"max_work ({self.max_work}) < mean_work ({self.mean_work})"
            )


@dataclass(frozen=True)
class KernelLaunch:
    """Everything the device model needs to time one kernel launch."""

    name: str
    #: Breakdown category ("matmul", "softmax", "fc", ...); used by the
    #: profiler to build Fig. 2 / Fig. 8 style stacks.
    category: str
    tb: TBResources
    shape: WorkloadShape
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    #: FLOPs issued to tensor cores (MatMul MACs count as 2 FLOPs).
    tensor_flops: float = 0.0
    #: FLOPs issued to the ordinary CUDA cores.
    cuda_flops: float = 0.0
    #: Fraction of resident warps issuing DRAM requests at any instant.
    #: < 1 for kernels whose thread blocks are sized for worst-case rows
    #: (sparse softmax) or that interleave on-chip reduction phases.
    issue_fraction: float = 1.0
    #: In-flight DRAM bytes per issuing warp (MLP class).
    bytes_in_flight_per_warp: float = MLP_STREAMING
    #: Fraction of each DRAM transaction that is useful data.
    access_efficiency: float = 1.0
    #: Multiplier on the device's GEMM pipeline efficiency for this
    #: launch.  < 1 for kernels that cannot reach the tuned-GEMM
    #: efficiency — e.g. block-sparse MatMuls whose 64x64 tiles leave
    #: the tensor-core pipeline underfed (Triton block-sparse kernels
    #: sustain roughly half of cuBLAS efficiency).
    compute_efficiency_scale: float = 1.0

    def __post_init__(self) -> None:
        require_non_negative("dram_read_bytes", self.dram_read_bytes)
        require_non_negative("dram_write_bytes", self.dram_write_bytes)
        require_non_negative("tensor_flops", self.tensor_flops)
        require_non_negative("cuda_flops", self.cuda_flops)
        if not 0.0 < self.issue_fraction <= 1.0:
            raise KernelError(
                f"issue_fraction must be in (0, 1], got {self.issue_fraction}"
            )
        if not 0.0 < self.access_efficiency <= 1.0:
            raise KernelError(
                f"access_efficiency must be in (0, 1], got {self.access_efficiency}"
            )
        if not 0.0 < self.compute_efficiency_scale <= 1.0:
            raise KernelError(
                "compute_efficiency_scale must be in (0, 1], got "
                f"{self.compute_efficiency_scale}"
            )

    @property
    def dram_bytes(self) -> float:
        """Total off-chip traffic of the launch."""
        return self.dram_read_bytes + self.dram_write_bytes


@dataclass(frozen=True)
class KernelTiming:
    """Timing decomposition produced by :func:`time_kernel`."""

    time: float
    compute_time: float
    memory_time: float
    launch_overhead: float
    occupancy: Occupancy
    #: Achieved fraction of peak DRAM bandwidth, in (0, 1].
    bandwidth_utilization: float
    #: >= 1; wave-quantisation and load-imbalance multiplier.
    imbalance_penalty: float

    @property
    def bound(self) -> str:
        """Whether the kernel is ``"compute"`` or ``"memory"`` bound."""
        return "compute" if self.compute_time >= self.memory_time else "memory"


def _resident_warps(spec: GPUSpec, launch: KernelLaunch, occ: Occupancy) -> float:
    """Average resident warps per SM, accounting for grids too small to
    fill every SM with its occupancy-limited complement of blocks."""
    warps_per_tb = -(-launch.tb.threads // spec.warp_size)
    device_warps = launch.shape.grid * warps_per_tb
    return min(float(occ.warps_per_sm), device_warps / spec.num_sms)


def bandwidth_utilization(spec: GPUSpec, launch: KernelLaunch, occ: Occupancy) -> float:
    """Fraction of peak DRAM bandwidth the launch can sustain.

    Little's law: saturation requires ``bandwidth x latency`` bytes in
    flight device-wide.  Issuing warps each contribute
    ``bytes_in_flight_per_warp``; warps predicated off by conservative
    worst-case thread-block sizing (``issue_fraction``) contribute
    nothing.
    """
    issuing_warps = _resident_warps(spec, launch, occ) * launch.issue_fraction
    saturation = spec.saturation_warps_per_sm(launch.bytes_in_flight_per_warp)
    raw = min(1.0, issuing_warps / saturation)
    return raw * spec.streaming_efficiency * launch.access_efficiency


def _imbalance_penalty(spec: GPUSpec, launch: KernelLaunch, occ: Occupancy) -> float:
    """Wave-quantisation / load-imbalance multiplier (>= 1).

    The grid executes in ``ceil(grid / resident_slots)`` waves.  Full
    waves proceed at the mean per-block work; the final wave's critical
    path is the maximum per-block work.  With many waves the penalty
    amortises to 1, which is why larger batches help block-sparse
    MatMul (Fig. 9b).
    """
    slots = occ.tbs_per_sm * spec.num_sms
    waves = math.ceil(launch.shape.grid / slots)
    mean, worst = launch.shape.mean_work, launch.shape.max_work
    return ((waves - 1) * mean + worst) / (waves * mean)


def time_kernel(spec: GPUSpec, launch: KernelLaunch) -> KernelTiming:
    """Time one kernel launch on ``spec`` under the roofline model.

    Memoized: ``spec`` and ``launch`` are frozen dataclasses whose
    fields fully determine the timing, so the pair is a content
    address.  The returned :class:`KernelTiming` is immutable and may
    be shared between callers.
    """
    key = (spec, launch)
    cached = kernel_cache.get(key, MISSING)
    if cached is not MISSING:
        _trace_kernel(spec, launch, cached, hit=True)
        return cached
    timing = _time_kernel_uncached(spec, launch)
    kernel_cache.put(key, timing)
    _trace_kernel(spec, launch, timing, hit=False)
    return timing


def _trace_kernel(
    spec: GPUSpec, launch: KernelLaunch, timing: KernelTiming, *, hit: bool
) -> None:
    """Record the evaluated kernel on the active tracer, if any.

    Kernel evaluations have no global timeline position — the cost
    model is called from graph construction, sweeps and the serving
    step model alike — so each device gets its own track where spans
    are laid back to back in evaluation order (:meth:`Tracer.push`).
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    pid, tid = tracer.track(f"kernels:{spec.name}", launch.category)
    tracer.push(
        launch.name, "kernel", timing.time, pid=pid, tid=tid,
        args={
            "bound": timing.bound,
            "cached": hit,
            "dram_bytes": launch.dram_bytes,
            "flops": launch.tensor_flops + launch.cuda_flops,
        },
    )
    tracer.metrics.counter("kernel.evaluations").inc()
    tracer.metrics.counter("kernel.time_s").add(timing.time)


def _time_kernel_uncached(spec: GPUSpec, launch: KernelLaunch) -> KernelTiming:
    """The un-memoized roofline evaluation behind :func:`time_kernel`."""
    occ = compute_occupancy(spec, launch.tb)

    compute_util = min(
        1.0, _resident_warps(spec, launch, occ) / _COMPUTE_SATURATION_WARPS
    )
    efficiency = spec.compute_efficiency * launch.compute_efficiency_scale
    compute_time = 0.0
    if launch.tensor_flops:
        compute_time += launch.tensor_flops / (
            spec.fp16_tensor_flops * efficiency * compute_util
        )
    if launch.cuda_flops:
        compute_time += launch.cuda_flops / (
            spec.fp16_cuda_flops * efficiency * compute_util
        )

    memory_time = 0.0
    utilization = 0.0
    if launch.dram_bytes:
        utilization = bandwidth_utilization(spec, launch, occ)
        memory_time = launch.dram_bytes / (spec.mem_bandwidth * utilization)

    penalty = _imbalance_penalty(spec, launch, occ)
    time = spec.kernel_launch_overhead + penalty * max(compute_time, memory_time)
    return KernelTiming(
        time=time,
        compute_time=compute_time,
        memory_time=memory_time,
        launch_overhead=spec.kernel_launch_overhead,
        occupancy=occ,
        bandwidth_utilization=utilization,
        imbalance_penalty=penalty,
    )
