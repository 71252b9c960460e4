"""Analytical GPU performance model.

This package replaces the paper's physical GPUs (A100, RTX 3090, T4)
with a kernel-level performance model:

- :mod:`repro.gpu.specs` — device specifications (Table 1 of the paper
  plus the microarchitectural parameters the model needs);
- :mod:`repro.gpu.occupancy` — thread-block occupancy calculator;
- :mod:`repro.gpu.costmodel` — roofline kernel timing with a
  latency-bandwidth-product utilisation curve and a wave/load-imbalance
  model;
- :mod:`repro.gpu.energy` — off-chip access energy;
- :mod:`repro.gpu.profiler` — Nsight-Compute-like per-kernel records;
- :mod:`repro.gpu.device` — the executor tying it all together.

The model has no fitted constants: every effect the paper measures
(memory-bound softmax, occupancy-limited sparse softmax, load imbalance
in block-sparse MatMul) falls out of counted traffic and the occupancy
calculation.
"""

from repro.gpu.costmodel import KernelLaunch, KernelTiming, WorkloadShape
from repro.gpu.device import Device
from repro.gpu.energy import EnergyModel
from repro.gpu.occupancy import Occupancy, TBResources, compute_occupancy
from repro.gpu.profiler import KernelRecord, Profile
from repro.gpu.simcache import (
    CacheStats,
    SimCache,
    invalidate,
    kernel_cache,
    simulate_cache,
    stats,
)
from repro.gpu.specs import A100, GPUSpec, H100, RTX3090, T4, get_gpu

# NOTE: repro.gpu.roofline and repro.gpu.trace are intentionally not
# re-exported here: they render through repro.analysis.reporting, which
# would make this package __init__ circular.  Import them by module
# path (``from repro.gpu.roofline import analyze``).

__all__ = [
    "GPUSpec",
    "A100",
    "RTX3090",
    "T4",
    "H100",
    "get_gpu",
    "TBResources",
    "Occupancy",
    "compute_occupancy",
    "KernelLaunch",
    "KernelTiming",
    "WorkloadShape",
    "Device",
    "EnergyModel",
    "KernelRecord",
    "Profile",
    "CacheStats",
    "SimCache",
    "invalidate",
    "kernel_cache",
    "simulate_cache",
    "stats",
]
