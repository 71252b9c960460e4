"""GPU device specifications.

The headline numbers (memory bandwidth, FP16 CUDA/tensor TFLOPS, L1 per
SM, L2 size) are Table 1 of the paper, verbatim.  The remaining
microarchitectural parameters (SM counts, occupancy limits, DRAM
latency, energy per byte) come from the public NVIDIA whitepapers cited
by the paper [23, 26, 27] and are needed by the occupancy and
utilisation models.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import GB, GIB, KIB, MIB, TERA
from repro.common.validation import require_positive


@dataclass(frozen=True)
class GPUSpec:
    """Specification of a simulated GPU.

    Attributes mirror Table 1 of the paper plus the microarchitectural
    limits required by :mod:`repro.gpu.occupancy` and
    :mod:`repro.gpu.costmodel`.
    """

    name: str
    #: Peak off-chip memory bandwidth in bytes/second.
    mem_bandwidth: float
    #: Device memory (HBM/GDDR) capacity in bytes.  Bounds what a
    #: serving system can keep resident: weights + activations + the
    #: KV cache (:mod:`repro.serving.memory`).
    hbm_bytes: int
    #: Peak FP16 throughput on the CUDA cores, FLOP/s (base clock).
    fp16_cuda_flops: float
    #: Peak FP16 throughput on the tensor cores, FLOP/s (base clock).
    fp16_tensor_flops: float
    #: Combined L1 data cache + shared memory per SM, bytes.
    l1_per_sm: int
    #: Shared-memory carve-out usable by a thread block, bytes.
    max_shared_mem_per_sm: int
    #: L2 cache size, bytes.
    l2_size: int
    #: Number of streaming multiprocessors.
    num_sms: int
    #: Maximum resident threads per SM.
    max_threads_per_sm: int
    #: Maximum resident thread blocks per SM.
    max_tbs_per_sm: int
    #: 32-bit registers per SM.
    registers_per_sm: int
    #: Average DRAM access latency in seconds (used for the
    #: latency-bandwidth product in the utilisation model).
    dram_latency: float
    #: Off-chip access energy in joules per byte.
    dram_energy_per_byte: float
    #: Fixed per-kernel launch overhead in seconds.
    kernel_launch_overhead: float
    #: Threads per warp.
    warp_size: int = 32
    #: Sustained fraction of peak FLOPS achievable by the
    #: transformer-shaped GEMMs at the base clock.  The attention GEMMs
    #: have a short accumulation dimension (K = D_head = 64) and the
    #: FC/FF GEMMs are mid-sized, so cuBLAS/CUTLASS sustain ~50-60% of
    #: the datasheet tensor peak rather than the >80% of huge square
    #: GEMMs.
    compute_efficiency: float = 0.55
    #: Sustained fraction of peak DRAM bandwidth achievable by a fully
    #: coalesced streaming kernel (~85-90% of pin bandwidth).
    streaming_efficiency: float = 0.88

    def __post_init__(self) -> None:
        require_positive("mem_bandwidth", self.mem_bandwidth)
        require_positive("hbm_bytes", self.hbm_bytes)
        require_positive("fp16_cuda_flops", self.fp16_cuda_flops)
        require_positive("fp16_tensor_flops", self.fp16_tensor_flops)
        require_positive("num_sms", self.num_sms)
        require_positive("max_threads_per_sm", self.max_threads_per_sm)
        if self.max_shared_mem_per_sm > self.l1_per_sm:
            raise ConfigError(
                f"{self.name}: shared-memory carve-out "
                f"({self.max_shared_mem_per_sm}) exceeds L1 size "
                f"({self.l1_per_sm})"
            )
        if self.hbm_bytes <= self.l2_size:
            raise ConfigError(
                f"{self.name}: device memory ({self.hbm_bytes}) must "
                f"exceed the L2 cache ({self.l2_size})"
            )

    @property
    def max_warps_per_sm(self) -> int:
        """Maximum resident warps per SM."""
        return self.max_threads_per_sm // self.warp_size

    @property
    def tb_slots(self) -> int:
        """Upper bound on concurrently resident thread blocks device-wide."""
        return self.num_sms * self.max_tbs_per_sm

    def saturation_warps_per_sm(self, bytes_in_flight_per_warp: float) -> float:
        """Warps per SM needed to saturate DRAM bandwidth (Little's law).

        The device keeps ``bandwidth * latency`` bytes in flight when
        saturated; each resident warp contributes
        ``bytes_in_flight_per_warp`` of memory-level parallelism.
        """
        require_positive("bytes_in_flight_per_warp", bytes_in_flight_per_warp)
        total_in_flight = self.mem_bandwidth * self.dram_latency
        return total_in_flight / (self.num_sms * bytes_in_flight_per_warp)


#: NVIDIA A100 (SXM, 40 GB HBM2e) — Ampere GA100 [26].
A100 = GPUSpec(
    name="A100",
    mem_bandwidth=1_555 * GB,
    hbm_bytes=40 * GIB,
    fp16_cuda_flops=42.3 * TERA,
    fp16_tensor_flops=169 * TERA,
    l1_per_sm=192 * KIB,
    max_shared_mem_per_sm=164 * KIB,
    l2_size=40 * MIB,
    num_sms=108,
    max_threads_per_sm=2048,
    max_tbs_per_sm=32,
    registers_per_sm=65_536,
    dram_latency=466e-9,
    # HBM2e: ~3.9 pJ/bit device + PHY.
    dram_energy_per_byte=31.2e-12,
    kernel_launch_overhead=4e-6,
)

#: NVIDIA GeForce RTX 3090 (24 GB GDDR6X) — Ampere GA102 [27].
RTX3090 = GPUSpec(
    name="RTX 3090",
    mem_bandwidth=936.2 * GB,
    hbm_bytes=24 * GIB,
    fp16_cuda_flops=29.3 * TERA,
    fp16_tensor_flops=58 * TERA,
    l1_per_sm=128 * KIB,
    max_shared_mem_per_sm=100 * KIB,
    l2_size=6 * MIB,
    num_sms=82,
    max_threads_per_sm=1536,
    max_tbs_per_sm=16,
    registers_per_sm=65_536,
    dram_latency=430e-9,
    # GDDR6X: ~7.25 pJ/bit.
    dram_energy_per_byte=58.0e-12,
    kernel_launch_overhead=4e-6,
)

#: NVIDIA Tesla T4 (16 GB GDDR6) — Turing TU104 [23].
T4 = GPUSpec(
    name="T4",
    mem_bandwidth=320 * GB,
    hbm_bytes=16 * GIB,
    fp16_cuda_flops=24.0 * TERA,
    fp16_tensor_flops=24.0 * TERA,
    l1_per_sm=64 * KIB,
    max_shared_mem_per_sm=64 * KIB,
    l2_size=4 * MIB,
    num_sms=40,
    max_threads_per_sm=1024,
    max_tbs_per_sm=16,
    registers_per_sm=65_536,
    dram_latency=400e-9,
    # GDDR6: ~7.5 pJ/bit.
    dram_energy_per_byte=60.0e-12,
    kernel_launch_overhead=4e-6,
)

#: NVIDIA V100 (SXM2, HBM2) — Volta.  NOT part of the paper's Table 1;
#: provided as the *previous* generation for the Section 2.3 trend
#: (V100 -> T4 -> A100 -> H100 spans four architectures).
V100 = GPUSpec(
    name="V100",
    mem_bandwidth=900 * GB,
    hbm_bytes=32 * GIB,
    fp16_cuda_flops=26.0 * TERA,
    fp16_tensor_flops=94.5 * TERA,
    l1_per_sm=128 * KIB,
    max_shared_mem_per_sm=96 * KIB,
    l2_size=6 * MIB,
    num_sms=80,
    max_threads_per_sm=2048,
    max_tbs_per_sm=32,
    registers_per_sm=65_536,
    dram_latency=440e-9,
    # HBM2: ~3.9 pJ/bit.
    dram_energy_per_byte=31.2e-12,
    kernel_launch_overhead=4e-6,
)

#: NVIDIA H100 (SXM5, HBM3) — Hopper.  NOT part of the paper's Table 1;
#: provided as the "future GPU" of Section 2.3, which predicts that the
#: softmax share grows as compute scales faster than memory bandwidth
#: ("due to the memory wall problem ... the softmax layers could take
#: even more of the total execution time in future GPUs").
H100 = GPUSpec(
    name="H100",
    mem_bandwidth=3_350 * GB,
    hbm_bytes=80 * GIB,
    fp16_cuda_flops=100 * TERA,
    fp16_tensor_flops=760 * TERA,
    l1_per_sm=256 * KIB,
    max_shared_mem_per_sm=228 * KIB,
    l2_size=50 * MIB,
    num_sms=132,
    max_threads_per_sm=2048,
    max_tbs_per_sm=32,
    registers_per_sm=65_536,
    dram_latency=480e-9,
    # HBM3: ~3.6 pJ/bit.
    dram_energy_per_byte=28.8e-12,
    kernel_launch_overhead=4e-6,
)

_REGISTRY = {
    spec.name.lower().replace(" ", ""): spec
    for spec in (A100, RTX3090, T4, V100, H100)
}


def get_gpu(name: "str | GPUSpec") -> GPUSpec:
    """Look up a GPU preset by (case/space-insensitive) name; a spec is
    already resolved and comes back unchanged.

    >>> get_gpu("a100").name
    'A100'
    """
    if isinstance(name, GPUSpec):
        return name
    key = name.lower().replace(" ", "").replace("-", "")
    try:
        return _REGISTRY[key]
    except KeyError:
        known = ", ".join(sorted(spec.name for spec in _REGISTRY.values()))
        raise ConfigError(f"unknown GPU {name!r}; known GPUs: {known}") from None


def all_gpus() -> tuple[GPUSpec, ...]:
    """The three Table 1 devices, in Table 1 order (V100 and H100 are
    presets too, but not Table 1 devices)."""
    return (A100, RTX3090, T4)


def preset_names() -> tuple[str, ...]:
    """Every registered device preset's name, in registry order."""
    return tuple(spec.name for spec in _REGISTRY.values())
