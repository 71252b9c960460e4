"""The simulated GPU device: times kernel launches and records profiles.

:class:`Device` is the single point through which every kernel in the
library executes.  Kernels hand it a :class:`~repro.gpu.costmodel.KernelLaunch`
describing their grid, per-thread-block resources, traffic and FLOPs;
the device times the launch with the roofline model and appends a
:class:`~repro.gpu.profiler.KernelRecord` to the active profile.
"""

from __future__ import annotations

from repro.gpu.costmodel import KernelLaunch, KernelTiming, time_kernel
from repro.gpu.energy import EnergyModel
from repro.gpu.profiler import KernelRecord, Profile
from repro.gpu.specs import GPUSpec, get_gpu


class Device:
    """A simulated GPU executing kernel launches.

    >>> device = Device("A100")
    >>> device.spec.name
    'A100'
    """

    def __init__(self, spec: "GPUSpec | str") -> None:
        spec = get_gpu(spec)
        self.spec = spec
        self.profile = Profile()
        self.energy_model = EnergyModel(spec)
        #: Memoized :meth:`offchip_energy` of the *current* profile;
        #: cleared by every launch/reset/take_profile so a device
        #: reused across plans (generation decode, training steps,
        #: tensor-parallel shards) can never serve a stale value.
        self._energy_cache: "float | None" = None

    def reset(self) -> None:
        """Discard all recorded kernels and any cached per-profile
        state (energy), starting completely fresh."""
        self.profile = Profile()
        self._energy_cache = None

    def launch(self, launch: KernelLaunch) -> KernelTiming:
        """Time ``launch`` and record it in the active profile."""
        timing = time_kernel(self.spec, launch)
        self._energy_cache = None
        self.profile.add(
            KernelRecord(
                name=launch.name,
                category=launch.category,
                time=timing.time,
                dram_read_bytes=launch.dram_read_bytes,
                dram_write_bytes=launch.dram_write_bytes,
                tensor_flops=launch.tensor_flops,
                cuda_flops=launch.cuda_flops,
                bandwidth_utilization=timing.bandwidth_utilization,
                bound=timing.bound,
            )
        )
        return timing

    def take_profile(self) -> Profile:
        """Return the active profile and start a fresh one."""
        profile = self.profile
        self.profile = Profile()
        self._energy_cache = None
        return profile

    def offchip_energy(self) -> float:
        """Off-chip access energy of the active profile, joules.

        Memoized until the profile next changes — sweep drivers poll
        this per point and the profile integral is linear in the
        record count.
        """
        if self._energy_cache is None:
            self._energy_cache = self.energy_model.offchip_energy(self.profile)
        return self._energy_cache

    def __repr__(self) -> str:
        return f"Device({self.spec.name!r}, kernels={len(self.profile)})"
