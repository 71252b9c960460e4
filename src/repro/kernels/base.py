"""Kernel base class and breakdown categories.

A :class:`Kernel` is constructed with its full shape/tiling
configuration.  ``launch_spec(spec)`` derives the cost-model view for a
given device, ``compute(...)`` runs the numerics, and ``run(device,
...)`` does both.  Passing ``device=None`` runs the numerics alone
(pure math); calling ``launch_spec`` alone times the kernel without
touching data (used by the benchmarks, which run at paper scale where
materialising 512 MB attention matrices per layer would be wasteful).
"""

from __future__ import annotations

import abc
from typing import Optional

import numpy as np

from repro.common.errors import ShapeError
from repro.gpu.costmodel import KernelLaunch
from repro.gpu.device import Device
from repro.gpu.specs import GPUSpec


class CATEGORY:
    """Breakdown categories used by the paper's figures.

    ``MATMUL`` is the SDA-block MatMul (Q.K^T and A.V); ``FC`` the four
    fully connected projections of the MHA block; ``FEEDFORWARD`` the
    FF block; ``SOFTMAX`` every softmax sub-layer (monolithic, LS, IR,
    GS); ``OTHER`` LayerNorm/residual/element-wise glue.  Fused
    MatMul+softmax kernels are charged to ``MATMUL``, matching how the
    paper's Fig. 8 accounts for them ("the execution time of MatMul
    increases by approximately 28~55%").
    """

    MATMUL = "matmul"
    SOFTMAX = "softmax"
    FC = "fc"
    FEEDFORWARD = "feedforward"
    OTHER = "other"

    ALL = (MATMUL, SOFTMAX, FC, FEEDFORWARD, OTHER)


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division."""
    return -(-a // b)


class Kernel(abc.ABC):
    """A simulated GPU kernel: shape-bound numerics plus cost."""

    #: Kernel name shown in profiles.
    name: str = "kernel"
    #: Breakdown category (one of :class:`CATEGORY`).
    category: str = CATEGORY.OTHER

    @abc.abstractmethod
    def launch_spec(self, spec: GPUSpec) -> KernelLaunch:
        """The cost-model view of this kernel on device ``spec``."""

    @abc.abstractmethod
    def compute(self, *arrays: np.ndarray):
        """Run the numerics; returns one array or a tuple of arrays."""

    def run(self, device: Optional[Device], *arrays: np.ndarray):
        """Launch on ``device`` (if given) and run the numerics."""
        if device is not None:
            device.launch(self.launch_spec(device.spec))
        return self.compute(*arrays)

    def simulate(self, device: Device) -> None:
        """Launch on ``device`` without running the numerics."""
        device.launch(self.launch_spec(device.spec))

    def _stored(self, expected: tuple, **arrays: np.ndarray) -> tuple:
        """``arrays`` at the kernel's storage ``dtype``, each checked to
        have shape ``expected`` (the keywords label the operands)."""
        for label, array in arrays.items():
            if tuple(array.shape) != expected:
                raise ShapeError(f"{self.name}: {label} shape "
                                 f"{array.shape}, expected {expected}")
        return tuple(self.dtype.quantize(a) for a in arrays.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
