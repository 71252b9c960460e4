"""GPU-to-GPU interconnect model (for sharded inference and serving).

Models the collectives tensor/pipeline parallelism needs over
NVLink/NVSwitch or PCIe:

- **ring all-reduce** — reduce-scatter + all-gather: each GPU moves
  ``2 (n-1)/n`` of the buffer through its link and traverses
  ``2 (n-1)`` hops.  Bandwidth-optimal; the default for the two
  hidden-state all-reduces per transformer layer.
- **tree all-reduce** — reduce up and broadcast down a binary tree:
  ``2x`` the buffer through each link but only ``2 ceil(log2 n)``
  hops.  Wins for small buffers (decode steps) where hop latency
  dominates.
- **reduce-scatter / all-gather** — the ring halves, exposed
  separately because sequence-parallel layouts charge them
  individually.
- **point-to-point** — one activation transfer across a pipeline
  stage boundary.

The hidden-state collectives of a sharded layer are priced through
:func:`repro.models.parallel.layer_allreduce_time` and
:func:`~repro.models.parallel.stage_transfer_time`, which both
``repro parallel`` and ``repro cluster-sim``'s
:class:`~repro.cluster.costmodel.ShardedStepCostModel` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.errors import ConfigError
from repro.common.units import GB
from repro.common.validation import require_positive

#: All-reduce algorithm names accepted by :func:`allreduce_time`.
ALGORITHMS = ("ring", "tree")


@dataclass(frozen=True)
class InterconnectSpec:
    """Point-to-point interconnect between the GPUs of one server."""

    name: str
    #: Per-GPU aggregate link bandwidth, bytes/second (one direction).
    link_bandwidth: float
    #: Per-hop latency in seconds.
    hop_latency: float

    def __post_init__(self) -> None:
        require_positive("link_bandwidth", self.link_bandwidth)
        require_positive("hop_latency", self.hop_latency)


#: NVLink 3 (A100 HGX): 600 GB/s total bidirectional = 300 GB/s each way.
NVLINK3 = InterconnectSpec(name="NVLink3", link_bandwidth=300 * GB,
                           hop_latency=3e-6)

#: PCIe 4.0 x16 (what a non-NVLink server falls back to).
PCIE4 = InterconnectSpec(name="PCIe4x16", link_bandwidth=32 * GB,
                         hop_latency=5e-6)


def _check_group(n_gpus: int) -> None:
    if n_gpus < 1:
        raise ConfigError(f"n_gpus must be >= 1, got {n_gpus}")


def reduce_scatter_time(spec: InterconnectSpec, nbytes: float,
                        n_gpus: int) -> float:
    """Ring reduce-scatter latency: each GPU ends with ``1/n`` of the
    reduced buffer after sending ``(n-1)/n`` of it over ``n-1`` hops."""
    _check_group(n_gpus)
    if n_gpus == 1 or nbytes <= 0:
        return 0.0
    volume = (n_gpus - 1) / n_gpus * nbytes
    return volume / spec.link_bandwidth + (n_gpus - 1) * spec.hop_latency


def allgather_time(spec: InterconnectSpec, nbytes: float,
                   n_gpus: int) -> float:
    """Ring all-gather latency: the mirror of the reduce-scatter, with
    an identical volume and hop count."""
    _check_group(n_gpus)
    if n_gpus == 1 or nbytes <= 0:
        return 0.0
    volume = (n_gpus - 1) / n_gpus * nbytes
    return volume / spec.link_bandwidth + (n_gpus - 1) * spec.hop_latency


def allreduce_time(spec: InterconnectSpec, nbytes: float, n_gpus: int,
                   *, algorithm: str = "ring") -> float:
    """All-reduce latency for an ``nbytes`` buffer over ``n`` GPUs.

    ``ring`` composes reduce-scatter + all-gather (bandwidth-optimal,
    ``2 (n-1)`` hops); ``tree`` reduces up and broadcasts down a
    binary tree (``2x`` link volume, ``2 ceil(log2 n)`` hops — better
    for the small buffers of decode steps).
    """
    _check_group(n_gpus)
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown all-reduce algorithm {algorithm!r}; "
            f"choose from {', '.join(ALGORITHMS)}"
        )
    if n_gpus == 1 or nbytes <= 0:
        return 0.0
    if algorithm == "tree":
        hops = 2 * math.ceil(math.log2(n_gpus))
        return 2.0 * nbytes / spec.link_bandwidth + hops * spec.hop_latency
    return (reduce_scatter_time(spec, nbytes, n_gpus)
            + allgather_time(spec, nbytes, n_gpus))


def alltoall_time(spec: InterconnectSpec, nbytes: float,
                  n_gpus: int) -> float:
    """All-to-all latency for ``nbytes`` of per-GPU payload.

    Each GPU keeps its own ``1/n`` slice and exchanges the remaining
    ``(n-1)/n`` pairwise — the expert-parallel dispatch/combine
    pattern of MoE layers, where ``nbytes`` is one GPU's routed
    activation volume.  Same link volume as one ring phase, with one
    hop per peer.
    """
    _check_group(n_gpus)
    if n_gpus == 1 or nbytes <= 0:
        return 0.0
    volume = (n_gpus - 1) / n_gpus * nbytes
    return volume / spec.link_bandwidth + (n_gpus - 1) * spec.hop_latency


def point_to_point_time(spec: InterconnectSpec, nbytes: float) -> float:
    """One point-to-point transfer (a pipeline-stage boundary)."""
    if nbytes <= 0:
        return 0.0
    return nbytes / spec.link_bandwidth + spec.hop_latency


def verification_oracles():
    """Oracles for the collective-cost API, fuzzed with the serving
    family: the ring all-reduce must equal its reduce-scatter +
    all-gather composition exactly, and every collective must be
    finite, non-negative, free on one GPU, and monotone in buffer
    size."""
    import numpy as np

    from repro.common.dtypes import DType
    from repro.verify.contracts import SERVING_COST
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec

    specs = (NVLINK3, PCIE4)

    def run(case):
        rng = np.random.default_rng((int(case.params["case_seed"]), 0x1C))
        spec = specs[int(rng.integers(len(specs)))]
        n_gpus = int(rng.integers(1, 9))
        nbytes = float(rng.integers(1, 2**30))
        ring = allreduce_time(spec, nbytes, n_gpus, algorithm="ring")
        tree = allreduce_time(spec, nbytes, n_gpus, algorithm="tree")
        composed = (reduce_scatter_time(spec, nbytes, n_gpus)
                    + allgather_time(spec, nbytes, n_gpus))
        a2a = alltoall_time(spec, nbytes, n_gpus)
        violations = []
        for name, value in (("ring", ring), ("tree", tree),
                            ("alltoall", a2a),
                            ("p2p", point_to_point_time(spec, nbytes))):
            if not (np.isfinite(value) and value >= 0.0):
                violations.append(Violation(
                    "nonnegative_finite",
                    f"{name} collective cost {value!r} on {spec.name}"))
        if n_gpus == 1 and (ring != 0.0 or tree != 0.0 or a2a != 0.0):
            violations.append(Violation(
                "single_gpu_free",
                f"n_gpus=1 must cost 0, got ring={ring!r} tree={tree!r} "
                f"alltoall={a2a!r}"))
        if a2a > allgather_time(spec, nbytes, n_gpus):
            violations.append(Violation(
                "alltoall_vs_allgather",
                f"all-to-all {a2a!r} exceeds the all-gather of the same "
                f"buffer on {spec.name}"))
        for algorithm, small in (("ring", ring), ("tree", tree)):
            big = allreduce_time(spec, 2.0 * nbytes, n_gpus,
                                 algorithm=algorithm)
            if big < small:
                violations.append(Violation(
                    "monotone_in_bytes",
                    f"{algorithm} all-reduce shrank when the buffer "
                    f"doubled: {small!r} -> {big!r}"))
        return {
            "actual": np.float64(ring),
            "expected": np.float64(composed),
            "violations": violations,
        }

    return [
        OracleSpec(
            name="interconnect.ring_allreduce_composition",
            family="serving",
            run=run,
            contracts={DType.FP32: SERVING_COST,
                       DType.FP16: SERVING_COST},
            description="ring allreduce_time vs its reduce-scatter + "
                        "all-gather composition, plus collective sanity "
                        "invariants",
        ),
    ]
