"""Block-granular KV-cache memory management.

The KV cache is the capacity bottleneck of LLM serving: every resident
request holds ``2 * num_layers * d_model * dtype`` bytes **per token**,
and the pool of concurrent requests is bounded by what fits in HBM next
to the weights.  :class:`KVBlockManager` models the vLLM-style paged
allocator: device memory left after the weights (and an activation
reserve) is carved into fixed-size blocks of ``block_tokens`` tokens
each, requests allocate whole blocks as their cache grows, and the
manager refuses to over-commit — admission control and preemption in
:mod:`repro.serving.scheduler` are driven by its ``can_allocate``
answers.

Every allocation and release is checked, and peak occupancy is
tracked, so tests can assert the no-over-commit invariant directly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.footprint import weight_bytes


def check_reserve_fraction(reserve_fraction: float) -> None:
    """Raise :class:`ServingError` unless the activation reserve is a
    fraction of HBM in [0, 1)."""
    if not 0 <= reserve_fraction < 1:
        raise ServingError(
            f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
        )


@dataclass(frozen=True)
class MemoryStats:
    """Occupancy snapshot/summary of a :class:`KVBlockManager`."""

    total_blocks: int
    used_blocks: int
    peak_blocks: int
    block_bytes: int

    @property
    def peak_bytes(self) -> int:
        """Peak bytes ever allocated to KV blocks."""
        return self.peak_blocks * self.block_bytes

    @property
    def utilization(self) -> float:
        """Current fraction of the KV pool in use."""
        return self.used_blocks / self.total_blocks


class KVBlockManager:
    """Fixed-size-block KV-cache allocator with occupancy tracking.

    Parameters
    ----------
    capacity_bytes:
        Device memory available to the KV pool (already net of weights
        and reserves — see :meth:`for_model`).
    block_tokens:
        Tokens per block.  64 matches the attention block size, so
        padded prompt shapes and KV blocks line up.
    bytes_per_token:
        K+V bytes one token occupies across all layers.
    """

    def __init__(
        self,
        *,
        capacity_bytes: int,
        block_tokens: int,
        bytes_per_token: int,
    ) -> None:
        require_positive("capacity_bytes", capacity_bytes)
        require_positive("block_tokens", block_tokens)
        require_positive("bytes_per_token", bytes_per_token)
        self.block_tokens = block_tokens
        self.bytes_per_token = bytes_per_token
        self.block_bytes = block_tokens * bytes_per_token
        self.total_blocks = capacity_bytes // self.block_bytes
        if self.total_blocks < 1:
            raise ServingError(
                f"KV pool of {capacity_bytes} bytes cannot hold a single "
                f"{self.block_bytes}-byte block"
            )
        self._allocated: dict[int, int] = {}
        # Running total of allocated blocks: ``used_blocks`` is read on
        # every admission/decode decision (millions of times per run),
        # so it must not re-sum the allocation table each call.
        self._used_blocks = 0
        self._peak_blocks = 0

    @classmethod
    def for_model(
        cls,
        model: ModelConfig,
        gpu: GPUSpec,
        *,
        block_tokens: int = 64,
        dtype: DType = DType.FP16,
        reserve_fraction: float = 0.1,
        n_gpus: int = 1,
    ) -> "KVBlockManager":
        """KV pool for ``model`` on ``gpu``: HBM minus weights minus an
        activation reserve (``reserve_fraction`` of HBM).

        ``n_gpus`` sizes the pool for a tensor/pipeline-parallel group:
        the weights shard across the group while the per-GPU reserve
        replicates, so the pool is ``n_gpus * hbm - weights -
        n_gpus * reserve``.
        """
        require_positive("n_gpus", n_gpus)
        check_reserve_fraction(reserve_fraction)
        reserved = weight_bytes(model, dtype) + int(
            n_gpus * gpu.hbm_bytes * reserve_fraction)
        capacity = n_gpus * gpu.hbm_bytes - reserved
        if capacity <= 0:
            raise ServingError(
                f"{model.name} weights plus reserve ({reserved / 1e9:.2f} "
                f"GB) exceed {n_gpus}x {gpu.name}'s "
                f"{gpu.hbm_bytes / 1e9:.2f} GB"
            )
        bytes_per_token = 2 * model.num_layers * model.d_model * dtype.nbytes
        return cls(capacity_bytes=capacity, block_tokens=block_tokens,
                   bytes_per_token=bytes_per_token)

    # -- queries --------------------------------------------------------

    def blocks_for_tokens(self, tokens: int) -> int:
        """Blocks needed to hold ``tokens`` KV entries."""
        return -(-tokens // self.block_tokens)

    @property
    def used_blocks(self) -> int:
        """Blocks currently allocated."""
        return self._used_blocks

    @property
    def free_blocks(self) -> int:
        """Blocks available for allocation."""
        return self.total_blocks - self.used_blocks

    @property
    def peak_blocks(self) -> int:
        """High-water mark of allocated blocks."""
        return self._peak_blocks

    def holds(self, request_id: int) -> bool:
        """Whether ``request_id`` currently owns blocks."""
        return request_id in self._allocated

    def held_blocks(self, request_id: int) -> int:
        """Blocks ``request_id`` currently owns (0 when none)."""
        return self._allocated.get(request_id, 0)

    def can_allocate(self, blocks: int) -> bool:
        """Whether ``blocks`` more blocks fit right now."""
        return blocks <= self.free_blocks

    def fits_at_all(self, tokens: int) -> bool:
        """Whether a ``tokens``-token cache could ever fit (empty pool)."""
        return self.blocks_for_tokens(tokens) <= self.total_blocks

    def stats(self) -> MemoryStats:
        """Current occupancy snapshot."""
        return MemoryStats(
            total_blocks=self.total_blocks,
            used_blocks=self.used_blocks,
            peak_blocks=self._peak_blocks,
            block_bytes=self.block_bytes,
        )

    # -- mutation -------------------------------------------------------

    def grow(self, request_id: int, tokens: int) -> int:
        """Ensure ``request_id`` owns blocks for ``tokens`` tokens.

        Returns the number of blocks newly allocated (0 if the current
        allocation already covers ``tokens``).  Raises
        :class:`ServingError` on over-commit — callers must check
        :meth:`can_allocate` (after preempting, if needed) first.
        """
        require_positive("tokens", tokens)
        needed = self.blocks_for_tokens(tokens)
        held = self._allocated.get(request_id, 0)
        extra = needed - held
        if extra <= 0:
            return 0
        if extra > self.free_blocks:
            raise ServingError(
                f"over-commit: request {request_id} needs {extra} more "
                f"blocks, only {self.free_blocks} of {self.total_blocks} "
                f"free"
            )
        self._allocated[request_id] = needed
        self._used_blocks += extra
        if self._used_blocks > self._peak_blocks:
            self._peak_blocks = self._used_blocks
        return extra

    def release(self, request_id: int) -> int:
        """Free every block owned by ``request_id``; returns the count."""
        if request_id not in self._allocated:
            raise ServingError(
                f"request {request_id} holds no KV blocks (double free?)"
            )
        freed = self._allocated.pop(request_id)
        self._used_blocks -= freed
        return freed
