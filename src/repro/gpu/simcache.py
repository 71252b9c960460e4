"""Content-addressed simulation caches (the PR-1 fast path).

Every experiment in the paper re-times the same kernel graphs point by
point: the Fig. 8 speedups, the Fig. 9 seq-len/batch sweeps, the
Section 5.1 GPU sweep and the bucketed TriviaQA driver all rebuild and
re-simulate identical ``(model, gpu, plan, seq_len, batch)`` tuples.
The simulator is deterministic — the same inputs always produce the
same :class:`~repro.gpu.costmodel.KernelTiming` and the same
:class:`~repro.models.runtime.InferenceResult` — so those repeats are
pure redundancy.  This module removes it, mirroring the paper's own
thesis (do the reduction once, reuse it everywhere):

- a **kernel cache** keyed by ``(GPUSpec, KernelLaunch)`` behind
  :func:`repro.gpu.costmodel.time_kernel`.  Every field of both keys is
  part of the content address (they are frozen dataclasses), so any
  change to traffic, FLOPs, tiling or device is a miss by construction;
- a **simulate cache** keyed by the full
  :class:`~repro.models.runtime.InferenceSession` configuration,
  returning deep-frozen :class:`~repro.models.runtime.InferenceResult`
  objects (their profiles reject further mutation).

Both caches expose hit/miss counters (:func:`stats`) and explicit
invalidation (:func:`invalidate`).  ``tests/test_simcache.py`` checks
cached results against the uncached computations
(``_time_kernel_uncached``, ``InferenceSession._simulate_uncached``)
and against runs after an invalidation, as the differential reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, Optional

#: Sentinel distinguishing "not cached" from a cached falsy value.
#: Callers pass it as ``default``: ``cache.get(key, MISSING) is MISSING``
#: is the only reliable absence test (``None`` and other falsy values
#: are legitimate cache entries).
MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss counters of one cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup (0.0 when the cache was never consulted)."""
        return self.hits / self.lookups if self.lookups else 0.0


class SimCache:
    """A dict-backed memo table with hit/miss accounting."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: dict[Hashable, Any] = {}
        self.stats = CacheStats()

    def get(self, key: Hashable, default: Any = None) -> Optional[Any]:
        """The cached value for ``key``, or ``default`` (counts hit/miss).

        Absence is detected with a private sentinel, never by comparing
        the stored value against ``default`` — a cached ``None``, ``0``
        or empty container is a hit and is returned as-is.  Callers who
        may cache falsy values pass :data:`MISSING` as ``default`` and
        test ``result is MISSING``.
        """
        value = self._entries.get(key, MISSING)
        if value is MISSING:
            self.stats.misses += 1
            return default
        self.stats.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``."""
        self._entries[key] = value

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._entries.clear()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return (
            f"SimCache({self.name!r}, entries={len(self)}, "
            f"hits={self.stats.hits}, misses={self.stats.misses})"
        )


#: ``(GPUSpec, KernelLaunch) -> KernelTiming`` memo behind
#: :func:`repro.gpu.costmodel.time_kernel`.
kernel_cache = SimCache("kernel")

#: Session-configuration -> deep-frozen ``InferenceResult`` memo behind
#: :meth:`repro.models.runtime.InferenceSession.simulate`.
simulate_cache = SimCache("simulate")

_ALL_CACHES = (kernel_cache, simulate_cache)


def invalidate() -> None:
    """Explicitly drop every cached timing and inference result."""
    for cache in _ALL_CACHES:
        cache.clear()


def stats() -> dict[str, CacheStats]:
    """Per-cache hit/miss counters, keyed by cache name."""
    return {cache.name: cache.stats for cache in _ALL_CACHES}
