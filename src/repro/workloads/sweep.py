"""Parallel sweep engine: fan simulation points across processes.

A sweep (Fig. 9, the dataset driver, the verification suite) is a set
of *independent* cost-model evaluations — ideal fan-out work.  The
engine keeps the unit of work coarse (one full ``simulate()`` per
point, not per kernel) so process overhead stays negligible, and the
merge deterministic: results come back in the exact order the points
were given, so a parallel sweep renders byte-identically to a serial
one.

Each worker process evaluates points with the same pure-numpy cost
model; the simulator has no cross-point state besides its caches,
which are per-process and only an optimisation.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from repro.common.dtypes import DType
from repro.common.validation import require_positive
from repro.core.plan import AttentionPlan
from repro.gpu.simcache import simulate_cache
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.models.runtime import (
    InferenceResult,
    InferenceSession,
    freeze_result,
    simulate_cache_key,
)

__all__ = ["SweepPoint", "SweepRunner", "fanout", "simulate_point"]


def fanout(fn, items, jobs: int = 1) -> list:
    """Order-preserving map of ``fn`` over independent work items.

    ``jobs=1`` (or a single item) runs in-process; otherwise items fan
    across a process pool.  ``executor.map`` preserves input order, so
    the result list is index-aligned with ``items`` either way and a
    parallel run merges byte-identically to a serial one.  ``fn`` and
    every item must pickle (module-level function, dataclass payloads)
    — the same contract sweep points keep.
    """
    require_positive("jobs", jobs)
    items = list(items)
    if jobs == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(jobs, len(items))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return list(executor.map(fn, items))


@dataclass(frozen=True)
class SweepPoint:
    """One simulation configuration of a sweep.

    Frozen and hashable — a point both pickles cleanly to worker
    processes and works as a cache key.
    """

    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    seq_len: int
    batch: int = 1
    dtype: DType = DType.FP16
    t: int = 64
    layout_seed: int = 0

    def cache_key(self):
        """The simulate-cache address of this point's result."""
        return simulate_cache_key(
            self.model, self.gpu, self.plan, self.seq_len, self.batch,
            dtype=self.dtype, t=self.t, layout_seed=self.layout_seed,
        )

    @classmethod
    def make(
        cls,
        model: "ModelConfig | str",
        *,
        gpu: "GPUSpec | str" = "A100",
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        seq_len: int = 4096,
        batch: int = 1,
        dtype: DType = DType.FP16,
        t: int = 64,
        layout_seed: int = 0,
    ) -> "SweepPoint":
        """Resolve names to configs/specs and build a point."""
        return cls(
            model=get_model(model),
            gpu=get_gpu(gpu),
            plan=AttentionPlan.from_name(plan),
            seq_len=seq_len,
            batch=batch,
            dtype=dtype,
            t=t,
            layout_seed=layout_seed,
        )


def simulate_point(point: SweepPoint) -> InferenceResult:
    """Evaluate one sweep point.

    Module-level so it pickles to :class:`ProcessPoolExecutor` workers.
    """
    return InferenceSession(
        point.model,
        gpu=point.gpu,
        plan=point.plan,
        seq_len=point.seq_len,
        batch=point.batch,
        dtype=point.dtype,
        t=point.t,
        layout_seed=point.layout_seed,
    ).simulate()


@dataclass
class SweepRunner:
    """Run sweep points serially or across a process pool.

    ``jobs=1`` evaluates in-process (and so shares the session's
    simulate cache); ``jobs>1`` fans points across ``jobs`` worker
    processes.  Either way the returned list is index-aligned with the
    input points — ``executor.map`` preserves input order, so the merge
    is deterministic and a parallel sweep produces byte-identical
    reports to a serial one.
    """

    jobs: int = 1
    #: Points evaluated by the last :meth:`run` call.
    points_run: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        require_positive("jobs", self.jobs)

    def run(self, points) -> "list[InferenceResult]":
        """Evaluate ``points`` and return results in input order."""
        points = list(points)
        self.points_run = len(points)
        if self.jobs == 1 or len(points) <= 1:
            return [simulate_point(point) for point in points]
        # Parent-cache pre-pass: only misses go to the pool, and their
        # results seed the parent's cache on the way back — so warm
        # parallel sweeps skip both the work *and* the pool spawn.
        results = [simulate_cache.get(point.cache_key()) for point in points]
        todo = [i for i, result in enumerate(results) if result is None]
        if not todo:
            return results
        fresh = fanout(simulate_point, [points[i] for i in todo],
                       jobs=self.jobs)
        for i, result in zip(todo, fresh):
            simulate_cache.put(points[i].cache_key(), freeze_result(result))
            results[i] = result
        return results

    def map_latencies(self, points) -> "list[float]":
        """Total latency (seconds) per point, in input order."""
        return [result.total_time for result in self.run(points)]
