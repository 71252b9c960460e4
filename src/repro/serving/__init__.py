"""Discrete-event LLM serving simulation.

The paper measures softmax recomposition one forward pass at a time;
this package asks the deployment question: *what does the kernel-level
speedup buy at the serving level?*  A discrete-event simulator replays
a request stream (Poisson arrivals or a JSONL trace) through a
continuous-batching engine whose per-step latency comes from the same
kernel cost model the rest of the library uses, with a vLLM-style
block-granular KV-cache manager deciding admission and preemption.
Reports carry the standard SLO metrics — TTFT, TPOT, sustained
throughput, p50/p95/p99 — per attention plan, so ``baseline`` and the
recomposed ``sdf`` plan can be compared where it matters.

Quickstart — one workload (Poisson arrivals, or
``ServingWorkload(..., trace=load_trace(path))`` for a JSONL trace)
replayed under each plan:

>>> from repro.serving import ServingWorkload, simulate_serving
>>> workload = ServingWorkload(rate=2.0, duration=3.0, seed=0)
>>> report = simulate_serving("bert-large", "a100", workload)
>>> report.num_requests, report.plans["sdf"].finished
(7, 7)
>>> report.speedup() > 1.0   # sdf throughput over baseline
True

See ``docs/serving.md`` for the design and its limits.
"""

from repro.serving.arrivals import (
    ARRIVAL_KINDS,
    ArrivalProcess,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrival,
)
from repro.serving.config import EngineConfig
from repro.serving.costmodel import StepCostModel
from repro.serving.engine import DEFAULT_MAX_EPOCH, EpochEngine
from repro.serving.memory import KVBlockManager, MemoryStats
from repro.serving.metrics import (
    EXACT_PERCENTILE_CUTOVER,
    LatencyAccumulator,
    LatencyStats,
    PlanReport,
    ServingReport,
)
from repro.serving.requests import (
    Request,
    RequestArrays,
    RequestStatus,
    ServingWorkload,
    load_trace,
)
from repro.serving.scheduler import ContinuousBatchingScheduler, ScheduledStep
from repro.serving.simulator import ServingSimulator, simulate_serving
from repro.serving.sketch import QuantileSketch

__all__ = [
    # workload
    "ARRIVAL_KINDS",
    "ArrivalProcess",
    "PoissonArrivals",
    "MMPPArrivals",
    "DiurnalArrivals",
    "make_arrival",
    "Request",
    "RequestArrays",
    "RequestStatus",
    "ServingWorkload",
    "load_trace",
    # engine
    "EngineConfig",
    "StepCostModel",
    "KVBlockManager",
    "MemoryStats",
    "ContinuousBatchingScheduler",
    "ScheduledStep",
    "EpochEngine",
    "DEFAULT_MAX_EPOCH",
    "ServingSimulator",
    "simulate_serving",
    # reporting
    "EXACT_PERCENTILE_CUTOVER",
    "LatencyAccumulator",
    "LatencyStats",
    "PlanReport",
    "ServingReport",
    "QuantileSketch",
]
