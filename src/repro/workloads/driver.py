"""Dataset-level latency benchmarking.

The paper reports *average* execution time over the TriviaQA dataset
at a fixed maximum sequence length.  Production serving additionally
buckets documents by length so short documents don't pay for the full
context window.  :class:`DatasetBenchmark` models both: it buckets the
corpus by (padded) sequence length, simulates each distinct bucket
once, and aggregates a latency distribution — the workload-
characterisation view of softmax recomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.common.validation import require_divisible, require_positive
from repro.core.plan import AttentionPlan
from repro.core.plansource import PlanSource, resolve_plan
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import ModelConfig, get_model
from repro.workloads.triviaqa import SyntheticTriviaQA


@dataclass(frozen=True)
class DatasetLatencyReport:
    """Latency distribution of one model/plan over a document corpus."""

    model: ModelConfig
    gpu: GPUSpec
    plan: AttentionPlan
    max_seq_len: int
    bucket: int
    #: bucketed length -> document count.
    histogram: dict[int, int] = field(default_factory=dict)
    #: bucketed length -> per-document latency (seconds).
    bucket_latency: dict[int, float] = field(default_factory=dict)

    @property
    def num_documents(self) -> int:
        """Documents processed."""
        return sum(self.histogram.values())

    @property
    def total_time(self) -> float:
        """Corpus-wide latency in seconds."""
        return sum(self.bucket_latency[length] * count
                   for length, count in self.histogram.items())

    @property
    def mean_latency(self) -> float:
        """Mean per-document latency in seconds (0 for an empty corpus,
        the same convention as
        :meth:`repro.serving.metrics.LatencyStats.from_values`)."""
        if not self.num_documents:
            return 0.0
        return self.total_time / self.num_documents

    def percentile_latency(self, q: float) -> float:
        """Latency percentile ``q`` (0-100) over documents.

        Zero for an empty corpus; out-of-range ``q`` raises
        :class:`~repro.common.errors.MetricsError`.
        """
        # Lazy import: repro.workloads <-> repro.serving would cycle at
        # module level (serving.requests uses the TriviaQA corpus).
        from repro.serving.metrics import percentile

        latencies = np.repeat(
            [self.bucket_latency[length] for length in sorted(self.histogram)],
            [self.histogram[length] for length in sorted(self.histogram)],
        )
        return percentile(list(latencies), q)

    @property
    def throughput(self) -> float:
        """Documents per second (0 for an empty corpus)."""
        if not self.total_time:
            return 0.0
        return self.num_documents / self.total_time


class DatasetBenchmark:
    """Bucketed inference of a whole corpus.

    Documents are truncated to ``max_seq_len`` and padded up to the
    next ``bucket`` multiple; each distinct bucket is simulated once.
    ``bucket`` must be a multiple of the attention block size (64) so
    block-sparse layouts remain valid, and at least ``min_len`` so the
    sparse patterns fit.
    """

    def __init__(
        self,
        dataset: SyntheticTriviaQA,
        model: "ModelConfig | str",
        *,
        gpu: "GPUSpec | str" = "A100",
        plan: "PlanSource | AttentionPlan | str | None" = None,
        max_seq_len: int = 4096,
        bucket: int = 512,
        batch: int = 1,
        t: int = 64,
        jobs: int = 1,
    ) -> None:
        require_positive("max_seq_len", max_seq_len)
        require_positive("bucket", bucket)
        require_positive("jobs", jobs)
        require_divisible("bucket", bucket, 64)
        require_divisible("max_seq_len", max_seq_len, bucket)
        self.dataset = dataset
        self.model = get_model(model) if isinstance(model, str) else model
        self.gpu = get_gpu(gpu) if isinstance(gpu, str) else gpu
        # One resolution point for every plan spelling — fixed names,
        # "auto", or a tuned-plan artifact path.
        self.plan = resolve_plan(
            AttentionPlan.BASELINE if plan is None else plan,
            model=self.model, gpu=self.gpu, seq_len=max_seq_len,
            batch=batch, t=t,
        )
        self.max_seq_len = max_seq_len
        self.bucket = bucket
        self.batch = batch
        self.t = t
        self.jobs = jobs

    def _bucketed_length(self, original_length: int) -> int:
        kept = min(original_length, self.max_seq_len)
        return int(min(self.max_seq_len,
                       -(-kept // self.bucket) * self.bucket))

    def run(self) -> DatasetLatencyReport:
        """Simulate every length bucket once and aggregate.

        Buckets are independent sweep points, so ``jobs > 1`` fans them
        across a process pool; the deterministic (sorted-bucket) merge
        keeps the report identical to a serial run.
        """
        from repro.workloads.sweep import SweepPoint, SweepRunner

        histogram = Counter(
            self._bucketed_length(int(length))
            for length in self.dataset.lengths()
        )
        lengths = sorted(histogram)
        results = SweepRunner(jobs=self.jobs).run(
            SweepPoint(
                model=self.model, gpu=self.gpu, plan=self.plan,
                seq_len=length, batch=self.batch, t=self.t,
            )
            for length in lengths
        )
        bucket_latency = {
            length: result.total_time / self.batch
            for length, result in zip(lengths, results)
        }
        return DatasetLatencyReport(
            model=self.model,
            gpu=self.gpu,
            plan=self.plan,
            max_seq_len=self.max_seq_len,
            bucket=self.bucket,
            histogram=dict(histogram),
            bucket_latency=bucket_latency,
        )
