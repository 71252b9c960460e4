"""Streaming percentile sketch for fleet-scale latency metrics.

At 1M+ requests the latency lists behind ``LatencyStats`` dominate the
simulator's memory footprint — three floats per finished request per
metric, retained until the end of the run just to answer three
percentile queries.  :class:`QuantileSketch` replaces the list with a
t-digest-style summary (Dunning & Ertl): the value stream is buffered,
sorted, and merged into a bounded set of weighted centroids whose
sizes follow the arcsine scale function, so the summary spends its
resolution on the tails — exactly where p95/p99 live.

Design constraints, in order:

- **deterministic** — the same value sequence always produces the same
  centroids, and merging sketches is deterministic in merge order, so
  a sharded cluster run reduces to byte-identical reports regardless
  of worker count (the same contract ``SweepRunner`` keeps);
- **bounded** — memory is O(compression) per sketch regardless of
  stream length;
- **accurate at the tails** — the arcsine scale function bounds the
  rank error of a quantile query by (roughly) half a centroid's rank
  width, which shrinks as ``sqrt(q * (1 - q))`` toward the extremes.

The compression pass is fully vectorized: sorted values are assigned
to centroids by *fixed* scale-function bins (``floor(k(q))``) rather
than the classic greedy walk, which keeps a flush at numpy speed and
makes the centroid layout a pure function of the sorted weighted
values.  Exact percentiles remain the default below
``EXACT_PERCENTILE_CUTOVER`` (see :mod:`repro.serving.metrics`); the
sketch only answers once a run is too large to retain, and reports
carrying sketch-derived numbers are flagged ``approx_percentiles``.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import MetricsError
from repro.common.validation import require_positive

__all__ = ["QuantileSketch", "SKETCH_COMPRESSION"]

#: Default compression (δ).  The sketch holds at most ~δ/2 centroids;
#: at δ=200 the worst-case rank error of a p99 query is ~0.2%.
SKETCH_COMPRESSION = 200


class QuantileSketch:
    """Mergeable t-digest-style quantile summary of a float stream.

    >>> sketch = QuantileSketch()
    >>> for v in range(1, 1001):
    ...     sketch.add(float(v))
    >>> abs(sketch.quantile(50) - 500.5) < 25
    True
    """

    def __init__(self, compression: int = SKETCH_COMPRESSION,
                 buffer_size: int = 1024) -> None:
        require_positive("compression", compression)
        require_positive("buffer_size", buffer_size)
        self.compression = compression
        self.buffer_size = buffer_size
        self.count = 0
        self._min = math.inf
        self._max = -math.inf
        self._means = np.empty(0, dtype=np.float64)
        self._weights = np.empty(0, dtype=np.float64)
        self._buffer: "list[float]" = []

    # -- intake ---------------------------------------------------------

    def add(self, value: float) -> None:
        """Fold one observation into the sketch."""
        value = float(value)
        if not math.isfinite(value):
            raise MetricsError(f"sketch values must be finite, got {value!r}")
        self.count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        self._buffer.append(value)
        if len(self._buffer) >= self.buffer_size:
            self.flush()

    def extend(self, values) -> None:
        """Fold an iterable of observations, in order."""
        for value in values:
            self.add(value)

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other``'s summary into this sketch.

        Merge order matters for the exact centroid layout (not for the
        accuracy bound), so callers that need deterministic output must
        merge in a deterministic order — the cluster aggregator merges
        per-replica sketches in replica-id order.
        """
        if other.count == 0:
            return
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if len(other._means):
            self.flush()
            self.count += other.count - len(other._buffer)
            means = np.concatenate([self._means, other._means])
            weights = np.concatenate([self._weights, other._weights])
            self._means, self._weights = self._compress(means, weights)
        # Values still sitting in ``other``'s buffer have not been
        # binned yet; replaying them through the streaming path keeps a
        # merge at a flush boundary byte-identical to having streamed
        # the same values into ``self`` directly.  ``other`` is left
        # untouched.
        for value in other._buffer:
            self.add(value)

    # -- compression ----------------------------------------------------

    def _k(self, q: np.ndarray) -> np.ndarray:
        """Arcsine scale function: dense centroids at the tails."""
        return (self.compression / (2.0 * math.pi)) * np.arcsin(
            np.clip(2.0 * q - 1.0, -1.0, 1.0))

    def flush(self) -> None:
        """Bin the buffered values into centroids (queries do this
        implicitly)."""
        if not self._buffer:
            return
        fresh = np.asarray(self._buffer, dtype=np.float64)
        self._buffer = []
        means = np.concatenate([self._means, fresh])
        weights = np.concatenate(
            [self._weights, np.ones(len(fresh), dtype=np.float64)])
        self._means, self._weights = self._compress(means, weights)

    def _compress(self, means: np.ndarray, weights: np.ndarray):
        """Merge weighted values into scale-function-binned centroids.

        Items are sorted by value (stable, so ties keep insertion
        order) and grouped by ``floor(k(q_mid))`` of their midpoint
        rank — a fixed binning whose per-centroid rank width is at
        most one k-unit, the same bound the greedy t-digest walk
        maintains, but computable in one vectorized pass.
        """
        order = np.argsort(means, kind="stable")
        means = means[order]
        weights = weights[order]
        total = float(weights.sum())
        cum = np.cumsum(weights)
        q_mid = (cum - 0.5 * weights) / total
        bins = np.floor(self._k(q_mid)).astype(np.int64)
        # Segment starts: first item of each occupied bin.
        starts = np.flatnonzero(np.concatenate(([True], bins[1:] != bins[:-1])))
        new_weights = np.add.reduceat(weights, starts)
        new_means = np.add.reduceat(means * weights, starts) / new_weights
        return new_means, new_weights

    # -- queries --------------------------------------------------------

    @property
    def centroid_count(self) -> int:
        """Centroids currently held (diagnostic; bounded by ~δ/2)."""
        self.flush()
        return len(self._means)

    @property
    def min(self) -> float:
        """Smallest value observed (exact); 0.0 when empty."""
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        """Largest value observed (exact); 0.0 when empty."""
        return self._max if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (``q`` in [0, 100]).

        Uses the standard t-digest interpolation: each centroid sits at
        the midpoint of its rank span, queries interpolate linearly
        between adjacent centroid midpoints, and the extremes anchor on
        the exact observed min/max.
        """
        if not 0.0 <= q <= 100.0:
            raise MetricsError(
                f"percentile rank must be in [0, 100], got {q!r}")
        if self.count == 0:
            return 0.0
        self.flush()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return float(means[0])
        total = float(weights.sum())
        target = (q / 100.0) * total
        cum = np.cumsum(weights)
        # Rank of each centroid's midpoint.
        mid = cum - 0.5 * weights
        if target <= mid[0]:
            # Interpolate between the exact minimum (rank 0) and the
            # first centroid's midpoint.
            frac = target / mid[0] if mid[0] > 0 else 1.0
            return float(self._min + frac * (means[0] - self._min))
        if target >= mid[-1]:
            span = total - mid[-1]
            frac = (target - mid[-1]) / span if span > 0 else 1.0
            return float(means[-1] + frac * (self._max - means[-1]))
        hi = int(np.searchsorted(mid, target, side="left"))
        lo = hi - 1
        span = mid[hi] - mid[lo]
        frac = (target - mid[lo]) / span if span > 0 else 0.0
        return float(means[lo] + frac * (means[hi] - means[lo]))

    def quantiles(self, qs) -> "list[float]":
        """Batch :meth:`quantile` over an iterable of ranks."""
        return [self.quantile(q) for q in qs]

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"QuantileSketch(count={self.count}, "
                f"centroids={len(self._means) + len(self._buffer)}, "
                f"compression={self.compression})")


def verification_oracles():
    """Oracle fuzzing the sketch against exact empirical ranks.

    For every serving-family case a deterministic synthetic latency
    stream (distribution regime selected by the case seed, including
    the adversarial bimodal/heavy-tail/constant shapes) feeds one
    sketch; the *actual* outputs are the empirical CDF ranks of the
    sketch's p50/p95/p99 answers and the *expected* outputs are the
    queried ranks themselves, compared under a pure rank-error budget
    (``SKETCH_RANK``).  Exactness invariants (count, min/max, quantile
    monotonicity, merge-vs-whole agreement) ride along as violations.
    """
    import numpy as np

    from repro.verify.contracts import SKETCH_RANK
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec
    from repro.common.dtypes import DType

    regimes = ("uniform", "lognormal", "bimodal", "heavy-tail", "constant")

    def stream_for(case) -> np.ndarray:
        p = case.params
        seed = int(p.get("case_seed", 0))
        rng = np.random.default_rng((seed, 0x51E7C4))
        size = 700 + int(
            37 * len(p.get("decode_kv", ())) + sum(p.get("decode_kv", ()))
        ) % 2300
        regime = regimes[seed % len(regimes)]
        if regime == "uniform":
            return rng.uniform(0.0, 10.0, size=size)
        if regime == "lognormal":
            return rng.lognormal(mean=-2.0, sigma=1.0, size=size)
        if regime == "bimodal":
            low = rng.normal(0.05, 0.01, size=size // 2)
            high = rng.normal(5.0, 0.5, size=size - size // 2)
            mixed = np.concatenate([low, high])
            rng.shuffle(mixed)
            return np.abs(mixed)
        if regime == "heavy-tail":
            return rng.pareto(1.5, size=size) + 1e-3
        return np.full(size, 0.125)

    def empirical_rank(sorted_values: np.ndarray, value: float) -> float:
        """Mid-rank of ``value`` in the sorted sample, in [0, 1]."""
        lo = np.searchsorted(sorted_values, value, side="left")
        hi = np.searchsorted(sorted_values, value, side="right")
        return float((lo + hi) / 2.0 / len(sorted_values))

    def run(case):
        values = stream_for(case)
        sketch = QuantileSketch()
        sketch.extend(values)
        ordered = np.sort(values)
        qs = (50.0, 95.0, 99.0)
        estimates = sketch.quantiles(qs)
        violations = []
        if sketch.count != len(values):
            violations.append(Violation(
                "exact_count",
                f"sketch.count {sketch.count} != stream {len(values)}"))
        if sketch.min != float(ordered[0]) or sketch.max != float(ordered[-1]):
            violations.append(Violation(
                "exact_extremes",
                f"min/max ({sketch.min!r}, {sketch.max!r}) != "
                f"({ordered[0]!r}, {ordered[-1]!r})"))
        if any(b < a for a, b in zip(estimates, estimates[1:])):
            violations.append(Violation(
                "quantile_monotonic",
                f"p50/p95/p99 not nondecreasing: {estimates!r}"))
        # Split-merge agreement: two half-stream sketches merged must
        # answer within the same rank budget as the whole-stream one.
        half = len(values) // 2
        left, right = QuantileSketch(), QuantileSketch()
        left.extend(values[:half])
        right.extend(values[half:])
        left.merge(right)
        if left.count != sketch.count:
            violations.append(Violation(
                "merge_count",
                f"merged count {left.count} != whole {sketch.count}"))
        merged_ranks = [empirical_rank(ordered, v)
                        for v in left.quantiles(qs)]
        spread = float(ordered[-1] - ordered[0])
        for q, rank in zip(qs, merged_ranks):
            if spread > 0 and abs(rank - q / 100.0) > 0.05:
                violations.append(Violation(
                    "merge_rank_error",
                    f"merged sketch p{q:g} rank {rank:.4f} "
                    f"off target by > 0.05"))
        if spread == 0:
            # Constant stream: every quantile must be the value itself.
            actual = np.asarray(estimates, dtype=np.float64)
            expected = np.full(len(qs), float(ordered[0]))
        else:
            actual = np.asarray(
                [empirical_rank(ordered, v) for v in estimates],
                dtype=np.float64)
            expected = np.asarray([q / 100.0 for q in qs], dtype=np.float64)
        return {"actual": actual, "expected": expected,
                "violations": violations}

    return [
        OracleSpec(
            name="serving.quantile_sketch_rank",
            family="serving",
            run=run,
            contracts={DType.FP32: SKETCH_RANK, DType.FP16: SKETCH_RANK},
            description="streaming QuantileSketch p50/p95/p99 vs exact "
                        "empirical CDF ranks on adversarial streams",
        ),
    ]
