"""Tests for the streaming quantile sketch.

The sketch's contract (see ``docs/performance.md``): deterministic,
mergeable, bounded memory, exact count/min/max, and percentile answers
whose *rank* error stays small — especially at the tails, where the
arcsine scale function concentrates resolution.
"""

import numpy as np
import pytest

from repro.common.errors import MetricsError
from repro.serving import QuantileSketch
from repro.serving.sketch import SKETCH_COMPRESSION


def empirical_rank(ordered: np.ndarray, value: float) -> float:
    """Mid-rank of ``value`` in a sorted sample, in [0, 1]."""
    lo = np.searchsorted(ordered, value, side="left")
    hi = np.searchsorted(ordered, value, side="right")
    return float((lo + hi) / 2.0 / len(ordered))


def streams():
    rng = np.random.default_rng(11)
    n = 50_000
    low = np.abs(rng.normal(0.05, 0.01, size=n // 2))
    high = np.abs(rng.normal(5.0, 0.5, size=n - n // 2))
    bimodal = np.concatenate([low, high])
    rng.shuffle(bimodal)
    return {
        "uniform": rng.uniform(0.0, 10.0, size=n),
        "lognormal": rng.lognormal(mean=-2.0, sigma=1.0, size=n),
        "bimodal": bimodal,
        "pareto": rng.pareto(1.5, size=n) + 1e-3,
    }


class TestRankError:
    @pytest.mark.parametrize("name", ["uniform", "lognormal", "bimodal",
                                      "pareto"])
    def test_p50_p95_p99_within_rank_budget(self, name):
        values = streams()[name]
        sketch = QuantileSketch()
        sketch.extend(values)
        ordered = np.sort(values)
        # The arcsine scale tightens toward the tails: budget the
        # median loosely and the tail percentiles hard.
        for q, budget in ((50.0, 0.02), (95.0, 0.01), (99.0, 0.005)):
            rank = empirical_rank(ordered, sketch.quantile(q))
            assert abs(rank - q / 100.0) <= budget, (
                f"{name}: p{q:g} rank {rank:.4f} off by more than {budget}")

    def test_constant_stream_is_exact(self):
        sketch = QuantileSketch()
        sketch.extend([0.125] * 10_000)
        for q in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert sketch.quantile(q) == 0.125

    def test_quantiles_nondecreasing(self):
        values = streams()["pareto"]
        sketch = QuantileSketch()
        sketch.extend(values)
        answers = sketch.quantiles(np.linspace(0, 100, 101))
        assert all(b >= a for a, b in zip(answers, answers[1:]))


class TestExactness:
    def test_count_min_max_exact(self):
        values = streams()["lognormal"]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.count == len(values) == len(sketch)
        assert sketch.min == float(values.min())
        assert sketch.max == float(values.max())

    def test_extremes_anchor_p0_p100(self):
        values = streams()["uniform"]
        sketch = QuantileSketch()
        sketch.extend(values)
        assert sketch.quantile(0.0) == float(values.min())
        assert sketch.quantile(100.0) == float(values.max())

    def test_empty_sketch(self):
        sketch = QuantileSketch()
        assert sketch.count == 0
        assert sketch.quantile(50.0) == 0.0
        assert sketch.min == 0.0 and sketch.max == 0.0

    def test_rejects_non_finite_and_bad_rank(self):
        sketch = QuantileSketch()
        with pytest.raises(MetricsError):
            sketch.add(float("nan"))
        with pytest.raises(MetricsError):
            sketch.add(float("inf"))
        sketch.add(1.0)
        with pytest.raises(MetricsError):
            sketch.quantile(101.0)


class TestDeterminismAndMerge:
    def test_same_stream_same_answers(self):
        values = streams()["bimodal"]
        a, b = QuantileSketch(), QuantileSketch()
        a.extend(values)
        b.extend(values)
        assert a.quantiles((50, 95, 99)) == b.quantiles((50, 95, 99))

    def test_merge_in_fixed_order_is_deterministic(self):
        values = streams()["uniform"]
        shards = np.array_split(values, 4)

        def merged():
            parts = []
            for shard in shards:
                sketch = QuantileSketch()
                sketch.extend(shard)
                parts.append(sketch)
            out = QuantileSketch()
            for part in parts:
                out.merge(part)
            return out

        first, second = merged(), merged()
        assert first.count == second.count == len(values)
        assert first.quantiles((50, 95, 99)) == second.quantiles((50, 95, 99))

    def test_merged_answers_match_whole_stream_ranks(self):
        values = streams()["pareto"]
        ordered = np.sort(values)
        half = len(values) // 2
        left, right = QuantileSketch(), QuantileSketch()
        left.extend(values[:half])
        right.extend(values[half:])
        left.merge(right)
        assert left.count == len(values)
        assert left.min == float(values.min())
        assert left.max == float(values.max())
        for q, budget in ((50.0, 0.02), (95.0, 0.01), (99.0, 0.01)):
            rank = empirical_rank(ordered, left.quantile(q))
            assert abs(rank - q / 100.0) <= budget

    def test_merge_empty_is_noop(self):
        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        before = sketch.quantiles((50, 95, 99))
        sketch.merge(QuantileSketch())
        assert sketch.count == 3
        assert sketch.quantiles((50, 95, 99)) == before

    def test_merge_into_empty_adopts_the_shard(self):
        """The sharded-cluster edge case: the parent's accumulator is
        empty and the first worker shard merges into it."""
        shard = QuantileSketch()
        shard.extend([4.0, 8.0, 2.0])
        out = QuantileSketch()
        out.merge(shard)
        assert out.count == 3
        assert out.min == 2.0 and out.max == 8.0
        assert out.quantiles((50, 95, 99)) == shard.quantiles(
            (50, 95, 99))

    def test_merge_of_two_empty_sketches_stays_empty(self):
        out = QuantileSketch()
        out.merge(QuantileSketch())
        assert out.count == 0
        assert out.quantile(50.0) == 0.0

    def test_single_element_shards_merge_exactly(self):
        """Replicas that finished exactly one request each: the merged
        sketch must reproduce the tiny population's exact order
        statistics, including duplicates."""
        values = [0.25, 4.0, 1.0, 1.0]
        out = QuantileSketch()
        for value in values:
            shard = QuantileSketch()
            shard.add(value)
            assert shard.count == 1
            assert shard.quantile(50.0) == value
            out.merge(shard)
        assert out.count == len(values)
        assert out.min == 0.25 and out.max == 4.0
        assert out.quantile(0.0) == 0.25
        assert out.quantile(100.0) == 4.0
        assert out.quantile(50.0) == pytest.approx(1.0)

    def test_merge_at_flush_boundary_matches_streaming_exactly(self):
        """Regression: merging a shard into a sketch sitting exactly at
        a flush boundary must produce the same centroid layout — not
        just the same quantile answers — as streaming every value into
        one sketch in order.  The old merge path re-binned the already
        flushed buffer a second time, which drifted the layout."""
        rng = np.random.default_rng(17)
        boundary = QuantileSketch().buffer_size
        head = rng.exponential(size=boundary)
        tail = rng.exponential(size=37)

        streamed = QuantileSketch()
        streamed.extend(head)
        streamed.extend(tail)

        left = QuantileSketch()
        left.extend(head)  # exactly one full buffer: flushes here
        assert not left._buffer
        right = QuantileSketch()
        right.extend(tail)
        left.merge(right)

        assert left.count == streamed.count
        left.flush()
        streamed.flush()
        assert np.array_equal(left._means, streamed._means)
        assert np.array_equal(left._weights, streamed._weights)

    def test_single_element_merge_matches_direct_stream(self):
        rng = np.random.default_rng(11)
        values = rng.exponential(size=64)
        direct = QuantileSketch()
        direct.extend(values)
        merged = QuantileSketch()
        for value in values:
            shard = QuantileSketch()
            shard.add(float(value))
            merged.merge(shard)
        assert merged.count == direct.count
        assert merged.min == direct.min
        assert merged.max == direct.max
        ordered = np.sort(values)
        for q in (50.0, 95.0, 99.0):
            rank = empirical_rank(ordered, merged.quantile(q))
            assert abs(rank - q / 100.0) <= 0.03


class TestBoundedMemory:
    def test_centroids_bounded_regardless_of_stream_length(self):
        sketch = QuantileSketch()
        rng = np.random.default_rng(3)
        sketch.extend(rng.uniform(size=200_000))
        assert sketch.centroid_count <= SKETCH_COMPRESSION

    def test_compression_trades_memory_for_accuracy(self):
        coarse = QuantileSketch(compression=25)
        fine = QuantileSketch(compression=400)
        rng = np.random.default_rng(5)
        values = rng.uniform(size=50_000)
        coarse.extend(values)
        fine.extend(values)
        assert coarse.centroid_count < fine.centroid_count


class TestOracleRegistration:
    def test_sketch_oracle_registered_in_serving_family(self):
        from repro.verify.oracles import default_registry

        registry = default_registry()
        assert "serving.quantile_sketch_rank" in registry.names()
        oracle = registry.get("serving.quantile_sketch_rank")
        assert oracle.family == "serving"
