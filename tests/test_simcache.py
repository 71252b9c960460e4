"""Simulation-cache correctness: hits, invalidation, and cached values
against the uncached computations."""

import functools

import pytest

from repro.common.errors import DeviceError
from repro.gpu import simcache
from repro.gpu.costmodel import _time_kernel_uncached, time_kernel
from repro.gpu.specs import get_gpu
from repro.kernels.matmul import MatMulKernel
from repro.models.config import all_models
from repro.models.runtime import InferenceSession
from repro.workloads import DatasetBenchmark, SyntheticTriviaQA


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Each test starts with empty caches."""
    simcache.invalidate()
    yield
    simcache.invalidate()


def _disable(monkeypatch):
    """Make both caches miss every lookup and store nothing, so every
    value is computed uncached: the differential reference."""
    for cache in (simcache.kernel_cache, simcache.simulate_cache):
        monkeypatch.setattr(cache, "get", lambda key, default=None: default)
        monkeypatch.setattr(cache, "put", lambda key, value: None)


def _fig9a_point(model, plan):
    result = InferenceSession(model, seq_len=1024, plan=plan).simulate()
    return (result.total_time, result.total_dram_bytes,
            result.offchip_energy)


def _triviaqa_driver():
    dataset = SyntheticTriviaQA(num_documents=16, seed=7)
    report = DatasetBenchmark(dataset, "bigbird-large", plan="sdf",
                              max_seq_len=1024).run()
    return report.bucket_latency


def _launch():
    return MatMulKernel(batch=4, m=256, n=256, k=64).launch_spec(
        get_gpu("A100")
    )


class TestKernelCache:
    def test_hit_returns_equal_timing(self):
        spec = get_gpu("A100")
        launch = _launch()
        first = time_kernel(spec, launch)
        second = time_kernel(spec, launch)
        assert first == second
        stats = simcache.stats()["kernel"]
        assert stats.hits >= 1 and stats.misses >= 1

    def test_distinct_keys_miss(self):
        launch = _launch()
        time_kernel(get_gpu("A100"), launch)
        before = simcache.stats()["kernel"].misses
        time_kernel(get_gpu("T4"), launch)
        assert simcache.stats()["kernel"].misses == before + 1

    def test_disabled_matches_enabled(self):
        spec, launch = get_gpu("A100"), _launch()
        cold, warm = time_kernel(spec, launch), time_kernel(spec, launch)
        assert cold == warm == _time_kernel_uncached(spec, launch)


class TestSimulateCache:
    def test_hit_returns_same_object(self):
        session = InferenceSession("bert-large", seq_len=512)
        first = session.simulate()
        second = InferenceSession("bert-large", seq_len=512).simulate()
        assert second is first

    def test_cached_result_is_frozen(self):
        result = InferenceSession("bert-large", seq_len=512).simulate()
        assert result.profile.frozen
        with pytest.raises(DeviceError):
            result.profile.extend(result.profile)
        for _, _, group in result.layer_groups:
            assert group.frozen

    def test_key_sensitivity(self):
        a = InferenceSession("bert-large", seq_len=512).simulate()
        b = InferenceSession("bert-large", seq_len=1024).simulate()
        c = InferenceSession("bert-large", seq_len=512, plan="sdf").simulate()
        assert a is not b and a is not c
        assert simcache.stats()["simulate"].misses == 3

    def test_invalidate_clears(self):
        InferenceSession("bert-large", seq_len=512).simulate()
        assert len(simcache.simulate_cache) == 1
        simcache.invalidate()
        assert len(simcache.simulate_cache) == 0
        assert simcache.stats()["simulate"].lookups == 0

    def test_disabled_returns_fresh_unfrozen(self):
        cached = InferenceSession("bert-large", seq_len=512).simulate()
        fresh = InferenceSession("bert-large",
                                 seq_len=512)._simulate_uncached()
        assert fresh is not cached
        assert not fresh.profile.frozen
        assert fresh.total_time == cached.total_time
        assert fresh.total_dram_bytes == cached.total_dram_bytes

    @pytest.mark.parametrize("workload", [
        *(pytest.param(functools.partial(_fig9a_point, model.name, plan),
                       id=f"{model.name}-{plan}")
          for model in all_models() for plan in ("baseline", "sdf")),
        pytest.param(_triviaqa_driver, id="triviaqa-driver"),
    ])
    def test_disabled_values_match_enabled(self, monkeypatch, workload):
        """Caches off, cold and warm give the same values to the last
        ulp on the Fig. 9(a) grid and the dataset driver."""
        with monkeypatch.context() as patch:
            _disable(patch)
            off = workload()
        assert len(simcache.kernel_cache) == len(simcache.simulate_cache) == 0
        cold, warm = workload(), workload()
        assert off == cold == warm


class TestSentinel:
    """``SimCache.get`` must distinguish absence from cached falsy
    values with its private sentinel, never with ``None`` comparison."""

    def test_cached_none_is_a_hit(self):
        cache = simcache.SimCache("falsy")
        cache.put("k", None)
        assert cache.get("k", simcache.MISSING) is None
        assert cache.stats.hits == 1 and cache.stats.misses == 0

    @pytest.mark.parametrize("value", [None, 0, 0.0, "", [], {}, False])
    def test_cached_falsy_values_round_trip(self, value):
        cache = simcache.SimCache("falsy")
        cache.put("k", value)
        got = cache.get("k", simcache.MISSING)
        assert got is not simcache.MISSING
        assert got == value
        assert cache.stats.hits == 1

    def test_absent_key_returns_default(self):
        cache = simcache.SimCache("falsy")
        assert cache.get("k") is None
        assert cache.get("k", simcache.MISSING) is simcache.MISSING
        assert cache.get("k", 42) == 42
        assert cache.stats.misses == 3 and cache.stats.hits == 0


class TestStats:
    def test_hit_rate(self):
        spec, launch = get_gpu("A100"), _launch()
        time_kernel(spec, launch)
        time_kernel(spec, launch)
        time_kernel(spec, launch)
        stats = simcache.stats()["kernel"]
        assert stats.lookups == stats.hits + stats.misses
        assert stats.hit_rate == pytest.approx(2 / 3)

    def test_empty_cache_rate_zero(self):
        assert simcache.stats()["simulate"].hit_rate == 0.0
