"""Serving and cluster reports of small fixed-seed runs, pinned.

Each case below builds one report and stores the sha256 of its
sorted-key JSON (``PlanReport.to_json()`` for serving,
``ClusterReport.to_dict()`` for cluster runs) in
``tests/golden/report_digests.json``.  The cases cover both engines,
exact and streaming (``latency_cutover=0``) percentiles, preemption,
rejection, speculative decoding, sharded cluster runs, the routing
policies and traced runs, so any change to what a report builder
computes shows up here.

The module also pins what the report builder assumes: in retained
mode the engine's counters equal the counts derived from the request
list, retained and streaming outcomes never mix, and folding one
latency accumulator into an empty one changes none of its statistics.

Regenerate only when a report change is intended, and review why::

    PYTHONPATH=src python tests/test_report_golden.py
"""

import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.cluster import ClusterSimulator, simulate_cluster
from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.gpu import simcache
from repro.gpu.specs import GPUSpec, get_gpu
from repro.models.config import get_model
from repro.models.footprint import weight_bytes
from repro.obs import Tracer, tracing
from repro.serving.config import EngineConfig
from repro.serving.metrics import LatencyAccumulator
from repro.serving.requests import ServingWorkload
from repro.serving.simulator import ServingSimulator

GOLDEN = pathlib.Path(__file__).parent / "golden" / "report_digests.json"
REGENERATE = "PYTHONPATH=src python tests/test_report_golden.py"

#: Percentile modes: exact below the default cutover, sketch-based when
#: the cutover is forced to zero.
MODES = (("exact", {}), ("stream", {"latency_cutover": 0}))


def tiny_gpu(blocks: int) -> GPUSpec:
    """An A100 whose KV pool holds ``blocks`` 64-token blocks of
    bert-large, with no reserve."""
    model = get_model("bert-large")
    bytes_per_token = 2 * model.num_layers * model.d_model * 2
    hbm = blocks * 64 * bytes_per_token + weight_bytes(model, DType.FP16)
    return dataclasses.replace(get_gpu("a100"), hbm_bytes=hbm + 1)


def serving_sim(*, gpu="a100", engine="epoch", rate=4.0, duration=3.0,
                seed=0, workload_kwargs=None, **kwargs) -> ServingSimulator:
    workload = ServingWorkload(rate=rate, duration=duration, seed=seed,
                               **(workload_kwargs or {}))
    return ServingSimulator("bert-large", gpu, plan="sdf",
                            workload=workload, engine=engine, **kwargs)


def preempting_sim(**kwargs) -> ServingSimulator:
    """Tight memory and long outputs: evict-and-recompute happens."""
    return serving_sim(gpu=tiny_gpu(32), rate=8.0, duration=4.0, seed=3,
                       workload_kwargs={"max_prompt": 1024,
                                        "mean_output": 128},
                       max_batch=4, reserve_fraction=0.0, **kwargs)


def rejecting_sim(**kwargs) -> ServingSimulator:
    """The two requests longer than the whole KV pool are rejected on
    arrival; the other ten finish."""
    return serving_sim(gpu=tiny_gpu(65), rate=6.0, duration=3.0, seed=1,
                       reserve_fraction=0.0, **kwargs)


def large_workload() -> ServingWorkload:
    """2,546 short requests: well past one sketch buffer (1,024 values)
    per replica, so streaming merges see centroids, not just buffers."""
    return ServingWorkload(rate=400.0, duration=6.0, seed=4,
                           max_prompt=128, mean_output=8)


def serving_digest(build) -> str:
    return _sha(build().run().to_json())


def cluster_digest(*, duration=3.0, **kwargs) -> str:
    defaults = dict(replicas=3, plans=("baseline", "sdf"))
    defaults.update(kwargs)
    workload = ServingWorkload(rate=6.0, duration=duration, seed=3)
    return _sha(simulate_cluster("bert-large", "a100", workload,
                                 **defaults).to_dict())


def traced(digest_fn, *args, **kwargs) -> str:
    simcache.invalidate()
    try:
        with tracing(Tracer()):
            return digest_fn(*args, **kwargs)
    finally:
        simcache.invalidate()


def _sha(doc) -> str:
    canonical = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def _serving_cases():
    cases = {}
    for engine in ("epoch", "event"):
        for mode, cutover in MODES:
            cases[f"serving-{engine}-{mode}"] = (
                lambda e=engine, c=cutover: serving_digest(
                    lambda: serving_sim(engine=e, **c)))
            cases[f"serving-preempt-{engine}-{mode}"] = (
                lambda e=engine, c=cutover: serving_digest(
                    lambda: preempting_sim(engine=e, **c)))
            cases[f"serving-reject-{engine}-{mode}"] = (
                lambda e=engine, c=cutover: serving_digest(
                    lambda: rejecting_sim(engine=e, **c)))
    for mode, cutover in MODES:
        cases[f"serving-spec-{mode}"] = lambda c=cutover: serving_digest(
            lambda: serving_sim(draft_model="gpt-neo-1.3b", draft_len=3,
                                accept_rate=0.75, **c))
    cases["serving-stream-large"] = lambda: serving_digest(
        lambda: ServingSimulator("bert-large", "a100", plan="sdf",
                                 workload=large_workload(),
                                 latency_cutover=0))
    cases["serving-traced"] = lambda: traced(
        serving_digest, lambda: serving_sim(duration=2.0))
    return cases


def _cluster_cases():
    cases = {}
    for mode, cutover in MODES:
        for jobs in (1, 2):
            cases[f"cluster-{mode}-jobs{jobs}"] = (
                lambda c=cutover, j=jobs: cluster_digest(jobs=j, **c))
        for policy in ("round-robin", "least-outstanding"):
            cases[f"cluster-tp2-{policy}-{mode}"] = (
                lambda c=cutover, p=policy: cluster_digest(
                    replicas=2, tp=2, policy=p, **c))
    for jobs in (1, 2):
        cases[f"cluster-stream-large-jobs{jobs}"] = lambda j=jobs: _sha(
            ClusterSimulator("bert-large", "a100", plan="sdf", replicas=2,
                             workload=large_workload(), latency_cutover=0,
                             jobs=j).run().to_dict())
    cases["cluster-event-stream"] = lambda: cluster_digest(
        engine="event", latency_cutover=0)
    cases["cluster-traced"] = lambda: traced(
        cluster_digest, policy="least-outstanding", duration=2.0)
    return cases


#: Case name -> zero-argument function returning the report's digest.
CASES = {**_serving_cases(), **_cluster_cases()}


def test_report_digests_match_golden():
    golden = json.loads(GOLDEN.read_text())["cases"]
    assert sorted(golden) == sorted(CASES)
    mismatched = [name for name in sorted(CASES)
                  if CASES[name]() != golden[name]]
    assert not mismatched, f"report digests changed: {mismatched}"


class TestBuilderInvariants:
    @pytest.mark.parametrize("build", [preempting_sim, rejecting_sim],
                             ids=["preempting", "rejecting"])
    def test_counters_equal_list_counts(self, build):
        sim = build()
        report = sim.run()
        requests = sim.retained
        done = [r for r in requests if r.finish_time is not None]
        assert requests, "retained mode keeps the request list"
        assert report.finished == len(done)
        assert report.rejected == len(requests) - len(done)
        assert report.generated_tokens == sum(r.generated for r in done)
        assert report.preempted_requests == sum(
            1 for r in done if r.preemptions)
        assert report.num_requests == report.finished + report.rejected
        assert report.num_requests == len(requests)

    def test_streams_exercise_preemption_and_rejection(self):
        assert preempting_sim().run().preemption_events > 0
        assert rejecting_sim().run().rejected > 0

    def test_mixed_retained_and_streaming_outcomes_rejected(self):
        from repro.cluster.metrics import ClusterPlanReport
        from repro.cluster.replica import Replica

        workload = ServingWorkload(rate=4.0, duration=1.0, seed=0)
        outcomes = []
        for replica_id, retain in enumerate((True, False)):
            replica = Replica(replica_id,
                              EngineConfig("bert-large", "a100", "sdf"),
                              retain_requests=retain)
            for request in workload.requests()[replica_id::2]:
                replica.submit(request, request.arrival_time)
            while replica.advance():
                pass
            outcomes.append(replica.outcome())
        with pytest.raises(ServingError, match="mix of retained"):
            ClusterPlanReport.from_outcomes("sdf", "round-robin", outcomes)

    @pytest.mark.parametrize("n", [500, 20_000])
    def test_merge_into_empty_accumulator_keeps_stats(self, n):
        values = np.random.default_rng(n).lognormal(0.0, 1.0, n)
        source = LatencyAccumulator()
        for value in values:
            source.add(float(value))
        merged = LatencyAccumulator()
        merged.merge(source)
        assert merged.count == source.count
        assert merged.stats() == source.stats()

    def test_merge_ignores_whether_source_was_queried(self):
        # A cluster report merges replica accumulators that their own
        # per-replica reports may or may not have queried already.
        rng = np.random.default_rng(3)

        def filled(values):
            acc = LatencyAccumulator()
            for value in values:
                acc.add(float(value))
            return acc

        head, tail = rng.exponential(1.0, 1500), rng.exponential(2.0, 1500)
        queried = filled(tail)
        queried.stats()
        merged = []
        for shard in (queried, filled(tail)):
            out = LatencyAccumulator()
            out.merge(filled(head))
            out.merge(shard)
            merged.append(out.stats())
        assert merged[0] == merged[1]


if __name__ == "__main__":
    document = {
        "generated_by": REGENERATE,
        "cases": {name: CASES[name]() for name in sorted(CASES)},
    }
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
