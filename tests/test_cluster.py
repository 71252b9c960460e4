"""Tests for the cluster-scale serving simulator.

Covers the collective-cost API (ring/tree all-reduce identities), the
sharded step-cost model (communication charged, compute sharded,
per-GPU memory relieved), the routing policies (determinism, request
conservation, prefix colocation), and the report schema contract.
"""

import json
import math

import pytest

from repro.cluster import (
    ClusterSimulator,
    LeastOutstandingPolicy,
    POLICIES,
    PrefixAffinityPolicy,
    Replica,
    RoundRobinPolicy,
    ShardedStepCostModel,
    make_policy,
    simulate_cluster,
)
from repro.common.errors import ConfigError, ServingError
from repro.gpu.interconnect import (
    NVLINK3,
    PCIE4,
    allgather_time,
    allreduce_time,
    point_to_point_time,
    reduce_scatter_time,
)
from repro.gpu.specs import get_gpu
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig
from repro.models.footprint import weight_bytes
from repro.serving.config import EngineConfig
from repro.serving.costmodel import StepCostModel
from repro.serving.memory import KVBlockManager
from repro.serving.requests import Request, ServingWorkload

TINY = ModelConfig(
    "tiny-cluster", num_layers=2, d_model=128, num_heads=4, d_ff=256,
    attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
)


def tiny_requests(n=6, prompt=128, output=4, gap=0.05, groups=None):
    return [
        Request(request_id=i, arrival_time=i * gap, prompt_len=prompt,
                output_len=output,
                prefix_group=None if groups is None else groups[i])
        for i in range(n)
    ]


class TestCollectives:
    def test_ring_is_reduce_scatter_plus_allgather(self):
        for spec in (NVLINK3, PCIE4):
            for n in (2, 3, 4, 8):
                nbytes = 1 << 20
                assert allreduce_time(spec, nbytes, n) == (
                    reduce_scatter_time(spec, nbytes, n)
                    + allgather_time(spec, nbytes, n)
                )

    def test_single_gpu_is_free(self):
        for fn in (reduce_scatter_time, allgather_time):
            assert fn(NVLINK3, 1 << 20, 1) == 0.0
        for algorithm in ("ring", "tree"):
            assert allreduce_time(NVLINK3, 1 << 20, 1,
                                  algorithm=algorithm) == 0.0

    def test_tree_formula(self):
        nbytes, n = 1 << 22, 8
        expected = (2.0 * nbytes / NVLINK3.link_bandwidth
                    + 2 * math.ceil(math.log2(n)) * NVLINK3.hop_latency)
        assert allreduce_time(NVLINK3, nbytes, n,
                              algorithm="tree") == pytest.approx(expected)

    def test_point_to_point(self):
        nbytes = 1 << 20
        assert point_to_point_time(NVLINK3, nbytes) == pytest.approx(
            nbytes / NVLINK3.link_bandwidth + NVLINK3.hop_latency)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError):
            allreduce_time(NVLINK3, 1024, 4, algorithm="butterfly")


class TestShardedStepCostModel:
    def test_tp1_pp1_matches_single_gpu_model(self):
        base = StepCostModel(TINY, "t4", plan="sdf")
        sharded = ShardedStepCostModel(TINY, "t4", plan="sdf")
        kwargs = dict(prefill=[(128, 128)], decode_kv=[64, 192])
        total, comm = sharded.step_cost(**kwargs)
        assert comm == 0.0
        assert total == base.step_time(**kwargs)

    def test_tp2_charges_communication(self):
        sharded = ShardedStepCostModel(TINY, "t4", plan="sdf", tp=2)
        total, comm = sharded.step_cost(prefill=[(128, 128)])
        assert comm > 0
        hidden = 128 * TINY.d_model * sharded.dtype.nbytes
        expected = TINY.num_layers * 2 * allreduce_time(NVLINK3, hidden, 2)
        assert comm == pytest.approx(expected)

    def test_pp_boundary_charges_point_to_point(self):
        tp_only = ShardedStepCostModel(TINY, "t4", tp=2, pp=1)
        tp_pp = ShardedStepCostModel(TINY, "t4", tp=2, pp=2)
        hidden = 64 * TINY.d_model * tp_pp.dtype.nbytes
        delta = (tp_pp.comm_time(64) - tp_only.comm_time(64))
        assert delta == pytest.approx(point_to_point_time(NVLINK3, hidden))

    def test_tp2_prefill_compute_is_cheaper(self):
        # A prefill-heavy step on half the heads/FF shard beats the
        # single-GPU step even after paying the all-reduces.
        tp1 = ShardedStepCostModel(TINY, "t4", plan="sdf")
        tp2 = ShardedStepCostModel(TINY, "t4", plan="sdf", tp=2)
        kwargs = dict(prefill=[(2048, 2048)])
        assert tp2.step_time(**kwargs) < tp1.step_time(**kwargs)

    def test_empty_step_is_free(self):
        sharded = ShardedStepCostModel(TINY, "t4", tp=2, pp=2)
        assert sharded.step_cost() == (0.0, 0.0)

    def test_bad_sharding_rejected(self):
        with pytest.raises(ConfigError):
            ShardedStepCostModel(TINY, "t4", tp=3)


class TestGroupMemory:
    def test_kv_capacity_scales_with_group_size(self):
        gpu = get_gpu("t4")
        one = KVBlockManager.for_model(TINY, gpu)
        two = KVBlockManager.for_model(TINY, gpu, n_gpus=2)
        assert two.total_blocks > one.total_blocks

    def test_per_gpu_weights_shard(self):
        gpu = get_gpu("t4")
        tp1 = Replica(0, EngineConfig(TINY, gpu))
        tp2 = Replica(0, EngineConfig(TINY, gpu, tp=2))
        assert tp2.n_gpus == 2
        assert tp2.weight_bytes_per_gpu == pytest.approx(
            tp1.weight_bytes_per_gpu / 2)
        assert tp1.weight_bytes_per_gpu == pytest.approx(
            weight_bytes(TINY, tp1.cost.dtype))


class TestPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinPolicy()
        replicas = [object(), object(), object()]
        chosen = [policy.choose(None, replicas) for _ in range(6)]
        assert chosen == [0, 1, 2, 0, 1, 2]

    def test_least_outstanding_picks_min(self):
        class Fake:
            def __init__(self, load):
                self.outstanding_tokens = load

        policy = LeastOutstandingPolicy()
        assert policy.choose(None, [Fake(5), Fake(2), Fake(9)]) == 1
        # Ties break on the lowest replica id.
        assert policy.choose(None, [Fake(2), Fake(2)]) == 0

    def test_prefix_affinity_colocates(self):
        class Fake:
            outstanding_tokens = 0

        policy = PrefixAffinityPolicy()
        replicas = [Fake(), Fake(), Fake()]
        first = policy.choose(
            Request(request_id=0, arrival_time=0.0, prompt_len=64,
                    output_len=1, prefix_group=7), replicas)
        for i in range(1, 4):
            again = policy.choose(
                Request(request_id=i, arrival_time=0.0, prompt_len=64,
                        output_len=1, prefix_group=7), replicas)
            assert again == first

    def test_registry_and_unknown_policy(self):
        assert set(POLICIES) == {"round-robin", "least-outstanding",
                                 "prefix-affinity"}
        for name in POLICIES:
            assert make_policy(name).name == name
        with pytest.raises(ServingError):
            make_policy("random")


class TestClusterSimulator:
    def test_requests_conserved_across_replicas(self):
        for policy in POLICIES:
            requests = tiny_requests(n=8)
            report = ClusterSimulator(
                TINY, "t4", plan="sdf", requests=requests,
                replicas=3, policy=policy,
            ).run()
            assert report.num_requests == len(requests)
            assert report.finished + report.rejected == report.num_requests
            per_replica = sum(r.report.num_requests
                              for r in report.per_replica)
            assert per_replica == len(requests)

    def test_prefix_affinity_routes_groups_together(self):
        groups = [0, 1, 0, 1, 0, 1, 0, 1]
        # Simultaneous arrivals: the router sees group 0 claim replica
        # 0 (both idle), then group 1's backlog-aware fallback picks
        # replica 1; later arrivals follow their group's home.
        requests = tiny_requests(n=8, gap=0.0, groups=groups)
        report = ClusterSimulator(
            TINY, "t4", requests=requests, replicas=2,
            policy="prefix-affinity",
        ).run()
        # Two groups, two replicas: each group pins to one home, so
        # every replica sees only whole groups (here: exactly one).
        counts = sorted(r.report.num_requests for r in report.per_replica)
        assert counts == [4, 4]

    def test_fixed_seed_is_deterministic(self):
        docs = []
        for _ in range(2):
            report = simulate_cluster(
                TINY, "t4",
                ServingWorkload(rate=4, duration=5, seed=3, prefix_groups=4),
                replicas=2, tp=2, policy="least-outstanding",
            )
            docs.append(json.dumps(report.to_dict(), sort_keys=True))
        assert docs[0] == docs[1]

    def test_aggregate_matches_union_of_replicas(self):
        report = simulate_cluster(
            TINY, "t4", ServingWorkload(rate=4, duration=5, seed=0),
            replicas=2, plans=("sdf",),
        ).plans["sdf"]
        assert report.finished == sum(r.report.finished
                                      for r in report.per_replica)
        assert report.generated_tokens == sum(r.report.generated_tokens
                                              for r in report.per_replica)
        assert report.makespan == max(r.report.makespan
                                      for r in report.per_replica)

    def test_tp_communication_visible_in_report(self):
        report = simulate_cluster(
            TINY, "t4", ServingWorkload(rate=4, duration=5, seed=0),
            replicas=2, tp=2, plans=("sdf",),
        ).plans["sdf"]
        assert report.comm_time_s > 0
        assert 0 < report.comm_fraction < 1
        for replica in report.per_replica:
            assert replica.n_gpus == 2
            assert replica.weight_bytes_per_gpu == pytest.approx(
                weight_bytes(TINY, ShardedStepCostModel(
                    TINY, "t4").dtype) / 2)

    def test_single_replica_matches_serving_simulator_shape(self):
        from repro.serving import ServingSimulator

        requests = tiny_requests(n=4)
        cluster = ClusterSimulator(
            TINY, "t4", plan="sdf", requests=requests, replicas=1,
        ).run()
        single = ServingSimulator(
            TINY, "t4", plan="sdf", requests=requests,
        ).run()
        # One unsharded replica is exactly the single-node simulator.
        replica = cluster.per_replica[0].report
        assert replica.finished == single.finished
        assert replica.steps == single.steps
        assert replica.makespan == pytest.approx(single.makespan)
        assert replica.ttft.p99 == pytest.approx(single.ttft.p99)

    def test_sharded_step_budget_is_per_replica(self, engines):
        from repro.cluster.sharded import ReplicaShard, simulate_shard

        budget = 100
        workload = ServingWorkload(rate=4, duration=5, seed=0)
        sim = ClusterSimulator(TINY, "t4", plan="sdf", replicas=2, jobs=2,
                               max_steps=budget, workload=workload)
        with pytest.raises(ServingError,
                           match=rf"replica 0 exceeded {budget} steps"):
            sim.run()
        # In-process, one shard stops on its first step past the budget.
        shard = ReplicaShard(
            replica_id=1, num_replicas=2, config=sim.config, retain=True,
            max_steps=budget, stream=workload.request_arrays())
        with pytest.raises(ServingError,
                           match=rf"replica 1 exceeded {budget} steps"):
            simulate_shard(shard)
        assert [e.steps for e in engines] == [budget + 1]

    def test_workload_prefix_groups(self):
        stream = ServingWorkload(rate=8, duration=5, seed=0,
                                 prefix_groups=3).requests()
        assert {r.prefix_group for r in stream} <= {0, 1, 2}
        plain = ServingWorkload(rate=8, duration=5, seed=0).requests()
        assert all(r.prefix_group is None for r in plain)
        # Grouping must not perturb arrivals or lengths.
        assert [(r.arrival_time, r.prompt_len, r.output_len)
                for r in stream] == [
            (r.arrival_time, r.prompt_len, r.output_len) for r in plain]

    def test_report_schema(self):
        report = simulate_cluster(
            TINY, "t4", ServingWorkload(rate=4, duration=3, seed=0),
            replicas=2, plans=("sdf",))
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["schema"] == "repro.result/v1"
        assert doc["kind"] == "cluster-report"
        plan = doc["plans"]["sdf"]
        assert plan["kind"] == "cluster-plan"
        for replica in plan["per_replica"]:
            assert replica["kind"] == "cluster-replica"


class TestSharedCostModels:
    """Every consumer of one pricing key shares one step-cost model."""

    DRAFT = ModelConfig(
        "tiny-draft", num_layers=1, d_model=64, num_heads=2, d_ff=128,
        attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
    )

    @staticmethod
    def _sim(**overrides):
        kwargs = dict(plan="sdf", replicas=3, tp=2,
                      workload=ServingWorkload(rate=6, duration=4, seed=2,
                                               prefix_groups=3))
        kwargs.update(overrides)
        return ClusterSimulator(TINY, "t4", **kwargs)

    @staticmethod
    def _doc(report):
        return json.dumps(report.to_dict(), sort_keys=True)

    @staticmethod
    def _models(costs):
        """The priced models of a pool, without its sub-graph prices."""
        from repro.serving.costmodel import SHAPES

        return [model for key, model in costs.items() if key != SHAPES]

    @pytest.mark.parametrize("speculate", (False, True),
                             ids=("plain", "speculative"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_shared_model_matches_one_model_per_replica(
            self, monkeypatch, engines, policy, speculate):
        import repro.cluster.router as router

        spec = dict(draft_model=self.DRAFT, accept_rate=0.5) \
            if speculate else {}
        shared = self._doc(self._sim(policy=policy, **spec).run())
        assert len({id(e.cost) for e in engines}) == 1
        del engines[:]
        monkeypatch.setattr(
            router, "Replica",
            lambda *args, costs, **kwargs: Replica(*args, **kwargs))
        private = self._doc(self._sim(policy=policy, **spec).run())
        assert len({id(e.cost) for e in engines}) == 3
        assert shared == private

    def test_warm_pool_reports_what_a_cold_one_did(self, built):
        cold = self._doc(self._sim().run())
        costs = {}
        sim = self._sim(costs=costs)
        first = self._doc(sim.run())
        models = built(StepCostModel)
        warm = self._doc(sim.run())
        assert models == []
        assert len(self._models(costs)) == 1
        assert cold == first == warm

    def test_one_model_per_run(self, built, engines):
        sharded = built(ShardedStepCostModel)
        plain = built(StepCostModel)
        self._sim().run()
        assert len(sharded) == 1
        assert all(e.cost is sharded[0] for e in engines)
        assert len(engines) == 3
        self._sim(draft_model=self.DRAFT).run()
        assert len(sharded) == 2
        drafts = [m for m in plain if type(m) is StepCostModel]
        assert len(drafts) == 1
        assert all(e.spec_decode.draft_cost is drafts[0]
                   for e in engines[3:])

    def test_engine_knobs_reuse_the_model(self):
        costs = {}
        for overrides in ({}, {"chunk_tokens": 256}, {"max_batch": 4},
                          {"policy": "least-outstanding"},
                          {"policy": "prefix-affinity"}):
            self._sim(costs=costs, **overrides).run()
        assert len(self._models(costs)) == 1
        self._sim(costs=costs, plan="sd").run()
        assert len(self._models(costs)) == 2

    def test_pricing_key_covers_every_constructor_field(self, monkeypatch):
        """Changing any one constructor argument prices through a
        distinct model, which re-prices exactly the terms whose
        sub-graph reads that argument and prices every step as a
        private model does.  The field list comes from the signature,
        so a new pricing field without an entry here fails the test."""
        import inspect

        from repro.common.dtypes import DType
        from repro.core.plan import AttentionPlan
        from repro.models.moe import MoEConfig
        from repro.serving.costmodel import shared_cost_model

        moe = MoEConfig.from_dense(TINY, n_experts=4, top_k=2)
        base = dict(model=moe, gpu=get_gpu("a100"),
                    plan=AttentionPlan.DECOMPOSED, dtype=DType.FP16, t=64,
                    kv_bucket=64, tp=1, pp=1, ep=1, interconnect=NVLINK3,
                    algorithm="ring")
        changed = dict(model=MoEConfig.from_dense(TINY, n_experts=4,
                                                  top_k=1),
                       gpu=get_gpu("t4"),
                       plan=AttentionPlan.RECOMPOSED, dtype=DType.FP32,
                       t=32, kv_bucket=128, tp=2, pp=2, ep=2,
                       interconnect=PCIE4, algorithm="tree")
        #: Field -> whether changing it re-prices the (MLP, prefill
        #: attention, decode attention) terms of the steps below.  The
        #: decode KV of 100 buckets to 128 under both ``kv_bucket``s.
        reprices = dict(
            model=(True, True, True), gpu=(True, True, True),
            plan=(False, True, False), dtype=(True, True, True),
            t=(False, True, False), kv_bucket=(False, False, False),
            tp=(True, True, True), pp=(False, False, False),
            ep=(True, False, False), interconnect=(False, False, False),
            algorithm=(False, False, False))
        fields = inspect.signature(ShardedStepCostModel).parameters
        assert set(changed) == set(base) == set(reprices) == set(fields)

        calls = []
        simulate = StepCostModel._simulate

        def counted(self, kernels):
            calls.append(self)
            return simulate(self, kernels)

        monkeypatch.setattr(StepCostModel, "_simulate", counted)

        def build(costs, **args):
            args = dict(args)
            return shared_cost_model(costs, ShardedStepCostModel,
                                     args.pop("model"), args.pop("gpu"),
                                     **args)

        def priced(costs, **args):
            """A model drawn from ``costs`` and whether it simulates
            the (MLP, prefill attention, decode attention) terms of a
            prefill and a decode step itself; its prices must equal a
            private model's."""
            model = build(costs, **args)
            start = len(calls)
            prefill_cost = model.step_cost(prefill=[(64, 128)])
            _, prefill = model.cache_sizes()
            decode_cost = model.decode_step_cost([100])
            mlp, attention = model.cache_sizes()
            assert len(calls) - start == mlp + attention
            private = build(None, **args)
            assert prefill_cost == private.step_cost(prefill=[(64, 128)])
            assert decode_cost == private.decode_step_cost([100])
            return model, (mlp > 0, prefill > 0, attention > prefill)

        costs = {}
        reference, _ = priced(costs, **base)
        assert build(costs, **base) is reference
        for name, value in changed.items():
            model, terms = priced(costs, **{**base, name: value})
            assert model is not reference, name
            assert getattr(model, name) == value, name
            assert terms == reprices[name], name
        assert len(self._models(costs)) == 1 + len(changed)
        # The baseline graph reads no ``t``.
        baseline = {**base, "plan": AttentionPlan.BASELINE}
        assert priced(costs, **baseline)[1] == (False, True, False)
        assert priced(costs, **{**baseline, "t": 32})[1] \
            == (False, False, False)
        # Defaults are part of the key: spelling one out shares.
        assert shared_cost_model(costs, ShardedStepCostModel, moe,
                                 get_gpu("a100"),
                                 plan=AttentionPlan.DECOMPOSED) \
            is reference
        # Without a pool every call builds a private model.
        assert build(None, **base) is not build(None, **base)

    @pytest.mark.parametrize("name", ("bert-large", "gpt-neo-1.3b"))
    def test_pooled_prices_equal_private_ones(self, name):
        """Every model of one pool — each paper plan, ``t``, TP and PP
        degree — prices random prefill, decode and (GPT-Neo's local
        layers) windowed steps exactly as a private model does, though
        most of its terms were priced by a pool-mate."""
        import itertools

        import numpy as np

        from repro.core.autotune import PAPER_CANDIDATES
        from repro.serving.costmodel import shared_cost_model

        rng = np.random.default_rng(0)

        def shapes(n):
            """``n`` random prefill chunks and decode KV lengths."""
            return ([(int(m), int(m + rng.integers(0, 700)))
                     for m in rng.integers(2, 300, size=n)],
                    [int(kv) for kv in rng.integers(1, 2049, size=n)])

        # Every model prices the common shapes plus a fresh one of each.
        common = shapes(2)
        costs, shared = {}, 0
        for plan, t, tp, pp in itertools.product(
                PAPER_CANDIDATES, (32, 64, 128), (1, 2), (1, 2)):
            prefill, decode_kv = (a + b for a, b in zip(common, shapes(1)))
            fields = dict(plan=plan, t=t, tp=tp, pp=pp)
            pooled = shared_cost_model(costs, ShardedStepCostModel, name,
                                       "a100", **fields)
            private = ShardedStepCostModel(name, "a100", **fields)
            for step in ({"prefill": prefill}, {"decode_kv": decode_kv},
                         {"prefill": prefill, "decode_kv": decode_kv}):
                assert pooled.step_cost(**step) \
                    == private.step_cost(**step), (fields, step)
            assert pooled.decode_step_cost(decode_kv) \
                == private.decode_step_cost(decode_kv), fields
            shared += sum(private.cache_sizes()) - sum(pooled.cache_sizes())
        assert shared > 0
