"""Mixture-of-experts layers and speculative decoding.

The two subsystems share one contract with the rest of the stack:
*disabled is byte-identical*.  ``n_experts=1, top_k=1`` prices as the
dense model, ``draft_model=None`` takes the historical single-token
decode path, and the oracles (``moe.router_conservation``,
``serving.spec_decode_equivalence``) pin the enabled behaviour.
"""

import numpy as np
import pytest

from repro.common.dtypes import DType
from repro.common.errors import ConfigError, ServingError
from repro.core.plansource import PlanSource
from repro.models.config import ModelConfig, get_model
from repro.models.moe import (
    MIXTRAL_MOE,
    MoEConfig,
    check_ep_shards,
    expert_token_counts,
    moe_ffn_kernels,
    moe_overrides,
    route_tokens,
    routed_bytes,
)
from repro.serving.requests import Request
from repro.serving.simulator import ServingSimulator
from repro.serving.specdecode import SpecDecodeConfig


def tiny_causal(name="tiny-causal"):
    from repro.models.config import AttentionKind, AttentionSpec

    return ModelConfig(
        name, num_layers=2, d_model=128, num_heads=4, d_ff=256,
        attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
    )


class TestMoEConfig:
    def test_mixtral_registered(self):
        assert get_model("mixtral") is MIXTRAL_MOE
        assert get_model("mixtral-moe") is MIXTRAL_MOE
        assert MIXTRAL_MOE.is_moe

    def test_top_k_bounded_by_experts(self):
        with pytest.raises(ConfigError, match="top_k"):
            MoEConfig.from_dense(tiny_causal(), n_experts=4, top_k=8)

    def test_capacity_factor_floor(self):
        with pytest.raises(ConfigError, match="capacity_factor"):
            MoEConfig.from_dense(tiny_causal(), n_experts=4, top_k=2,
                                 capacity_factor=0.5)

    def test_degenerate_keeps_dense_name(self):
        dense = tiny_causal()
        degenerate = MoEConfig.from_dense(dense, n_experts=1, top_k=1)
        assert degenerate.name == dense.name
        assert not degenerate.is_moe
        moe = MoEConfig.from_dense(dense, n_experts=8, top_k=2)
        assert moe.name == "tiny-causal-8x2moe"

    def test_overrides_identity_for_dense(self):
        dense = tiny_causal()
        assert moe_overrides(dense, n_experts=1, top_k=1) is dense

    def test_overrides_collapse_moe_back_to_dense_pricing(self):
        collapsed = moe_overrides(MIXTRAL_MOE, n_experts=1, top_k=1)
        assert isinstance(collapsed, MoEConfig)
        assert not collapsed.is_moe


class TestRouting:
    def config(self, n_experts=8, top_k=2, capacity_factor=1.25):
        return MoEConfig.from_dense(tiny_causal(), n_experts=n_experts,
                                    top_k=top_k,
                                    capacity_factor=capacity_factor)

    def test_priced_counts_conserve_and_balance(self):
        config = self.config()
        counts = expert_token_counts(config, 100)
        assert sum(counts) == 100 * config.top_k
        assert max(counts) - min(counts) <= 1
        assert max(counts) <= config.expert_capacity(100)

    def test_random_routing_is_seed_deterministic(self):
        config = self.config()
        a, dropped_a = route_tokens(config, 64, seed=3)
        b, dropped_b = route_tokens(config, 64, seed=3)
        assert np.array_equal(a, b) and dropped_a == dropped_b

    def test_random_routing_conserves_slots(self):
        config = self.config(capacity_factor=1.0)
        assignments, dropped = route_tokens(config, 97, seed=1)
        kept = int((assignments >= 0).sum())
        assert kept + dropped == 97 * config.top_k
        loads = np.bincount(assignments[assignments >= 0],
                            minlength=config.n_experts)
        assert loads.max() <= config.expert_capacity(97)


class TestExpertParallel:
    def test_ep_needs_a_moe_model(self):
        with pytest.raises(ConfigError, match="n_experts > 1"):
            check_ep_shards(tiny_causal(), 2)

    def test_ep_must_divide_experts(self):
        with pytest.raises(ConfigError, match="shard"):
            check_ep_shards(MIXTRAL_MOE, 3)
        check_ep_shards(MIXTRAL_MOE, 4)  # 8 experts / 4 shards: fine

    def test_routed_bytes_scales_with_top_k(self):
        dense = tiny_causal()
        moe = MoEConfig.from_dense(dense, n_experts=8, top_k=2)
        assert routed_bytes(moe, 100, DType.FP16) == \
            2 * routed_bytes(dense, 100, DType.FP16)

    def test_ep_adds_alltoall_comm_time(self):
        from repro.cluster.costmodel import ShardedStepCostModel

        def comm(ep):
            return ShardedStepCostModel(
                MIXTRAL_MOE, "A100", plan="sdf", ep=ep,
            ).comm_time(256)

        assert comm(1) == 0.0  # tp=pp=ep=1: no collectives at all
        assert comm(2) > 0.0
        assert comm(4) > comm(2)  # more hops, less per-GPU keep-slice

    def test_moe_kernels_degenerate_to_single_expert_gemm(self):
        moe = MoEConfig.from_dense(tiny_causal(), n_experts=8, top_k=2)
        names = [k.name for k in moe_ffn_kernels(moe, m_tokens=64)]
        assert "dec_router_gate" in names
        assert "dec_router_softmax" in names
        assert "moe_dispatch" in names and "moe_combine" in names
        # EP=2 prices only the heaviest shard's experts.
        sharded = moe_ffn_kernels(moe, m_tokens=64, ep_shards=2)
        full_ff1 = [k for k in moe_ffn_kernels(moe, m_tokens=64)
                    if k.name == "dec_expert_ff1"]
        shard_ff1 = [k for k in sharded if k.name == "dec_expert_ff1"]
        assert sum(k.batch * k.m for k in shard_ff1) < \
            sum(k.batch * k.m for k in full_ff1)


class TestSpecDecodeConfig:
    def test_tokens_per_round(self):
        config = SpecDecodeConfig("gpt-neo-1.3b", draft_len=4,
                                  accept_rate=0.75)
        assert config.tokens_per_round == 1 + int(0.75 * 4)
        assert SpecDecodeConfig("x", draft_len=4,
                                accept_rate=0.0).tokens_per_round == 1
        assert SpecDecodeConfig("x", draft_len=4,
                                accept_rate=1.0).tokens_per_round == 5

    def test_validation(self):
        with pytest.raises(ServingError, match="draft_model"):
            SpecDecodeConfig(None)
        with pytest.raises(ServingError, match="accept_rate"):
            SpecDecodeConfig("x", accept_rate=1.5)
        with pytest.raises(Exception):
            SpecDecodeConfig("x", draft_len=0)


class TestSpecKnobsWithoutDraft:
    """A bad speculation knob is a typed error even when no draft model
    is given (the knobs would otherwise be ignored silently)."""

    CLI = "--rate 1 --duration 1 --seed 0 --json".split()

    @pytest.mark.parametrize("command", ["serve-sim", "cluster-sim",
                                         "controlplane-sim"])
    def test_accept_rate_above_one(self, command):
        from repro.cli import main

        with pytest.raises(ServingError, match="accept_rate"):
            main([command, *self.CLI, "--accept-rate", "1.5"])

    @pytest.mark.parametrize("command", ["serve-sim", "cluster-sim",
                                         "controlplane-sim"])
    def test_accept_rate_nan(self, command):
        from repro.cli import main

        with pytest.raises(ServingError, match="accept_rate"):
            main([command, *self.CLI, "--accept-rate", "nan"])

    @pytest.mark.parametrize("command", ["serve-sim", "cluster-sim",
                                         "controlplane-sim"])
    @pytest.mark.parametrize("draft_len", ["0", "-3"])
    def test_draft_len_below_one(self, command, draft_len):
        from repro.cli import main

        with pytest.raises(ConfigError, match="draft_len"):
            main([command, *self.CLI, "--draft-len", draft_len])

    def test_simulator_accept_rate(self):
        with pytest.raises(ServingError, match="accept_rate"):
            ServingSimulator(tiny_causal(), "A100", accept_rate=1.5,
                             requests=[Request(request_id=0,
                                               arrival_time=0.0,
                                               prompt_len=64,
                                               output_len=2)])


class TestSpecDecodeSchedule:
    def requests(self, n=4):
        return [Request(request_id=i, arrival_time=0.02 * i,
                        prompt_len=128, output_len=8)
                for i in range(n)]

    def run(self, **kwargs):
        sim = ServingSimulator(
            tiny_causal(), "A100", plan=PlanSource.of("baseline"),
            requests=self.requests(), chunk_tokens=256, max_batch=4,
            engine="event", **kwargs)
        return sim.run()

    def test_full_acceptance_matches_plain_schedule(self):
        plain = self.run()
        spec = self.run(draft_model=tiny_causal("tiny-draft"),
                        draft_len=4, accept_rate=1.0)
        assert spec.finished == plain.finished
        assert spec.generated_tokens == plain.generated_tokens
        assert spec.steps < plain.steps  # rounds compress decode steps

    def test_zero_acceptance_still_pays_the_draft(self):
        """Regression: a round whose every drafted token is rejected
        still ran the draft model's γ steps — at ``accept_rate=0`` the
        run must be strictly *slower* than not speculating."""
        plain = self.run()
        spec = self.run(draft_model=tiny_causal("tiny-draft"),
                        draft_len=4, accept_rate=0.0)
        assert spec.steps == plain.steps  # one token per round
        assert spec.makespan > plain.makespan

    def test_disabled_speculation_is_byte_identical(self):
        assert self.run().to_dict() == self.run(draft_model=None).to_dict()


class TestOracleCoverage:
    """Both new oracles are registered and pass their seeded cases."""

    @pytest.fixture(scope="class")
    def registry(self):
        from repro.verify.oracles import default_registry

        return default_registry()

    @pytest.mark.parametrize("name", ["moe.router_conservation",
                                      "serving.spec_decode_equivalence"])
    def test_registered_in_serving_family(self, registry, name):
        assert name in registry.names()
        oracle = registry.get(name)
        assert oracle.family == "serving"
        assert oracle in registry.family("serving")

    @pytest.mark.parametrize("name", ["moe.router_conservation",
                                      "serving.spec_decode_equivalence"])
    def test_passes_seeded_cases(self, registry, name):
        from repro.verify.cases import build_case, draw_params
        from repro.verify.fuzz import run_case

        oracle = registry.get(name)
        rng = np.random.default_rng(0)
        ran = 0
        for _ in range(8):
            case = build_case("serving", draw_params("serving", rng))
            if not oracle.applicable(case):
                continue
            ran += 1
            result = run_case(oracle, case)
            assert not result.failed, result
        assert ran > 0
