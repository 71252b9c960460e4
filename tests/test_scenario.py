"""The unified ScenarioSpec API.

One frozen spec describes a simulation scenario for every simulator
and the tuner; these tests pin its construction paths (argparse
namespace, dict round-trip), its strictness (unknown fields and
foreign schemas are typed errors, not silent drops), and its
equivalence to the direct simulator calls it replaced.
"""

import argparse
import dataclasses

import pytest

from repro.common.errors import ScenarioError
from repro.common.scenario import (
    SCENARIO_SCHEMA,
    ArrivalSpec,
    ScenarioSpec,
    ShardingSpec,
    WorkloadSpec,
    add_sharding_args,
    add_workload_args,
    scenario_from_args,
)


def parse(argv, *, sharding=False):
    parser = argparse.ArgumentParser()
    add_workload_args(parser)
    if sharding:
        add_sharding_args(parser)
    return parser.parse_args(argv)


class TestConstruction:
    def test_defaults_match_cli_defaults(self):
        spec = scenario_from_args(parse([], sharding=True))
        assert spec == ScenarioSpec()

    def test_from_args_reads_flags(self):
        spec = scenario_from_args(parse(
            ["--model", "gpt-neo-1.3b", "--gpu", "T4", "--rate", "2",
             "--duration", "5", "--seed", "3", "--arrival", "mmpp",
             "--plans", "baseline, sd ,sdf", "--chunk-tokens", "256",
             "--tp", "2", "--policy", "prefix-affinity"],
            sharding=True))
        assert spec.model == "gpt-neo-1.3b"
        assert spec.gpu == "T4"
        assert spec.workload.rate == 2.0
        assert spec.workload.duration == 5.0
        assert spec.workload.seed == 3
        assert spec.workload.chunk_tokens == 256
        assert spec.arrival.kind == "mmpp"
        assert spec.plans == ("baseline", "sd", "sdf")
        assert spec.sharding.tp == 2
        assert spec.sharding.policy == "prefix-affinity"

    def test_from_args_tolerates_missing_attrs(self):
        """serve-sim namespaces carry no sharding flags; the spec falls
        back to the sharding defaults."""
        spec = scenario_from_args(parse([]))
        assert spec.sharding == ShardingSpec()

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ScenarioSpec().model = "other"


class TestRoundTrip:
    def test_to_dict_from_dict_round_trips(self):
        spec = ScenarioSpec(
            model="bigbird-large", gpu="H100",
            workload=WorkloadSpec(rate=2.0, duration=5.0, seed=9,
                                  chunk_tokens=256, t=32),
            arrival=ArrivalSpec(kind="diurnal", period=10.0),
            sharding=ShardingSpec(replicas=4, tp=2, policy="prefix-affinity"),
            plans=("sd", "sdf"),
        )
        document = spec.to_dict()
        assert document["schema"] == SCENARIO_SCHEMA
        assert ScenarioSpec.from_dict(document) == spec

    def test_round_trip_survives_json(self):
        import json

        spec = ScenarioSpec()
        rebuilt = ScenarioSpec.from_dict(json.loads(
            json.dumps(spec.to_dict())))
        assert rebuilt == spec

    def test_unknown_top_level_field_rejected(self):
        document = ScenarioSpec().to_dict()
        document["surprise"] = 1
        with pytest.raises(ScenarioError, match="surprise"):
            ScenarioSpec.from_dict(document)

    def test_unknown_nested_field_rejected(self):
        document = ScenarioSpec().to_dict()
        document["workload"]["warp_factor"] = 9
        with pytest.raises(ScenarioError, match="warp_factor"):
            ScenarioSpec.from_dict(document)

    def test_foreign_schema_rejected(self):
        document = ScenarioSpec().to_dict()
        document["schema"] = "repro.scenario/v999"
        with pytest.raises(ScenarioError, match="schema"):
            ScenarioSpec.from_dict(document)

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec.from_dict([1, 2, 3])


class TestResolution:
    def test_make_arrival_default_is_none(self):
        """kind=None keeps the legacy Poisson stream (and byte-identical
        reports); the spec must not invent an arrival object."""
        assert ScenarioSpec().make_arrival() is None

    def test_make_arrival_mmpp(self):
        spec = ScenarioSpec(arrival=ArrivalSpec(kind="mmpp"))
        assert spec.make_arrival().kind == "mmpp"

    def test_unknown_interconnect_is_typed_error(self):
        spec = ScenarioSpec(
            sharding=ShardingSpec(interconnect="carrier-pigeon"))
        with pytest.raises(ScenarioError, match="carrier-pigeon"):
            spec.interconnect_spec()

    def test_run_serving_matches_direct_call(self):
        from repro.serving import simulate_serving

        spec = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))
        via_spec = spec.run_serving()
        direct = simulate_serving("bert-large", "A100", rate=2.0,
                                  duration=3.0, seed=0,
                                  plans=("baseline", "sdf"))
        assert via_spec.to_dict() == direct.to_dict()

    def test_run_cluster_matches_direct_call(self):
        from repro.cluster import simulate_cluster

        spec = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))
        via_spec = spec.run_cluster()
        direct = simulate_cluster("bert-large", "A100", rate=2.0,
                                  duration=3.0, seed=0,
                                  plans=("baseline", "sdf"))
        assert via_spec.to_dict() == direct.to_dict()


class TestTunedPlanApplication:
    def make_artifact(self, tmp_path, **winner):
        from repro.tune import save_tuned_plan, tune

        spec = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))
        result = tune(spec, objective="ttft_p99", budget=4, seed=0)
        plan = result.to_tuned_plan()
        if winner:
            plan = dataclasses.replace(
                plan, winner_config={**plan.winner_config, **winner})
        path = tmp_path / "plan.json"
        save_tuned_plan(plan, path)
        return path

    def test_resolved_pins_plan_and_knobs(self, tmp_path):
        path = self.make_artifact(
            tmp_path, plan="sd", t=32, chunk_tokens=256, max_batch=8)
        spec = ScenarioSpec(plan_file=str(path))
        resolved = spec.resolved()
        assert resolved.plans == ("sd",)
        assert resolved.plan_file is None
        assert resolved.workload.t == 32
        assert resolved.workload.chunk_tokens == 256
        assert resolved.workload.max_batch == 8

    def test_resolved_without_plan_file_is_identity(self):
        spec = ScenarioSpec()
        assert spec.resolved() is spec


class TestControlPlaneFlags:
    """``controlplane-sim`` shares the workload flags but has no engine
    choice, speculative decoding or trace replay: asking for one is an
    error naming the flag, not a run that silently ignores it."""

    @pytest.mark.parametrize("flag",
                             ["--engine", "--draft-model", "--trace-file"])
    def test_unsupported_flag_raises(self, tmp_path, flag):
        from repro.cli import main

        trace = tmp_path / "requests.jsonl"
        trace.write_text('{"arrival_time": 0.0, "prompt_len": 128, '
                         '"output_len": 4}\n')
        value = {"--engine": "event", "--draft-model": "bert-large",
                 "--trace-file": str(trace)}[flag]
        with pytest.raises(ScenarioError, match=flag):
            main(["controlplane-sim", "--rate", "2", "--duration", "3",
                  "--seed", "0", "--json", flag, value])
