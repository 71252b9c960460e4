"""The unified ScenarioSpec API.

One frozen spec describes a simulation scenario for every simulator
and the tuner; these tests pin its construction paths (argparse
namespace, dict round-trip), its strictness (unknown fields and
foreign schemas are typed errors, not silent drops), and its
equivalence to the direct simulator calls it replaced.
"""

import argparse
import dataclasses
import pathlib

import pytest

from repro.common.errors import ScenarioError
from repro.common.scenario import (
    SCENARIO_SCHEMA,
    SECTIONS,
    ArrivalSpec,
    ScenarioSpec,
    ShardingSpec,
    WorkloadSpec,
    add_sharding_args,
    add_workload_args,
)


#: A committed 40-request JSONL trace (unsorted, one arrival tie).
TRACE_FILE = pathlib.Path(__file__).parent / "golden" / "trace_requests.jsonl"


def parse(argv, *, sharding=False):
    parser = argparse.ArgumentParser()
    add_workload_args(parser)
    if sharding:
        add_sharding_args(parser)
    return parser.parse_args(argv)


#: A non-default value for every section field that has a flag
#: (``workload.t`` has none; tuned plans set it).
FLAG_VALUES = {
    ("workload", "rate"): 2.5,
    ("workload", "duration"): 7.0,
    ("workload", "seed"): 3,
    ("workload", "trace_file"): "requests.jsonl",
    ("workload", "chunk_tokens"): 256,
    ("workload", "max_batch"): 8,
    ("workload", "block_tokens"): 32,
    ("workload", "engine"): "event",
    ("workload", "prefix_groups"): 4,
    ("workload", "seq_len"): 1024,
    ("workload", "batch"): 2,
    ("workload", "draft_model"): "bert-large",
    ("workload", "draft_len"): 3,
    ("workload", "accept_rate"): 0.5,
    ("arrival", "kind"): "mmpp",
    ("arrival", "burst_rate"): 9.0,
    ("arrival", "base_dwell"): 2.0,
    ("arrival", "burst_dwell"): 1.0,
    ("arrival", "period"): 5.0,
    ("sharding", "replicas"): 3,
    ("sharding", "tp"): 2,
    ("sharding", "pp"): 2,
    ("sharding", "ep"): 2,
    ("sharding", "policy"): "least-outstanding",
    ("sharding", "algorithm"): "tree",
    ("sharding", "interconnect"): "pcie4",
    ("sharding", "jobs"): 2,
    ("moe", "n_experts"): 4,
    ("moe", "top_k"): 2,
    ("moe", "capacity_factor"): 1.5,
}

#: What ``repro tune`` runs without flags: its one override is
#: ``--plans sdf``.
TUNE_DEFAULT = ScenarioSpec(plans=("sdf",))


def tune_spec(*argv):
    """The spec ``repro tune`` builds from ``argv`` (its parser carries
    every scenario flag, ``--seq-len``/``--batch`` included)."""
    from repro.cli import build_parser

    return ScenarioSpec.from_args(build_parser().parse_args(
        ["tune", *argv]))


class TestConstruction:
    def test_defaults_match_cli_defaults(self):
        spec = ScenarioSpec.from_args(parse([], sharding=True))
        assert spec == ScenarioSpec()

    def test_from_args_reads_flags(self):
        spec = ScenarioSpec.from_args(parse(
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
        spec = ScenarioSpec.from_args(parse([]))
        assert spec.sharding == ShardingSpec()

    def test_tune_without_flags_is_the_dataclass_defaults(self):
        """The flags declare no defaults; ``tune`` overrides only
        ``--plans``."""
        assert tune_spec() == TUNE_DEFAULT

    def test_flag_table_covers_every_flagged_field(self):
        every = {(name, f.name) for name, section in SECTIONS.items()
                 for f in dataclasses.fields(section)}
        assert set(FLAG_VALUES) == every - {("workload", "t")}

    @pytest.mark.parametrize("section,name", sorted(FLAG_VALUES))
    def test_flag_sets_exactly_its_field(self, section, name):
        value = FLAG_VALUES[section, name]
        default = getattr(getattr(TUNE_DEFAULT, section), name)
        assert value != default
        flag = ("--arrival" if (section, name) == ("arrival", "kind")
                else "--" + name.replace("_", "-"))
        expected = dataclasses.replace(TUNE_DEFAULT, **{
            section: dataclasses.replace(getattr(TUNE_DEFAULT, section),
                                         **{name: value})})
        assert tune_spec(flag, str(value)) == expected

    @pytest.mark.parametrize("section,name", sorted(FLAG_VALUES))
    def test_none_attribute_keeps_the_default(self, section, name):
        attr = "arrival" if (section, name) == ("arrival", "kind") else name
        namespace = argparse.Namespace(**{attr: None})
        assert ScenarioSpec.from_args(namespace) == ScenarioSpec()

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
        from repro.serving import ServingWorkload, simulate_serving

        spec = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))
        via_spec = spec.run_serving()
        direct = simulate_serving(
            "bert-large", "A100",
            ServingWorkload(rate=2.0, duration=3.0, seed=0),
            plans=("baseline", "sdf"))
        assert via_spec.to_dict() == direct.to_dict()

    def test_run_cluster_matches_direct_call(self):
        from repro.cluster import simulate_cluster
        from repro.serving import ServingWorkload

        spec = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))
        via_spec = spec.run_cluster()
        direct = simulate_cluster(
            "bert-large", "A100",
            ServingWorkload(rate=2.0, duration=3.0, seed=0),
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
    """``controlplane-sim`` shares the workload flags but has no
    speculative decoding or expert parallelism: asking for either is an
    error, not a run that silently ignores it.  ``--engine``, trace
    replay and shared-prefix groups reach it through the scenario's
    workload, and the sharding section's interconnect and algorithm
    through its fleet."""

    CLI = ["controlplane-sim", "--rate", "2", "--duration", "3",
           "--seed", "0", "--json"]

    def test_draft_model_raises(self):
        from repro.cli import main

        with pytest.raises(ScenarioError, match="--draft-model"):
            main([*self.CLI, "--draft-model", "bert-large"])

    def test_expert_parallelism_raises(self):
        spec = ScenarioSpec(sharding=ShardingSpec(ep=2), plans=("sdf",))
        with pytest.raises(ScenarioError, match="expert parallelism"):
            spec.run_controlplane()

    def test_fleet_fields_reach_the_control_plane(self):
        """A TP group's interconnect prices its all-reduces and its cold
        start, and the algorithm its all-reduces, so each changes the
        report."""
        def run(**sharding):
            spec = ScenarioSpec(
                workload=WorkloadSpec(rate=2.0, duration=3.0),
                sharding=ShardingSpec(tp=2, **sharding), plans=("sdf",))
            return spec.run_controlplane().plans["sdf"].to_dict()

        ring = run()
        pcie = run(interconnect="pcie4")
        assert pcie["controlplane"]["cold_start_s"] > \
            ring["controlplane"]["cold_start_s"]
        assert pcie != ring
        assert run(algorithm="tree") != ring

    def test_event_engine_matches_epoch(self, capsys):
        from repro.cli import main

        outputs = []
        for engine in ("event", "epoch"):
            main([*self.CLI, "--engine", engine])
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_trace_file_replays(self):
        """The committed 40-request trace runs through the control
        plane: every request arrives and the conservation identity
        holds."""
        spec = ScenarioSpec(
            workload=WorkloadSpec(rate=2.0, duration=3.0,
                                  trace_file=str(TRACE_FILE)),
            plans=("sdf",))
        report = spec.run_controlplane()
        plan = report.plans["sdf"]
        assert plan.arrived == 40
        assert plan.conservation_ok
        assert plan.finished + plan.shed + plan.rejected == 40

    def test_prefix_groups_reach_prefix_affinity(self):
        """Shared-prefix groups change where prefix-affinity routes, so
        the report differs from the ungrouped stream's."""
        def run(groups):
            spec = ScenarioSpec(
                workload=WorkloadSpec(rate=4.0, duration=3.0,
                                      prefix_groups=groups),
                sharding=ShardingSpec(replicas=2, policy="prefix-affinity"),
                plans=("sdf",))
            return spec.run_controlplane().plans["sdf"]

        grouped, plain = run(4), run(0)
        assert grouped.conservation_ok and plain.conservation_ok
        assert grouped.arrived == plain.arrived
        assert grouped.to_dict() != plain.to_dict()
