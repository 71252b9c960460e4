"""The closed-loop plan autotuner.

Pins the tentpole guarantees of ``repro.tune``:

- **determinism** — same (scenario, objective, budget, seed) => the
  same artifact, byte for byte;
- **never worse than the default** — over a smoke grid of model x
  device scenarios, the tuned winner's score is always at least as
  good as the untuned default's;
- **artifact round trip** — emit -> load -> re-score reproduces the
  recorded winner value exactly; corrupted or version-mismatched
  artifacts raise :class:`~repro.common.errors.ArtifactError`, never a
  bare ``KeyError``;
- **one plan spelling** — a bare plan name and
  :class:`~repro.core.plansource.PlanSource` resolve to the same plan,
  with no warning; a tuned-plan artifact is not a plan spelling;
- **one meaning for a tuned configuration** — search-space defaults
  and ``--plan-file`` replays go through one knob table, and a
  replayed winner reports exactly its recorded value.
"""

import dataclasses
import json
import math
import pathlib

import pytest

from repro.common.errors import (
    ArtifactError,
    ConfigError,
    PlanError,
    ServingError,
    TuneError,
)
from repro.common.scenario import (
    TUNABLE_AXES,
    MoESpec,
    ScenarioSpec,
    ShardingSpec,
    WorkloadSpec,
    apply_config,
    apply_tuned_plan,
    read_config,
)
from repro.tune import (
    OBJECTIVES,
    TunedPlan,
    build_space,
    canonical_score,
    load_tuned_plan,
    save_tuned_plan,
    score_config,
    tune,
)

#: A scenario small enough for sub-second serving evaluations.
FAST = ScenarioSpec(workload=WorkloadSpec(rate=2.0, duration=3.0))


def fast_spec(**overrides):
    workload = dataclasses.replace(FAST.workload,
                                   **overrides.pop("workload", {}))
    return dataclasses.replace(FAST, workload=workload, **overrides)


class TestSearchSpace:
    def test_serving_plans_match_costmodel_support(self):
        """The serving plan axis is exactly the plans the step cost
        model prices."""
        from repro.core.plan import AttentionPlan
        from repro.serving.costmodel import StepCostModel

        (plans,) = [values for name, values
                    in build_space(FAST, "serving").axes if name == "plan"]
        for plan in plans:
            StepCostModel("bert-large", "a100", plan=plan)
        for plan in AttentionPlan:
            if plan.value not in plans:
                with pytest.raises(ServingError, match="supports plans"):
                    StepCostModel("bert-large", "a100", plan=plan)

    def test_grid_enumeration_is_deterministic(self):
        space = build_space(FAST, "serving")
        assert space.configs() == space.configs()
        assert len(space.configs()) == space.size

    def test_default_config_is_complete(self):
        for mode in ("inference", "serving", "cluster"):
            space = build_space(FAST, mode)
            assert set(space.default) == {n for n, _ in space.axes}

    def test_unknown_mode_rejected(self):
        with pytest.raises(TuneError, match="mode"):
            build_space(FAST, "quantum")


class TestDeterminism:
    def test_same_seed_same_artifact_bytes(self):
        runs = [tune(FAST, objective="ttft_p99", budget=8, seed=0)
                for _ in range(2)]
        payloads = [json.dumps(r.to_dict(), sort_keys=True)
                    for r in runs]
        assert payloads[0] == payloads[1]

    def test_different_seed_samples_differently(self):
        a = tune(FAST, objective="ttft_p99", budget=6, seed=0)
        b = tune(FAST, objective="ttft_p99", budget=6, seed=1)
        assert [e[0] for e in a.evaluations] \
            != [e[0] for e in b.evaluations]

    def test_budget_caps_fresh_evaluations(self):
        result = tune(FAST, objective="ttft_p99", budget=5, seed=0)
        assert result.spent <= 5
        assert len(result.evaluations) == result.spent


class TestSharedCostModels:
    """One tuner call prices each step shape once."""

    @pytest.mark.parametrize("sim", ("serving", "cluster"))
    def test_shared_pool_matches_fresh_models(self, monkeypatch, sim):
        from repro.tune.evaluate import ScenarioEvaluator

        shared = tune(FAST, objective="ttft_p99", budget=8, seed=0,
                      sim=sim)
        evaluate = ScenarioEvaluator._evaluate

        def fresh(self, config, fidelity):
            self._costs.clear()
            return evaluate(self, config, fidelity)

        monkeypatch.setattr(ScenarioEvaluator, "_evaluate", fresh)
        private = tune(FAST, objective="ttft_p99", budget=8, seed=0,
                       sim=sim)
        assert json.dumps(shared.to_dict(), sort_keys=True) \
            == json.dumps(private.to_dict(), sort_keys=True)

    def test_at_most_one_model_per_pricing_key(self, built):
        from repro.cluster.costmodel import ShardedStepCostModel

        models = built(ShardedStepCostModel)
        result = tune(FAST, objective="ttft_p99", budget=12, seed=0,
                      sim="cluster")
        keys = {(m.model, m.gpu, m.plan, m.dtype, m.t, m.kv_bucket, m.tp,
                 m.pp, m.ep, m.interconnect, m.algorithm)
                for m in models}
        assert len(models) == len(keys)
        # Engine knobs and routing policy vary without re-pricing.
        assert len(models) < result.spent

    def test_shapes_priced_counts_each_simulation_once(self, built,
                                                       monkeypatch):
        """Summed over a tuner call's models, ``cache_sizes`` counts
        each priced shape once: it equals the ``_simulate`` calls.
        Models of different plans, ``t`` or PP share one MLP memo."""
        from repro.serving.costmodel import StepCostModel

        calls = []
        simulate = StepCostModel._simulate

        def counted(self, kernels):
            calls.append(self)
            return simulate(self, kernels)

        monkeypatch.setattr(StepCostModel, "_simulate", counted)
        models = built(StepCostModel)
        tune(FAST, objective="ttft_p99", budget=12, seed=0, sim="cluster")
        assert sum(sum(m.cache_sizes()) for m in models) == len(calls)
        assert len({id(m._mlp_cache) for m in models}) < len(models)


class TestNeverWorse:
    """The regression guarantee, over a model x device smoke grid."""

    GRID = [("bert-large", "A100"), ("bert-large", "T4"),
            ("gpt-neo-1.3b", "A100"), ("gpt-neo-1.3b", "T4")]

    @pytest.mark.parametrize("model,gpu", GRID)
    @pytest.mark.parametrize("objective", ["ttft_p99", "throughput"])
    def test_tuned_never_loses_to_default(self, model, gpu, objective):
        spec = fast_spec(model=model, gpu=gpu)
        result = tune(spec, objective=objective, budget=6, seed=0)
        assert canonical_score(objective, result.winner_value) \
            <= canonical_score(objective, result.default_value)

    @pytest.mark.parametrize("model,gpu", GRID[:2])
    def test_latency_objective_never_loses(self, model, gpu):
        spec = fast_spec(model=model, gpu=gpu,
                         workload={"seq_len": 1024})
        result = tune(spec, objective="latency", budget=6, seed=0)
        assert result.winner_value <= result.default_value
        assert result.mode == "inference"

    def test_default_always_scored_at_full_fidelity(self):
        result = tune(FAST, objective="ttft_p99", budget=4, seed=0)
        config, fidelity, value = result.evaluations[0]
        assert config == result.default_config
        assert fidelity == 1.0
        assert value == result.default_value


class TestArtifactRoundTrip:
    def run_and_save(self, tmp_path, **kwargs):
        kwargs.setdefault("objective", "ttft_p99")
        kwargs.setdefault("budget", 6)
        kwargs.setdefault("seed", 0)
        result = tune(FAST, **kwargs)
        path = tmp_path / "plan.json"
        save_tuned_plan(result.to_tuned_plan(), path)
        return result, path

    def test_emit_load_rescore_is_exact(self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        artifact = load_tuned_plan(path)
        assert artifact.winner_config == result.winner_config
        rescored = score_config(
            artifact.scenario_spec(), artifact.winner_config,
            objective=artifact.objective, mode=artifact.mode)
        assert rescored == artifact.winner_value

    def test_load_round_trips_document(self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        artifact = load_tuned_plan(path)
        assert artifact.to_dict() == result.to_dict()

    def test_corrupted_json_raises_artifact_error(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"schema": "repro.tuned_plan/v1", ')
        with pytest.raises(ArtifactError, match="JSON"):
            load_tuned_plan(path)

    def test_version_mismatch_raises_artifact_error(self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        document = json.loads(path.read_text())
        document["schema"] = "repro.tuned_plan/v999"
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="schema mismatch"):
            load_tuned_plan(path)

    def test_missing_field_raises_artifact_error_not_keyerror(
            self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        document = json.loads(path.read_text())
        del document["winner"]
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="winner"):
            load_tuned_plan(path)

    def test_missing_file_raises_artifact_error(self, tmp_path):
        with pytest.raises(ArtifactError, match="cannot read"):
            load_tuned_plan(tmp_path / "nope.json")

    def test_wrong_kind_raises_artifact_error(self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        document = json.loads(path.read_text())
        document["kind"] = "serving-report"
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="kind"):
            load_tuned_plan(path)

    def test_unknown_winner_knob_raises_artifact_error(self, tmp_path):
        result, path = self.run_and_save(tmp_path)
        document = json.loads(path.read_text())
        document["winner"]["config"]["warp_size"] = 16
        path.write_text(json.dumps(document))
        with pytest.raises(ArtifactError, match="warp_size"):
            load_tuned_plan(path)

    def test_infeasible_values_serialize_as_null(self):
        result = tune(FAST, objective="ttft_p99", budget=4, seed=0)
        plan = dataclasses.replace(
            result, winner_value=math.inf).to_tuned_plan()
        assert plan.winner_value is None
        assert json.dumps(plan.to_dict())  # still JSON-serializable


class TestPlanSourceIntegration:
    def test_artifact_enters_only_as_plan_file(self, tmp_path):
        """An artifact pins a plan *and* knobs, so it is not a plan
        spelling; as a scenario's ``plan_file`` it applies both."""
        from repro.cli import main
        from repro.core.plansource import PlanSource

        result = tune(FAST, objective="ttft_p99", budget=6, seed=0)
        artifact = dataclasses.replace(
            result.to_tuned_plan(), winner_config={
                "plan": "sd", "t": 32, "chunk_tokens": 256,
                "max_batch": 8})
        path = tmp_path / "tuned.json"
        save_tuned_plan(artifact, path)
        with pytest.raises(PlanError, match="unknown plan"):
            PlanSource.of(str(path))
        with pytest.raises(PlanError, match="unknown plan"):
            main(["serve-sim", "--rate", "2", "--duration", "3",
                  "--plans", str(path), "--json"])
        resolved = dataclasses.replace(FAST, plan_file=str(path)).resolved()
        assert resolved == apply_config(FAST, artifact.winner_config)
        assert read_config(resolved, artifact.winner_config) \
            == artifact.winner_config

    @pytest.mark.parametrize("command", ["serve-sim", "cluster-sim",
                                         "controlplane-sim"])
    def test_plan_file_with_zero_tile_width_is_a_config_error(
            self, command, tmp_path):
        from repro.cli import main

        golden = pathlib.Path(__file__).parent / "golden" / "tune_smoke.json"
        artifact = load_tuned_plan(golden)
        artifact = dataclasses.replace(
            artifact, winner_config={**artifact.winner_config, "t": 0})
        path = tmp_path / "tuned.json"
        save_tuned_plan(artifact, path)
        with pytest.raises(ConfigError, match="t must be positive"):
            main([command, "--rate", "2", "--duration", "3",
                  "--plan-file", str(path), "--json"])

    def test_tune_refuses_plan_file_scenarios(self, tmp_path):
        spec = dataclasses.replace(FAST, plan_file="whatever.json")
        with pytest.raises(TuneError, match="plan-file"):
            tune(spec, objective="ttft_p99", budget=4)

    def test_budget_below_two_rejected(self):
        with pytest.raises(TuneError, match="budget"):
            tune(FAST, objective="ttft_p99", budget=1)

    def test_unknown_objective_rejected(self):
        assert "p50" not in OBJECTIVES
        with pytest.raises(TuneError, match="objective"):
            tune(FAST, objective="ttft_p50", budget=4)


def _objective(report, objective):
    """The tuner's objective read off one plan's serving report."""
    if objective == "ttft_p99":
        return report.ttft.p99
    if objective == "tpot_p99":
        return report.tpot.p99
    return report.throughput_tokens_per_s


class TestReplayEqualsScore:
    """A replayed tuned plan reports exactly the value it was scored at:
    the tuner and ``--plan-file`` run the same scenario."""

    @pytest.mark.parametrize("spec,kwargs,moved", [
        (FAST, {"budget": 8}, None),
        (fast_spec(sharding=ShardingSpec(replicas=2,
                                         policy="least-outstanding")),
         {"budget": 8, "sim": "cluster"}, None),
        (fast_spec(moe=MoESpec(n_experts=4, top_k=2)),
         {"budget": 8}, "top_k"),
        (fast_spec(model="gpt-neo-1.3b", workload={
            "rate": 1.0, "draft_model": "bert-large"}),
         {"budget": 8, "seed": 2}, "draft_len"),
    ], ids=["dense", "cluster", "moe", "speculative"])
    def test_replay_reports_winner_value(self, spec, kwargs, moved):
        result = tune(spec, objective="ttft_p99", **kwargs)
        artifact = result.to_tuned_plan()
        if moved is not None:
            assert artifact.winner_config[moved] \
                != artifact.default_config[moved]
        replay = apply_tuned_plan(artifact.scenario_spec(), artifact)
        run = (replay.run_cluster if artifact.mode == "cluster"
               else replay.run_serving)
        (report,) = run().plans.values()
        assert _objective(report, artifact.objective) \
            == artifact.winner_value


class TestTunableAxesTable:
    """One table says where every tunable knob lives."""

    SCENARIOS = {
        "dense": FAST,
        "moe": fast_spec(moe=MoESpec(n_experts=4, top_k=2)),
        "speculative": fast_spec(workload={"draft_model": "bert-large",
                                           "draft_len": 3}),
    }

    @pytest.mark.parametrize("mode", ["inference", "serving", "cluster"])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_table_round_trips(self, name, mode):
        spec = self.SCENARIOS[name]
        space = build_space(spec, mode)
        axes = [axis for axis, _ in space.axes]
        assert set(axes) <= set(TUNABLE_AXES)
        assert space.default == read_config(spec, axes)
        for config in space.configs():
            assert read_config(apply_config(spec, config), axes) == config

    def test_apply_config_rejects_unknown_knobs(self):
        from repro.common.errors import ScenarioError

        with pytest.raises(ScenarioError, match="warp_size"):
            apply_config(FAST, {"plan": "sdf", "warp_size": 16})


class TestDeprecatedPlanArguments:
    """Bare plan= spellings and PlanSource are interchangeable."""

    def test_plan_source_spelling_does_not_warn(self, recwarn):
        import warnings

        from repro.core.plan import AttentionPlan
        from repro.core.plansource import PlanSource
        from repro.serving.requests import Request
        from repro.serving.simulator import ServingSimulator

        requests = [Request(request_id=0, arrival_time=0.0,
                            prompt_len=128, output_len=2)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            wrapped = ServingSimulator("bert-large", "A100",
                                       plan=PlanSource.of("sdf"),
                                       requests=requests)
            bare = ServingSimulator("bert-large", "A100", plan="sdf",
                                    requests=requests)
        assert bare.plan is wrapped.plan is AttentionPlan.RECOMPOSED

    def test_infeasible_sentinel_has_no_truth_value(self):
        from repro.core.autotune import INFEASIBLE

        with pytest.raises(PlanError):
            bool(INFEASIBLE)
        assert repr(INFEASIBLE) == "INFEASIBLE"
