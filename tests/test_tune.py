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
  with no warning.
"""

import dataclasses
import json
import math

import pytest

from repro.common.errors import ArtifactError, PlanError, TuneError
from repro.common.scenario import ScenarioSpec, WorkloadSpec
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
        from repro.serving.costmodel import SUPPORTED_PLANS
        from repro.tune.space import SERVING_PLAN_NAMES

        assert tuple(p.value for p in SUPPORTED_PLANS) \
            == SERVING_PLAN_NAMES

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

    def test_infeasible_values_serialize_as_null(self):
        result = tune(FAST, objective="ttft_p99", budget=4, seed=0)
        plan = dataclasses.replace(
            result, winner_value=math.inf).to_tuned_plan()
        assert plan.winner_value is None
        assert json.dumps(plan.to_dict())  # still JSON-serializable


class TestPlanSourceIntegration:
    def test_plan_source_resolves_artifact_winner(self, tmp_path):
        from repro.core.plan import AttentionPlan
        from repro.core.plansource import PlanSource

        result = tune(FAST, objective="ttft_p99", budget=6, seed=0)
        path = tmp_path / "plan.json"
        save_tuned_plan(result.to_tuned_plan(), path)
        source = PlanSource.of(str(path))
        assert source.resolve() \
            == AttentionPlan.from_name(result.winner_config["plan"])

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
