"""Versioned tuned-plan artifacts (``repro.tuned_plan/v1``).

A tuned-plan artifact is the durable output of ``repro tune``: the
search space, seed, budget, every fresh evaluation, the untuned
default's score, the winner, and provenance.  The same file feeds
back into every simulator as a scenario's ``plan_file``
(``--plan-file``), which applies the winner's plan and knobs together,
so a tuning run and the runs that consume it share one source of
truth.

Loading is strict and typed: a corrupted file, a foreign schema tag,
a missing field, or a winner knob outside
:data:`~repro.common.scenario.TUNABLE_AXES` raises
:class:`~repro.common.errors.ArtifactError` — never a bare
``KeyError``/``JSONDecodeError`` — so consumers can distinguish "bad
artifact" from their own bugs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.common.errors import ArtifactError, ScenarioError
from repro.common.results import TUNED_PLAN_SCHEMA
from repro.common.scenario import TUNABLE_AXES, ScenarioSpec


@dataclass(frozen=True)
class TunedPlan:
    """One tuning run's outcome, as recorded in an artifact."""

    objective: str
    mode: str
    budget: int
    seed: int
    #: Fresh evaluations actually performed (memoized repeats are free).
    spent: int
    #: The scenario searched (``repro.scenario/v1`` document).
    scenario: "dict[str, object]"
    #: Axes and default config (:meth:`SearchSpace.to_dict`).
    space: "dict[str, object]"
    #: Every fresh evaluation: config, fidelity, raw value
    #: (``None`` = infeasible), in evaluation order.
    evaluations: "tuple[dict, ...]"
    #: The untuned default and its full-fidelity value.
    default_config: "dict[str, object]"
    default_value: "float | None"
    #: The winning configuration (never worse than the default).
    winner_config: "dict[str, object]"
    winner_value: "float | None"
    #: Default/winner value ratio (>= 1), ``None`` when undefined.
    improvement: "float | None"
    provenance: "dict[str, object]" = field(default_factory=dict)

    def scenario_spec(self):
        """The recorded scenario as a
        :class:`~repro.common.scenario.ScenarioSpec`."""
        try:
            return ScenarioSpec.from_dict(self.scenario)
        except ScenarioError as exc:
            raise ArtifactError(
                f"tuned-plan artifact carries an invalid scenario: {exc}"
            ) from exc

    def to_dict(self) -> "dict[str, object]":
        """The JSON artifact document; :meth:`from_dict` inverts it."""
        return {
            "schema": TUNED_PLAN_SCHEMA,
            "kind": "tuned-plan",
            "objective": self.objective,
            "mode": self.mode,
            "budget": self.budget,
            "seed": self.seed,
            "spent": self.spent,
            "scenario": self.scenario,
            "space": self.space,
            "evaluations": list(self.evaluations),
            "default": {"config": self.default_config,
                        "value": self.default_value},
            "winner": {"config": self.winner_config,
                       "value": self.winner_value},
            "improvement": self.improvement,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, document) -> "TunedPlan":
        """Parse and validate an artifact document.

        Anything malformed raises
        :class:`~repro.common.errors.ArtifactError` naming the problem.
        """
        if not isinstance(document, dict):
            raise ArtifactError(
                f"tuned-plan artifact: expected an object, got "
                f"{type(document).__name__}")
        schema = document.get("schema")
        if schema != TUNED_PLAN_SCHEMA:
            raise ArtifactError(
                f"tuned-plan artifact schema mismatch: expected "
                f"{TUNED_PLAN_SCHEMA!r}, got {schema!r}")
        kind = document.get("kind")
        if kind != "tuned-plan":
            raise ArtifactError(
                f"tuned-plan artifact kind mismatch: expected "
                f"'tuned-plan', got {kind!r}")

        def need(key, container=document, where="artifact"):
            try:
                return container[key]
            except (KeyError, TypeError):
                raise ArtifactError(
                    f"tuned-plan {where} is missing field {key!r}"
                ) from None

        default = need("default")
        winner = need("winner")
        plan = cls(
            objective=str(need("objective")),
            mode=str(need("mode")),
            budget=int(need("budget")),
            seed=int(need("seed")),
            spent=int(need("spent")),
            scenario=need("scenario"),
            space=need("space"),
            evaluations=tuple(need("evaluations")),
            default_config=need("config", default, "default"),
            default_value=need("value", default, "default"),
            winner_config=need("config", winner, "winner"),
            winner_value=need("value", winner, "winner"),
            improvement=document.get("improvement"),
            provenance=document.get("provenance", {}),
        )
        if not isinstance(plan.winner_config, dict) \
                or "plan" not in plan.winner_config:
            raise ArtifactError(
                "tuned-plan winner config must carry a 'plan' entry")
        unknown = sorted(set(plan.winner_config) - set(TUNABLE_AXES))
        if unknown:
            raise ArtifactError(
                f"tuned-plan winner config carries unknown knobs "
                f"{unknown}; a replay would run a hybrid")
        plan.scenario_spec()
        return plan


def load_tuned_plan(path: "str | Path") -> TunedPlan:
    """Read and validate a tuned-plan artifact from disk."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ArtifactError(
            f"cannot read tuned-plan artifact {str(path)!r}: {exc}"
        ) from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ArtifactError(
            f"tuned-plan artifact {str(path)!r} is not valid JSON: {exc}"
        ) from exc
    return TunedPlan.from_dict(document)


def save_tuned_plan(plan: TunedPlan, path: "str | Path") -> None:
    """Write an artifact exactly as the CLI's ``--output`` would."""
    Path(path).write_text(
        json.dumps(plan.to_dict(), indent=2, sort_keys=True) + "\n")
