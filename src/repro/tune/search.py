"""Budgeted, deterministic plan search.

The tuner combines two classic derivative-free strategies over the
scenario's :class:`~repro.tune.space.SearchSpace`:

1. **Successive halving** — a seeded sample of the grid is scored at
   a low-fidelity replay (a fraction of the arrival window), the
   better half survives to the next fidelity rung, and the finalists
   are re-scored at full fidelity.  Cheap rungs pay for broad
   coverage; expensive rungs only see promising candidates.
2. **Coordinate descent** — from the best full-fidelity configuration,
   walk the axes in order and adopt any single-axis change that
   *strictly* improves the full-fidelity score, repeating until a
   full pass makes no progress (or the budget runs out).

Two properties are guaranteed by construction:

- **Determinism** — the only randomness is ``random.Random(seed)``
  sampling the candidate grid; evaluation order, tie-breaking (by
  canonical score, then by config key), and the emitted artifact are
  pure functions of ``(scenario, objective, budget, seed)``.
- **Never worse than the default** — the untuned default is always
  the first full-fidelity evaluation and the incumbent; the winner
  only ever replaces it on a strictly better score, so consuming a
  tuned plan can't lose to not tuning.

``budget`` counts *fresh* evaluations; memoized repeats (the search
re-visits configurations freely) are not charged.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from repro.common.errors import TuneError
from repro.obs.tracer import current_tracer
from repro.tune.artifact import TunedPlan
from repro.tune.evaluate import (
    ScenarioEvaluator,
    canonical_score,
    default_mode,
)
from repro.tune.space import SearchSpace, build_space

#: Successive-halving fidelity rungs (fractions of the arrival
#: window).  Single-inference evaluations have no cheap fidelity — the
#: simulation is already memoized at the kernel level — so they run a
#: single full-fidelity rung.
FIDELITY_LADDER = (0.25, 0.5, 1.0)

#: Safety valve on coordinate-descent passes; in practice descent
#: converges in one or two passes long before this.
MAX_DESCENT_PASSES = 8


def _config_key(config: "dict[str, object]") -> str:
    """Canonical identity of a configuration (dedupe + tie-breaks)."""
    return json.dumps(config, sort_keys=True)


@dataclass(frozen=True)
class TuneResult:
    """Outcome of one :func:`tune` run (artifact-equivalent)."""

    spec: "object"
    objective: str
    mode: str
    budget: int
    seed: int
    spent: int
    space: SearchSpace
    #: Every fresh evaluation in order: (config, fidelity, value).
    evaluations: "tuple[tuple[dict, float, float], ...]"
    default_config: "dict[str, object]"
    default_value: float
    winner_config: "dict[str, object]"
    winner_value: float

    @property
    def improvement(self) -> "float | None":
        """Default-to-winner gain as a ratio >= 1 (``None`` when either
        side is infeasible or zero)."""
        default, winner = self.default_value, self.winner_value
        if not (math.isfinite(default) and math.isfinite(winner)):
            return None
        if self.objective == "throughput":
            default, winner = winner, default
        if winner <= 0:
            return None
        return default / winner

    def to_tuned_plan(self) -> TunedPlan:
        """The versioned artifact for this result."""
        from repro import __version__

        def jsonable(value: float) -> "float | None":
            return value if math.isfinite(value) else None

        return TunedPlan(
            objective=self.objective,
            mode=self.mode,
            budget=self.budget,
            seed=self.seed,
            spent=self.spent,
            scenario=self.spec.to_dict(),
            space=self.space.to_dict(),
            evaluations=tuple(
                {
                    "config": dict(config),
                    "fidelity": fidelity,
                    "value": jsonable(value),
                    "infeasible": not math.isfinite(value),
                }
                for config, fidelity, value in self.evaluations
            ),
            default_config=dict(self.default_config),
            default_value=jsonable(self.default_value),
            winner_config=dict(self.winner_config),
            winner_value=jsonable(self.winner_value),
            improvement=self.improvement,
            provenance={"tool": "repro tune", "version": __version__},
        )

    def to_dict(self) -> "dict[str, object]":
        """The JSON artifact document (what the CLI emits)."""
        return self.to_tuned_plan().to_dict()


def tune(spec, *, objective: str = "ttft_p99", budget: int = 64,
         seed: int = 0, sim: str = "serving") -> TuneResult:
    """Search ``spec``'s configuration space for the best plan.

    ``budget`` is the number of fresh simulator evaluations the search
    may spend (minimum 2: the default plus at least one challenger).
    ``sim`` picks the backend for the serving objectives; the
    ``latency`` objective always scores single-inference runs.
    """
    mode = default_mode(objective, sim)
    if budget < 2:
        raise TuneError(f"budget must be >= 2 (the default plus at "
                        f"least one challenger), got {budget}")
    if spec.plan_file is not None:
        raise TuneError("the scenario already pins a tuned-plan "
                        "artifact (--plan-file); tune produces those, "
                        "it does not consume them")
    space = build_space(spec, mode)
    evaluator = ScenarioEvaluator(spec, objective, mode)
    tracer = current_tracer()
    log: "list[tuple[dict, float, float]]" = []

    def eval_at(config, fidelity):
        fresh = not evaluator.seen(config, fidelity)
        value = evaluator.evaluate(config, fidelity)
        if fresh:
            log.append((dict(config), fidelity, value))
        return canonical_score(objective, value)

    def exhausted():
        return evaluator.evaluations >= budget

    # 1. The incumbent: the untuned default, at full fidelity, always.
    default_config = dict(space.default)
    with tracer.span("tune:default", "tune"):
        best_score = eval_at(default_config, 1.0)
    best_config = default_config
    default_score = best_score

    def consider(config, score):
        nonlocal best_config, best_score
        if score < best_score:
            best_config, best_score = config, score
            return True
        return False

    # 2. Successive halving over a seeded sample of the grid.
    rng = random.Random(seed)
    default_key = _config_key(default_config)
    pool = [c for c in space.configs() if _config_key(c) != default_key]
    ladder = FIDELITY_LADDER if mode != "inference" else (1.0,)
    # A full ladder costs ~(1 + 1/2 + 1/4)x the cohort size; size the
    # cohort so the remaining budget covers it with room for descent.
    remaining = budget - evaluator.evaluations
    cohort_n = min(len(pool), max(2, (remaining * 4) // 7))
    survivors = rng.sample(pool, cohort_n) if pool else []

    for fidelity in ladder:
        if not survivors:
            break
        with tracer.span(f"tune:halving@{fidelity:g}", "tune",
                         args={"cohort": len(survivors)}):
            scored = []
            for config in survivors:
                if exhausted() and not evaluator.seen(config, fidelity):
                    break
                scored.append((eval_at(config, fidelity),
                               _config_key(config), config))
            scored.sort(key=lambda item: item[:2])
        if fidelity == 1.0:
            for score, _, config in scored:
                consider(config, score)
            break
        keep = max(2, -(-len(scored) // 2))
        survivors = [config for _, _, config in scored[:keep]]

    # 3. Coordinate descent from the best full-fidelity config.
    with tracer.span("tune:descent", "tune"):
        for _ in range(MAX_DESCENT_PASSES):
            improved = False
            for axis, values in space.axes:
                for value in values:
                    if value == best_config[axis]:
                        continue
                    candidate = {**best_config, axis: value}
                    if exhausted() and not evaluator.seen(candidate, 1.0):
                        continue
                    improved |= consider(candidate,
                                         eval_at(candidate, 1.0))
            if not improved:
                break

    if tracer.enabled:
        tracer.metrics.counter("tune.runs").inc()

    def raw(score: float) -> float:
        return canonical_score(objective, score)  # involution

    return TuneResult(
        spec=spec,
        objective=objective,
        mode=mode,
        budget=budget,
        seed=seed,
        spent=evaluator.evaluations,
        space=space,
        evaluations=tuple(log),
        default_config=default_config,
        default_value=raw(default_score),
        winner_config=best_config,
        winner_value=raw(best_score),
    )
