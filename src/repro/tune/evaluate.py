"""Scoring one candidate configuration against a scenario.

:class:`ScenarioEvaluator` is the bridge between the search engine and
the existing simulation layers — it never re-implements a cost model:

- ``mode="inference"`` — :class:`repro.models.runtime.InferenceSession`
  end-to-end latency at the scenario's ``seq_len``/``batch`` shape;
- ``mode="serving"``   — :class:`repro.serving.ServingSimulator` over
  the scenario's request stream (TTFT/TPOT percentiles, throughput);
- ``mode="cluster"``   — :class:`repro.cluster.ClusterSimulator` with
  the candidate's TP x PP and routing policy.

A candidate is scored as a scenario:
:func:`~repro.common.scenario.apply_config` writes it into the
evaluator's :class:`~repro.common.scenario.ScenarioSpec`, and the
simulator is built from that spec through the same
:meth:`~repro.common.scenario.ScenarioSpec.simulator_kwargs` mapping
``--plan-file`` replays use, so a replayed winner reports exactly the
value it was scored at.

Fidelity is the successive-halving lever: a fidelity of ``0.25``
replays the first quarter of the arrival window, which ranks
configurations well enough to discard the bottom half cheaply.  All
final decisions are taken at fidelity ``1.0``.

Every evaluation is memoized on ``(config, fidelity)`` — the search
re-visits configurations freely and only fresh simulations count
against the budget.  One evaluator also owns a pool of priced step-cost
models (:func:`repro.serving.costmodel.shared_cost_model`) that every
serving and cluster evaluation looks its models up in, so candidates
that differ only in engine knobs or routing policy never re-price a
step shape.  The pool's models also share one table of sub-graph
prices, so candidates that differ in plan, ``t`` or pipeline depth
price each MLP and decode shape once between them; deeper down,
:mod:`repro.gpu.simcache` memoizes the kernel-level simulations shared
between the remaining shapes.
Infeasible candidates (any :class:`~repro.common.errors.ReproError`
from construction or execution) score ``inf`` instead of aborting the
search.
"""

from __future__ import annotations

import math
from dataclasses import replace

from repro.common.errors import ReproError, TuneError
from repro.common.scenario import apply_config
from repro.obs.tracer import current_tracer

#: Tuning objectives.  All are minimized internally; ``throughput`` is
#: negated (maximize tokens/s == minimize its negation).
OBJECTIVES = ("latency", "ttft_p99", "tpot_p99", "throughput")

#: Evaluation backends.
MODES = ("inference", "serving", "cluster")


def canonical_score(objective: str, value: float) -> float:
    """Lower-is-better score for any objective (``inf`` stays ``inf``)."""
    if objective == "throughput" and math.isfinite(value):
        return -value
    return value


def default_mode(objective: str, sim: str = "serving") -> str:
    """The evaluation backend an objective implies.

    ``latency`` is a single-inference property; the serving objectives
    go through ``sim`` (``serving`` or ``cluster``).
    """
    if objective not in OBJECTIVES:
        raise TuneError(f"unknown objective {objective!r}; choose from "
                        f"{', '.join(OBJECTIVES)}")
    if objective == "latency":
        return "inference"
    if sim not in ("serving", "cluster"):
        raise TuneError(f"unknown simulator {sim!r}; choose from "
                        f"serving, cluster")
    return sim


class ScenarioEvaluator:
    """Memoizing objective function over one scenario."""

    def __init__(self, spec, objective: str, mode: str) -> None:
        if objective not in OBJECTIVES:
            raise TuneError(
                f"unknown objective {objective!r}; choose from "
                f"{', '.join(OBJECTIVES)}")
        if mode not in MODES:
            raise TuneError(f"unknown mode {mode!r}; choose from "
                            f"{', '.join(MODES)}")
        if objective == "latency" and mode != "inference":
            raise TuneError("objective 'latency' is a single-inference "
                            "property; it requires mode='inference'")
        if objective != "latency" and mode == "inference":
            raise TuneError(f"objective {objective!r} is a serving "
                            f"property; it requires a serving or "
                            f"cluster mode")
        self.spec = spec
        self.objective = objective
        self.mode = mode
        #: Fresh (non-memoized) evaluations performed so far.
        self.evaluations = 0
        self._memo: "dict[tuple, float]" = {}
        #: Priced step-cost models, one per pricing key, and their
        #: shared sub-graph prices, for every evaluation of this call.
        self._costs: dict = {}
        self._workloads: "dict[float, object]" = {}

    # -- memo bookkeeping -----------------------------------------------

    @staticmethod
    def _key(config: "dict[str, object]", fidelity: float) -> tuple:
        return (tuple(sorted(config.items())), fidelity)

    def seen(self, config: "dict[str, object]", fidelity: float) -> bool:
        """True when this evaluation is already memoized (free)."""
        return self._key(config, fidelity) in self._memo

    def evaluate(self, config: "dict[str, object]",
                 fidelity: float = 1.0) -> float:
        """Raw objective value of ``config`` (``inf`` if infeasible).

        Fresh evaluations increment :attr:`evaluations`; memoized
        repeats are free.
        """
        key = self._key(config, fidelity)
        if key in self._memo:
            return self._memo[key]
        tracer = current_tracer()
        self.evaluations += 1
        try:
            value = self._evaluate(config, fidelity)
        except ReproError:
            value = math.inf
        if tracer.enabled:
            tracer.metrics.counter("tune.evaluations").inc()
            if not math.isfinite(value):
                tracer.metrics.counter("tune.infeasible").inc()
        self._memo[key] = value
        return value

    # -- backends -------------------------------------------------------

    def _evaluate(self, config, fidelity: float) -> float:
        spec = apply_config(self.spec, config)
        if self.mode == "inference":
            from repro.models.runtime import InferenceSession

            return InferenceSession(
                spec.resolve_model(), gpu=spec.gpu, plan=spec.plans[0],
                seq_len=spec.workload.seq_len, batch=spec.workload.batch,
                t=spec.workload.t,
            ).simulate().total_time
        from repro.cluster.router import ClusterSimulator
        from repro.serving.simulator import ServingSimulator

        simulator = (ServingSimulator if self.mode == "serving"
                     else ClusterSimulator)
        report = simulator(
            spec.resolve_model(), spec.gpu, plan=spec.plans[0],
            workload=self._workload(fidelity), costs=self._costs,
            **spec.simulator_kwargs(self.mode),
        ).run()
        if self.objective == "ttft_p99":
            return report.ttft.p99
        if self.objective == "tpot_p99":
            return report.tpot.p99
        return report.throughput_tokens_per_s

    def _workload(self, fidelity: float):
        """The request stream at a fidelity, built once per level.

        The synthetic stream scales its arrival window by ``fidelity``,
        so every candidate at one level replays the identical stream.
        A replayed trace has a fixed length and is pinned to fidelity
        1.0: it is loaded once and used whole at every level.
        """
        workload = self.spec.workload
        if workload.trace_file:
            fidelity = 1.0
        if fidelity not in self._workloads:
            self._workloads[fidelity] = replace(self.spec, workload=replace(
                workload, duration=workload.duration * fidelity),
            ).make_workload()
        return self._workloads[fidelity]


def score_config(spec, config: "dict[str, object]", *, objective: str,
                 mode: str) -> float:
    """Full-fidelity raw objective value of one configuration.

    The round-trip check for tuned-plan artifacts: re-scoring the
    recorded winner must reproduce the recorded value exactly (the
    whole stack is deterministic).
    """
    return ScenarioEvaluator(spec, objective, mode).evaluate(config, 1.0)
