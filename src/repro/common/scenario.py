"""One scenario object shared by every simulator and the autotuner.

Historically each CLI subcommand re-declared its model / device /
workload / arrival / sharding flags and every simulator took a
slightly different constructor shape, which made a tuned-plan artifact
impossible to consume uniformly.  :class:`ScenarioSpec` is the fix: a
frozen, JSON-round-trippable description of *what* to simulate —

- **model/device** — model name (or a ModelConfig JSON path) and GPU;
- **workload** (:class:`WorkloadSpec`) — arrival rate, window, seed,
  trace file, engine knobs (chunk/batch/block/tile sizes), and the
  single-inference shape;
- **arrival** (:class:`ArrivalSpec`) — the arrival-process family and
  its parameters (``kind=None`` keeps the legacy Poisson stream and
  reports byte-identical to earlier releases);
- **sharding** (:class:`ShardingSpec`) — replicas, TP×PP, routing
  policy, collective algorithm, interconnect;
- **plan source** — the plans to compare, or a tuned-plan artifact
  (``plan_file``) that pins both the plan and the knobs it tuned.

The four sections are the one table of scenario fields:
:data:`SECTIONS` drives :meth:`ScenarioSpec.from_args`,
:meth:`~ScenarioSpec.from_dict` and :meth:`~ScenarioSpec.to_dict`, and
the shared parent parsers (:func:`add_workload_args`,
:func:`add_sharding_args`) declare no defaults, so a field's dataclass
default is its flag's default.  ``repro tune`` emits artifacts whose
``scenario`` section *is* ``spec.to_dict()``, so tuner output and
simulator input are the same object.

A tuned configuration has one meaning, too: :data:`TUNABLE_AXES` maps
each tunable knob to its spec section.  Search-space defaults are read
through it (:func:`read_config`); the tuner's evaluator and
``plan_file`` replays both run :func:`apply_config` of a configuration
through :meth:`ScenarioSpec.simulator_kwargs`, so a replay reports
exactly what the tuner scored.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Optional

from repro.common.errors import ScenarioError

#: Schema tag stamped on serialized scenarios (nested inside tuned-plan
#: artifacts and accepted back by ``ScenarioSpec.from_dict``).
SCENARIO_SCHEMA = "repro.scenario/v1"


def _from_mapping(cls, mapping, *, where: str):
    """Build dataclass ``cls`` from ``mapping``, rejecting unknowns."""
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where}: expected an object, got "
                            f"{type(mapping).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(mapping) - known)
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {unknown}")
    return cls(**mapping)


@dataclass(frozen=True)
class WorkloadSpec:
    """The request stream and per-engine knobs of a scenario."""

    rate: float = 8.0
    duration: float = 60.0
    seed: int = 0
    #: JSONL request trace replayed instead of the synthetic workload.
    trace_file: Optional[str] = None
    chunk_tokens: int = 512
    max_batch: int = 32
    block_tokens: int = 64
    #: Softmax decomposition tile width (no CLI flag; tuned plans set it).
    t: int = 64
    engine: str = "epoch"
    #: Synthetic shared-prefix groups (cluster workloads; 0 = none).
    prefix_groups: int = 0
    #: Single-inference shape (``latency`` objective / ``simulate``).
    seq_len: int = 4096
    batch: int = 1
    #: Speculative decoding: draft model name (``None`` disables — the
    #: default keeps reports byte-identical to earlier releases).
    draft_model: Optional[str] = None
    draft_len: int = 4
    accept_rate: float = 1.0


@dataclass(frozen=True)
class ArrivalSpec:
    """Arrival-process family and parameters (``kind=None`` = legacy
    Poisson stream, not echoed into reports)."""

    kind: Optional[str] = None
    burst_rate: float = 0.0
    base_dwell: float = 20.0
    burst_dwell: float = 5.0
    period: float = 0.0


@dataclass(frozen=True)
class MoESpec:
    """Mixture-of-experts overlay applied to the scenario's model.

    ``n_experts=1`` (the default) leaves the model untouched, so every
    pre-MoE scenario document keeps meaning exactly what it meant.
    With ``n_experts > 1`` the dense model's FFN is replaced by a
    routed expert bank (:func:`repro.models.moe.moe_overrides`).
    """

    n_experts: int = 1
    top_k: int = 1
    capacity_factor: float = 1.25


@dataclass(frozen=True)
class ShardingSpec:
    """Fleet shape: replicas, TP×PP×EP, routing, and interconnect."""

    replicas: int = 2
    tp: int = 1
    pp: int = 1
    #: Expert-parallel shards (MoE models only; 1 = all experts
    #: resident on every TP group).
    ep: int = 1
    policy: str = "round-robin"
    algorithm: str = "ring"
    interconnect: str = "nvlink3"
    jobs: int = 1


#: The scenario's sections, by field name: the one table of section
#: fields that :meth:`ScenarioSpec.from_args`, ``from_dict`` and
#: ``to_dict`` read, so a new scenario knob is one dataclass field.
SECTIONS = {
    "workload": WorkloadSpec,
    "arrival": ArrivalSpec,
    "sharding": ShardingSpec,
    "moe": MoESpec,
}

#: Section fields whose flag is named otherwise: ``--arrival`` picks
#: ``arrival.kind``.  Every other field's flag is its name.
_FLAG_NAMES = {"arrival": {"kind": "arrival"}}


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, serializable simulation scenario."""

    model: str = "bert-large"
    model_json: Optional[str] = None
    gpu: str = "A100"
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    sharding: ShardingSpec = field(default_factory=ShardingSpec)
    moe: MoESpec = field(default_factory=MoESpec)
    #: Plans to compare, in report order.
    plans: "tuple[str, ...]" = ("baseline", "sdf")
    #: Tuned-plan artifact pinning the plan + knobs (overrides both).
    plan_file: Optional[str] = None

    # -- construction ---------------------------------------------------

    @classmethod
    def from_args(cls, args) -> "ScenarioSpec":
        """Build a spec from an argparse namespace.

        Each field takes the namespace attribute of its flag's name
        when the namespace carries one that is not ``None``, and keeps
        its dataclass default otherwise.  So the flags declare no
        defaults of their own, and one reader serves ``serve-sim`` (no
        sharding flags), ``cluster-sim``/``controlplane-sim`` and
        ``tune``; a command that needs another default sets it on its
        own parser.
        """
        def given(spec_cls, flags):
            return {f.name: value for f in fields(spec_cls)
                    if (value := getattr(args, flags.get(f.name, f.name),
                                         None)) is not None}

        kwargs = {key: value for key, value in given(cls, {}).items()
                  if key not in SECTIONS}
        kwargs.update(
            (key, section(**given(section, _FLAG_NAMES.get(key, {}))))
            for key, section in SECTIONS.items())
        plans = kwargs.pop("plans", None)
        if isinstance(plans, str):
            plans = tuple(p.strip() for p in plans.split(","))
        if plans:
            kwargs["plans"] = tuple(plans)
        return cls(**kwargs)

    @classmethod
    def from_dict(cls, document: "dict[str, object]") -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Unknown fields or a foreign schema tag raise
        :class:`~repro.common.errors.ScenarioError` — a scenario that
        silently drops fields would simulate something else.
        """
        if not isinstance(document, dict):
            raise ScenarioError(
                f"scenario: expected an object, got "
                f"{type(document).__name__}")
        document = dict(document)
        schema = document.pop("schema", SCENARIO_SCHEMA)
        if schema != SCENARIO_SCHEMA:
            raise ScenarioError(
                f"scenario schema mismatch: expected {SCENARIO_SCHEMA!r}, "
                f"got {schema!r}")
        kwargs: "dict[str, object]" = {}
        for key, value in document.items():
            if key in SECTIONS:
                kwargs[key] = _from_mapping(SECTIONS[key], value,
                                            where=f"scenario.{key}")
            elif key == "plans":
                kwargs[key] = tuple(value)
            elif key in {f.name for f in fields(cls)}:
                kwargs[key] = value
            else:
                raise ScenarioError(f"scenario: unknown field {key!r}")
        return cls(**kwargs)

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready mapping; ``from_dict`` inverts it exactly."""
        return {"schema": SCENARIO_SCHEMA,
                **asdict(self), "plans": list(self.plans)}

    # -- resolution helpers ---------------------------------------------

    def resolve_model(self):
        """Model name or, with ``model_json``, the loaded ModelConfig.

        With ``moe.n_experts > 1`` the resolved model gets the
        mixture-of-experts overlay applied; the degenerate default is
        the identity, so dense scenarios resolve to exactly what they
        always did (names included).
        """
        if self.model_json:
            from repro.models.serialization import load_config

            model = load_config(self.model_json)
        else:
            model = self.model
        if self.moe.n_experts > 1:
            from repro.models.config import get_model
            from repro.models.moe import moe_overrides

            model = moe_overrides(
                get_model(model),
                n_experts=self.moe.n_experts,
                top_k=self.moe.top_k,
                capacity_factor=self.moe.capacity_factor,
            )
        return model

    def make_arrival(self):
        """The arrival process selected by ``arrival.kind``, or ``None``.

        ``None`` keeps the workload on its legacy default Poisson
        stream and the result document byte-identical to earlier
        releases; any explicit choice — including ``"poisson"`` — is
        echoed into the report's ``arrival`` field.
        """
        if self.arrival.kind is None:
            return None
        from repro.serving import make_arrival

        return make_arrival(
            self.arrival.kind, rate=self.workload.rate,
            burst_rate=self.arrival.burst_rate,
            base_dwell=self.arrival.base_dwell,
            burst_dwell=self.arrival.burst_dwell,
            period=self.arrival.period, duration=self.workload.duration,
        )

    def interconnect_spec(self):
        """The named intra-replica interconnect."""
        from repro.gpu.interconnect import NVLINK3, PCIE4

        specs = {"nvlink3": NVLINK3, "pcie4": PCIE4}
        try:
            return specs[self.sharding.interconnect]
        except KeyError:
            raise ScenarioError(
                f"unknown interconnect {self.sharding.interconnect!r}; "
                f"choose from {', '.join(sorted(specs))}") from None

    def resolved(self) -> "ScenarioSpec":
        """The spec with any ``plan_file`` artifact applied.

        The artifact is authoritative for the plan and every knob it
        tuned (see :data:`TUNABLE_AXES`): consuming a tuned plan means
        running the configuration that won, not a hybrid.  Returns
        ``self`` when no artifact is set.
        """
        if self.plan_file is None:
            return self
        from repro.tune.artifact import load_tuned_plan

        return apply_tuned_plan(self, load_tuned_plan(self.plan_file))

    def make_workload(self):
        """The request stream this scenario replays.

        The one scenario-level
        :class:`~repro.serving.requests.ServingWorkload`: it replays
        ``trace_file`` when one is set and samples the synthetic stream
        otherwise.  Either way it carries the rate, duration, seed and
        arrival process the report header echoes.
        """
        from repro.serving.requests import ServingWorkload, load_trace

        workload = self.workload
        trace = (load_trace(workload.trace_file,
                            block_tokens=workload.block_tokens)
                 if workload.trace_file else None)
        return ServingWorkload(
            rate=workload.rate, duration=workload.duration,
            seed=workload.seed, block_tokens=workload.block_tokens,
            prefix_groups=workload.prefix_groups,
            arrival=self.make_arrival(), trace=trace,
        )

    def simulator_kwargs(self, sim: str) -> "dict[str, object]":
        """This scenario's keywords for the ``sim`` simulator.

        The one scenario -> simulator mapping (``sim`` is ``serving``,
        ``cluster`` or ``controlplane``), shared by the ``run_*`` entry
        points and the tuner's evaluator, so a tuned configuration
        means the same thing when it is scored and when it is replayed.
        """
        workload, sharding = self.workload, self.sharding
        kwargs = {
            "chunk_tokens": workload.chunk_tokens,
            "max_batch": workload.max_batch,
            "block_tokens": workload.block_tokens, "t": workload.t,
        }
        if sim != "serving":
            kwargs.update(replicas=sharding.replicas, tp=sharding.tp,
                          pp=sharding.pp, policy=sharding.policy)
        kwargs["engine"] = workload.engine
        if sim != "controlplane":
            kwargs.update(draft_model=workload.draft_model,
                          draft_len=workload.draft_len,
                          accept_rate=workload.accept_rate)
        if sim == "cluster":
            kwargs.update(ep=sharding.ep, algorithm=sharding.algorithm,
                          interconnect=self.interconnect_spec(),
                          jobs=sharding.jobs)
        return kwargs

    # -- simulator entry points -----------------------------------------

    def _run(self, sim: str, simulate, **own):
        """``simulate`` over the resolved scenario's workload: the body
        every ``run_*`` entry point shares.  ``own`` holds the ``sim``
        simulator's own arguments."""
        spec = self.resolved()
        return simulate(
            spec.resolve_model(), spec.gpu, spec.make_workload(),
            plans=spec.plans, **own, **spec.simulator_kwargs(sim),
        )

    def run_serving(self):
        """Single-node serving comparison over this scenario."""
        from repro.serving import simulate_serving

        return self._run("serving", simulate_serving)

    def run_cluster(self):
        """Sharded multi-replica comparison over this scenario."""
        from repro.cluster import simulate_cluster

        return self._run("cluster", simulate_cluster)

    def run_controlplane(self, *, tiers=None, autoscaler=None, faults=None,
                         shed_backlog_tokens: float = 0.0,
                         cold_start_s: "float | None" = None):
        """Control-plane run (SLO tiers, autoscaling, faults) over this
        scenario.  Control-loop configuration stays a call-site choice
        — it describes the controller, not the scenario.  The control
        plane has no speculative decoding: asking for a draft model
        raises ``ScenarioError``, and the speculation knobs are still
        checked, with the typed errors ``serve-sim`` raises, so a bad
        value never passes silently.
        """
        from repro.controlplane import DEFAULT_TIERS, simulate_controlplane
        from repro.serving.specdecode import check_spec_knobs

        if self.workload.draft_model is not None:
            raise ScenarioError(
                "the control plane does not support --draft-model")
        check_spec_knobs(self.workload.draft_len, self.workload.accept_rate)
        return self._run(
            "controlplane", simulate_controlplane,
            tiers=tiers if tiers is not None else DEFAULT_TIERS,
            autoscaler=autoscaler, faults=faults,
            shed_backlog_tokens=shed_backlog_tokens,
            cold_start_s=cold_start_s)


#: Where each tunable knob lives in a :class:`ScenarioSpec`, by
#: section.  The one table a tuned configuration is read and written
#: through: a new tunable knob is added here and nowhere else.
TUNABLE_AXES = {
    "t": "workload",
    "chunk_tokens": "workload",
    "max_batch": "workload",
    "draft_len": "workload",
    "top_k": "moe",
    "tp": "sharding",
    "pp": "sharding",
    "policy": "sharding",
    "plan": "plans",
}


def read_config(spec: ScenarioSpec, axes) -> "dict[str, object]":
    """The configuration ``spec`` runs, for the given ``axes``.

    The plan is the incumbent: the last entry of ``plans`` (the CLI
    convention puts the optimised plan last, e.g. ``baseline,sdf``).
    """
    return {
        axis: (spec.plans[-1] if TUNABLE_AXES[axis] == "plans"
               else getattr(getattr(spec, TUNABLE_AXES[axis]), axis))
        for axis in axes
    }


def apply_config(spec: ScenarioSpec, config) -> ScenarioSpec:
    """``spec`` running ``config``: the inverse of :func:`read_config`.

    Pins ``plans`` to the configured plan and overwrites exactly the
    knobs ``config`` carries; everything else (model, device, workload
    shape, arrival process) stays the scenario's own.  The result has
    no ``plan_file``, since the configuration is now authoritative.
    """
    unknown = sorted(set(config) - set(TUNABLE_AXES))
    if unknown:
        raise ScenarioError(f"unknown tunable knobs {unknown}; choose "
                            f"from {', '.join(TUNABLE_AXES)}")
    sections: "dict[str, dict]" = {}
    for axis, value in config.items():
        sections.setdefault(TUNABLE_AXES[axis], {})[axis] = value
    updates = {name: replace(getattr(spec, name), **values)
               for name, values in sections.items() if name != "plans"}
    if "plans" in sections:
        updates["plans"] = (str(config["plan"]),)
    return replace(spec, plan_file=None, **updates)


def apply_tuned_plan(spec: ScenarioSpec, artifact) -> ScenarioSpec:
    """``spec`` with a tuned-plan artifact's winner applied."""
    return apply_config(spec, artifact.winner_config)


# -- shared argparse parents -----------------------------------------------


def add_workload_args(parser) -> None:
    """The model/device/workload/arrival flag set every serving-style
    subcommand shares (``serve-sim``, ``cluster-sim``,
    ``controlplane-sim``, ``trace``, ``tune``).

    No flag here or in :func:`add_sharding_args` declares a default:
    an omitted flag keeps its field's dataclass default
    (:meth:`ScenarioSpec.from_args`).
    """
    from repro.gpu.specs import preset_names as gpu_presets
    from repro.models.config import preset_names as model_presets

    parser.add_argument("--model", help=" | ".join(model_presets()))
    parser.add_argument("--model-json",
                        help="path to a custom ModelConfig JSON file "
                             "(overrides --model)")
    parser.add_argument("--gpu", help=" | ".join(gpu_presets()))
    parser.add_argument("--rate", type=float,
                        help="Poisson arrival rate, requests/second")
    parser.add_argument("--duration", type=float,
                        help="arrival-window length, seconds (the run "
                             "continues until every request drains)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--arrival",
                        choices=("poisson", "mmpp", "diurnal"),
                        help="arrival process; default keeps the legacy "
                             "Poisson stream (mmpp: bursty two-state; "
                             "diurnal: day-curve thinning)")
    parser.add_argument("--burst-rate", type=float,
                        help="mmpp burst-state rate, req/s (default "
                             "4x --rate)")
    parser.add_argument("--base-dwell", type=float,
                        help="mmpp mean base-state dwell, seconds")
    parser.add_argument("--burst-dwell", type=float,
                        help="mmpp mean burst-state dwell, seconds")
    parser.add_argument("--period", type=float,
                        help="diurnal day-curve period, seconds "
                             "(default: --duration, i.e. one compressed "
                             "day per run)")
    parser.add_argument("--plans",
                        help="comma-separated plans to compare "
                             "(baseline, sd, sdf)")
    parser.add_argument("--plan-file",
                        help="tuned-plan artifact (repro.tuned_plan/v1, "
                             "from `repro tune`); pins the plan and the "
                             "knobs it tuned, overriding --plans")
    parser.add_argument("--trace-file",
                        help="JSONL request trace to replay instead of "
                             "the synthetic Poisson workload")
    parser.add_argument("--chunk-tokens", type=int,
                        help="prefill chunk size / per-step prefill budget")
    parser.add_argument("--max-batch", type=int,
                        help="max concurrently running requests")
    parser.add_argument("--block-tokens", type=int,
                        help="KV-cache block size, tokens")
    parser.add_argument("--engine", choices=("epoch", "event"),
                        help="stepping mode: epoch-batched fast path "
                             "(default) or the classic per-step event loop "
                             "(identical output, slower)")
    parser.add_argument("--n-experts", type=int,
                        help="mixture-of-experts expert count applied to "
                             "the model's FFN (1 = dense, the default)")
    parser.add_argument("--top-k", type=int,
                        help="experts each token routes to (MoE only)")
    parser.add_argument("--capacity-factor", type=float,
                        help="per-expert capacity slack over the balanced "
                             "load (MoE only)")
    parser.add_argument("--draft-model",
                        help="draft model enabling speculative decoding "
                             "(default: disabled)")
    parser.add_argument("--draft-len", type=int,
                        help="speculation depth: draft tokens per round")
    parser.add_argument("--accept-rate", type=float,
                        help="modeled per-round draft acceptance rate "
                             "in [0, 1]")


def add_sharding_args(parser) -> None:
    """The fleet-shape flag set (``cluster-sim``, ``trace --sim
    cluster``, ``tune --sim cluster``)."""
    parser.add_argument("--replicas", type=int,
                        help="model replicas behind the router")
    parser.add_argument("--tp", type=int,
                        help="tensor-parallel GPUs per replica")
    parser.add_argument("--pp", type=int,
                        help="pipeline-parallel stages per replica")
    parser.add_argument("--ep", type=int,
                        help="expert-parallel shards per replica (MoE "
                             "models; must divide --n-experts)")
    parser.add_argument("--policy",
                        choices=("round-robin", "least-outstanding",
                                 "prefix-affinity"),
                        help="request-routing policy")
    parser.add_argument("--algorithm", choices=("ring", "tree"),
                        help="all-reduce algorithm inside each replica")
    parser.add_argument("--interconnect", choices=("nvlink3", "pcie4"),
                        help="intra-replica GPU interconnect")
    parser.add_argument("--prefix-groups", type=int,
                        help="synthetic shared-prefix groups in the "
                             "workload (0 = none)")
    parser.add_argument("--jobs", type=int,
                        help="worker processes for sharded replica "
                             "simulation (round-robin policy only; "
                             "results are identical either way)")

