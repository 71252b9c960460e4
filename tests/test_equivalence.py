"""The engine-equivalence table: one row per scenario, each checked by
:func:`repro.verify.equivalence.compare_runs` (the contract is written
down there).

Tier-1 runs each row in its ``cells``, a covering subset;
``pytest --all-cells`` (``make equivalence``) runs every row in every
cell that applies to it.  A row is not vacuous: its epoch cells take
epoch steps and its event cells none, and its own ``feature`` really
happens.  A row's step ``budget`` falls inside an epoch and must stop
every cell at exactly ``budget + 1`` steps.
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.cluster import POLICIES, ClusterSimulator, simulate_cluster
from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.controlplane import (
    AutoscalerConfig,
    ControlPlaneSimulator,
    FailureSchedule,
)
from repro.gpu import simcache
from repro.gpu.specs import get_gpu
from repro.models.config import AttentionKind, AttentionSpec, ModelConfig
from repro.models.footprint import weight_bytes
from repro.models.moe import MoEConfig
from repro.obs import current_tracer
from repro.serving import (
    MMPPArrivals,
    ServingSimulator,
    ServingWorkload,
    simulate_serving,
)
from repro.verify.equivalence import (
    Cell,
    CellRun,
    all_cells,
    compare_runs,
    run_cells,
    strip_trace_summary,
)
from tests.conftest import tiny_gpu

UNTRACED = (Cell("event"), Cell("epoch"))
TRACED = (Cell("event", traced=True), Cell("epoch", traced=True))
EVERY = UNTRACED + TRACED


def row(name, simulate, cells, *, jobs=(1,), tracing=(False, True),
        feature=None, budget=None, **kwargs):
    """``simulate(cell, **kwargs)`` runs the scenario; ``jobs`` and
    ``tracing`` are the worker counts and tracing states that apply."""
    return SimpleNamespace(**locals())


def serving(cell, *, model="bert-large", gpu="a100", workload, **kwargs):
    return ServingSimulator(model, gpu, plan="sdf", engine=cell.engine,
                            workload=workload, **kwargs).run()


def serving_plans(cell, *, workload):
    return simulate_serving("bert-large", "a100", workload,
                            engine=cell.engine)


def cluster(cell, *, model="bert-large", gpu="a100", workload, **kwargs):
    return ClusterSimulator(model, gpu, plan="sdf", engine=cell.engine,
                            jobs=cell.jobs, workload=workload,
                            **kwargs).run()


def cluster_plans(cell, *, prefix_groups=0, **kwargs):
    workload = ServingWorkload(rate=6.0, duration=6.0, seed=3,
                               prefix_groups=prefix_groups)
    return simulate_cluster("bert-large", "a100", workload, replicas=3,
                            plans=("baseline", "sdf"), engine=cell.engine,
                            jobs=cell.jobs, **kwargs)


def controlplane(cell, *, workload, **kwargs):
    return ControlPlaneSimulator("bert-large", "a100", plan="sdf",
                                 replicas=2, engine=cell.engine,
                                 workload=workload, **kwargs).run()


def preempts(run, _):
    return run.doc["preemption_events"] > 0


def streams(run, _):
    """Percentiles came from the sketch (the sdf plan's, in a cluster)."""
    return run.doc.get("plans", {"sdf": run.doc})["sdf"].get(
        "approx_percentiles") is True


def requeues(run, _):
    return any(fault["kind"] == "death" and fault["requeued"] > 0
               for fault in run.doc["controlplane"]["faults"])


def stream(rate=4.0, duration=8.0, seed=7, **kwargs):
    return ServingWorkload(rate=rate, duration=duration, seed=seed, **kwargs)


#: Tight memory that forces evict-and-recompute.
PREEMPT = dict(gpu=tiny_gpu(blocks=48, reserve_fraction=0.0),
               reserve_fraction=0.0, max_batch=4)

SERVING_ROWS = [
    row("serving-small", serving, EVERY, workload=stream(),
        feature=lambda run, _: "approx_percentiles" not in run.doc),
    # Long outputs, short prompts: epochs batch hundreds of steps.
    row("serving-decode-heavy", serving, UNTRACED,
        workload=stream(rate=1.0, duration=30.0, max_prompt=512,
                        mean_output=256)),
    row("serving-preempt", serving, UNTRACED, feature=preempts,
        workload=stream(rate=8.0, duration=10.0, seed=3, mean_output=128),
        **PREEMPT),
    *[row(f"serving-max-epoch-{cap}", serving, UNTRACED, workload=stream(),
          max_epoch=cap) for cap in (1, 2, 3, 4096)],
    # A zero cutover streams the latency aggregates.  A traced run
    # retains every request for its spans, which turns streaming off,
    # so traced cells do not apply.
    row("serving-streaming", serving, UNTRACED, tracing=(False,),
        workload=stream(), latency_cutover=0, feature=streams),
    row("serving-plans", serving_plans, (Cell("epoch"),
                                         Cell("epoch", traced=True)),
        workload=stream(rate=3.0, duration=2.0, seed=0),
        feature=lambda run, _: (run.cell.traced or
                                strip_trace_summary(run.doc) == run.doc)),
]

CLUSTER_ROWS = [
    row("cluster-round-robin", cluster_plans,
        UNTRACED + (Cell("epoch", jobs=2), Cell("epoch", jobs=3)),
        jobs=(1, 2, 3)),
    *[row(f"cluster-{policy}", cluster_plans, UNTRACED, policy=policy,
          prefix_groups=4)
      for policy in ("least-outstanding", "prefix-affinity")],
    row("cluster-streaming", cluster_plans,
        (Cell("epoch"), Cell("epoch", jobs=2)), jobs=(1, 2),
        tracing=(False,), latency_cutover=0, feature=streams),
]


def tiny_model(name, num_layers=2, d_model=128):
    return ModelConfig(
        name, num_layers=num_layers, d_model=d_model, num_heads=4,
        d_ff=2 * d_model,
        attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
    )


SPEC_TARGET = tiny_model("tiny-causal")
SPEC_MOE = MoEConfig.from_dense(SPEC_TARGET, n_experts=4, top_k=2)
SPEC_BLOCK = 16
#: A draft runs ahead of every target: with 16-token blocks a 32-deep
#: draft emits up to 33 tokens a round, so one round grows several
#: blocks.
SPEC = dict(model=SPEC_TARGET, block_tokens=SPEC_BLOCK,
            chunk_tokens=4 * SPEC_BLOCK, max_batch=4, draft_len=4,
            draft_model=tiny_model("tiny-draft", num_layers=1, d_model=64),
            accept_rate=0.75)


def spec_stream(rate=20.0, mean_output=48):
    return stream(rate=rate, duration=1.0, seed=5, max_prompt=96,
                  mean_output=mean_output, block_tokens=SPEC_BLOCK)


def tight_reserve(blocks):
    """The A100 ``reserve_fraction`` that leaves the speculative target a
    KV pool of about ``blocks`` blocks."""
    model, hbm = SPEC_TARGET, get_gpu("a100").hbm_bytes
    pool = blocks * SPEC_BLOCK * 2 * model.num_layers * model.d_model * 2
    return 1 - (pool + weight_bytes(model, DType.FP16)) / hbm


def wide(_, engines):
    """A speculative round emits more tokens than a KV block holds."""
    return engines[-1].spec_decode.tokens_per_round > SPEC_BLOCK


#: Untraced speculative runs share one price pool (prices are a pure
#: function of their key); a traced run prices, and traces, its own.
SPEC_COSTS = {}


def speculative(name, cells=UNTRACED, simulate=serving, **overrides):
    def run(cell, **kwargs):
        costs = None if cell.traced else SPEC_COSTS
        return simulate(cell, costs=costs, **kwargs)

    return row(name, run, cells,
               **{**SPEC, "workload": spec_stream(), **overrides})


PREEMPT_SPEC = dict(reserve_fraction=tight_reserve(24),
                    workload=spec_stream(rate=40.0, mean_output=96))

#: Accept rate x draft length, a batch cap that keeps requests waiting,
#: tight memory that preempts, degenerate epoch caps and a MoE target.
SPEC_ROWS = [
    speculative(f"spec-a{accept}-g{gamma}", accept_rate=accept,
                draft_len=gamma,
                feature=wide if 1 + int(accept * gamma) > SPEC_BLOCK
                else None)
    for accept in (0.0, 0.5, 0.75, 1.0) for gamma in (1, 4, 32)
] + [
    speculative("spec-max-batch-2", max_batch=2),
    speculative("spec-preempt", draft_len=8, feature=preempts,
                **PREEMPT_SPEC),
    speculative("spec-preempt-wide", draft_len=32,
                feature=lambda run, engines: (preempts(run, engines)
                                              and wide(run, engines)),
                **PREEMPT_SPEC),
    *[speculative(f"spec-max-epoch-{cap}", max_epoch=cap)
      for cap in (1, 2, 3)],
    speculative("spec-moe", model=SPEC_MOE),
    speculative("spec-cluster-tp2-ep2", simulate=cluster, model=SPEC_MOE,
                replicas=2, tp=2, ep=2, policy="least-outstanding",
                workload=spec_stream(rate=30.0),
                feature=lambda run, _: run.doc["comm_time_s"] > 0),
]

#: Full Chrome event lists: plain serving under every epoch cap, tight
#: memory, speculative rounds at stride 1 and 3, a TP cluster and a
#: control plane that bursts, boots a replica, loses one and slows
#: another.
TRACED_ROWS = [
    row("traced-serving", serving, TRACED, workload=stream(duration=4.0)),
    *[row(f"traced-max-epoch-{cap}", serving, TRACED,
          workload=stream(duration=4.0), max_epoch=cap)
      for cap in (1, 2, 3, 4096)],
    row("traced-preempt", serving, TRACED, feature=preempts,
        workload=stream(rate=8.0, duration=3.0, seed=3, mean_output=128),
        **PREEMPT),
    *[speculative(f"traced-spec-g{gamma}", TRACED, draft_len=gamma)
      for gamma in (1, 3)],
    row("traced-cluster-tp2", cluster, TRACED, replicas=2, tp=2,
        policy="least-outstanding",
        workload=stream(rate=6.0, duration=3.0, seed=3)),
    row("traced-controlplane", controlplane, TRACED, feature=requeues,
        workload=stream(rate=4.0, duration=3.0, seed=2,
                        arrival=MMPPArrivals(rate=4.0, burst_rate=16.0,
                                             base_dwell=1.0,
                                             burst_dwell=0.5)),
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=3,
                                    cold_start_s=0.2),
        faults=FailureSchedule(deaths=(1.0,), stragglers=((0.5, 2.0),))),
]

FAULTS = {
    "death": FailureSchedule(deaths=(1.5,)),
    "straggler": FailureSchedule(stragglers=((1.0, 2.5),)),
    "both": FailureSchedule(deaths=(2.0,), stragglers=((1.0, 2.5),)),
}


def small_controlplane(*, autoscale=True, faults="both", shed=False,
                       policy="least-outstanding"):
    """A 4 s MMPP burst that scales, sheds and fails over."""
    return dict(
        workload=stream(rate=2.0, duration=4.0, seed=11, prefix_groups=3,
                        arrival=MMPPArrivals(rate=2.0, burst_rate=12.0,
                                             base_dwell=2.0,
                                             burst_dwell=1.0)),
        policy=policy, faults=FAULTS[faults], cold_start_s=0.1,
        autoscaler=(AutoscalerConfig(min_replicas=2, max_replicas=4,
                                     cold_start_s=0.1)
                    if autoscale else None),
        shed_backlog_tokens=1500.0 if shed else 0.0)


#: In a multi-lane run the untraced one (no lockstep, so its own epoch
#: boundaries) reports what both traced runs do.
EPOCH_AND_TRACED = (Cell("epoch"),) + TRACED

#: Only least-outstanding routing loads the replica the 2 s death hits.
CONTROLPLANE_ROWS = [
    row(f"controlplane-{'autoscale' if autoscale else 'static'}-{faults}-"
        f"{'shed' if shed else 'no-shed'}-{policy}", controlplane,
        EPOCH_AND_TRACED,
        feature=(requeues if (faults, policy) == ("both", "least-outstanding")
                 else None),
        **small_controlplane(autoscale=autoscale, faults=faults, shed=shed,
                             policy=policy))
    for autoscale in (False, True) for faults in sorted(FAULTS)
    for shed in (False, True) for policy in sorted(POLICIES)
]

#: Each budget falls inside an epoch (a pure-decode one, or a
#: speculative one at stride 4).  A sharded run counts the budget per
#: replica, so these rows run at one worker.
BUDGET_ROWS = [
    row("budget-serving", serving, EVERY, budget=100,
        workload=stream(duration=5.0, seed=0)),
    row("budget-cluster", cluster, EPOCH_AND_TRACED, budget=100,
        model=tiny_model("tiny-cluster"), gpu="t4", replicas=2,
        workload=stream(duration=5.0, seed=0)),
    row("budget-controlplane", controlplane, EPOCH_AND_TRACED, budget=100,
        **small_controlplane(autoscale=False, faults="death")),
    speculative("budget-speculative", budget=40),
]

ROWS = (SERVING_ROWS + CLUSTER_ROWS + SPEC_ROWS + TRACED_ROWS
        + CONTROLPLANE_ROWS + BUDGET_ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[r.name for r in ROWS])
def test_row(request, engines, row):
    cells = (all_cells(row.jobs, row.tracing)
             if request.config.getoption("all_cells") else row.cells)
    kwargs = dict(row.kwargs)
    if row.budget is not None:
        kwargs["max_steps"] = row.budget
    built = []

    def simulate(cell):
        start = len(engines)
        try:
            return row.simulate(cell, **kwargs)
        finally:
            built.append(engines[start:])

    runs = run_cells(simulate, cells)
    assert compare_runs(runs) == []
    for run, cell_engines in zip(runs, built):
        # A sharded run builds its engines in its worker processes.
        if run.cell.jobs == 1:
            epochs = sum(e.epoch_steps for e in cell_engines)
            assert (epochs > 0) is (run.cell.engine == "epoch"), run.cell
        if row.budget is not None:
            assert f"exceeded {row.budget} steps" in run.error, run.cell
            assert sum(e.steps for e in cell_engines) == row.budget + 1
        else:
            assert run.error is None, run.cell
            assert row.feature is None or row.feature(run, cell_engines), \
                run.cell


# The check itself: each clause fires on the difference it names, and
# only on that one.

DOC = {"finished": 3, "plans": {"sdf": {"finished": 3}}}
TRACED_DOC = {"finished": 3, "trace_summary": {"spans": 9},
              "plans": {"sdf": {"finished": 3,
                                "trace_summary": {"spans": 4}}}}
EVENTS = [{"name": "step", "ts": 0}]
METRICS = {"counters": {"serving.steps": 1.0}, "gauges": {}}


def agreeing_runs():
    return [CellRun(cell, TRACED_DOC if cell.traced else DOC, None,
                    *((EVENTS, METRICS) if cell.traced else ()))
            for cell in EVERY]


def fake_run(doc=DOC, gauges=None):
    """A ``simulate`` that sets each ``gauges[name]`` value in turn on
    the current tracer and reports ``doc``."""

    def simulate(cell):
        for name, values in (gauges or {}).items():
            for value in values[cell.engine]:
                current_tracer().metrics.gauge(name).set(value)
        return SimpleNamespace(to_dict=lambda: doc)

    return simulate


class TestCheck:
    def test_strip_trace_summary_at_every_level(self):
        assert strip_trace_summary(TRACED_DOC) == DOC
        assert strip_trace_summary(DOC) == DOC

    def test_agreeing_cells_break_nothing(self):
        assert compare_runs(agreeing_runs()) == []

    #: (which run of ``EVERY``, what it has instead, the clauses broken)
    @pytest.mark.parametrize("index, change, broken", [
        (1, dict(doc={**DOC, "finished": 2}),
         {"untraced_cells_agree", "traced_equals_untraced"}),
        (1, dict(doc=None, error="exceeded 100 steps"),
         {"untraced_cells_agree", "traced_equals_untraced"}),
        (3, dict(doc={**TRACED_DOC, "plans": {"sdf": {
            "finished": 3, "trace_summary": {"spans": 5}}}}),
         {"traced_report_agree"}),
        (3, dict(doc={**TRACED_DOC, "finished": 2}),
         {"traced_equals_untraced", "traced_report_agree"}),
        (3, dict(events=EVENTS + EVENTS), {"traced_events_agree"}),
        (3, dict(metrics={**METRICS, "counters": {"serving.steps": 2.0}}),
         {"traced_metrics_agree"}),
    ], ids=["untraced-report", "untraced-stop", "nested-trace-summary",
            "traced-report", "events", "metrics"])
    def test_each_clause_fires(self, index, change, broken):
        runs = agreeing_runs()
        runs[index] = dataclasses.replace(runs[index], **change)
        assert {v.invariant for v in compare_runs(runs)} == broken

    def test_stopped_cells_agree_whatever_their_clock(self):
        runs = [dataclasses.replace(run, doc=None,
                                    error=f"exceeded 100 steps (clock {i})")
                for i, run in enumerate(agreeing_runs())]
        assert compare_runs(runs) == []

    def test_only_a_serving_error_stops_a_cell(self):
        def simulate(cell):
            raise (ServingError if cell.engine == "event" else ValueError)(
                "exceeded 100 steps")

        [run] = run_cells(simulate, (Cell("event"),))
        assert (run.doc, run.error) == (None, "exceeded 100 steps")
        with pytest.raises(ValueError):
            run_cells(simulate, (Cell("epoch"),))

    def test_traced_cells_start_from_cold_caches(self, monkeypatch):
        monkeypatch.delenv(simcache.ENV_VAR, raising=False)
        seen = []

        def simulate(cell):
            seen.append(len(simcache.kernel_cache))
            simcache.kernel_cache.put(("test_equivalence", cell), 0.0)
            return SimpleNamespace(to_dict=lambda: DOC)

        simcache.invalidate()
        simcache.kernel_cache.put(("test_equivalence", "warm"), 0.0)
        try:
            run_cells(simulate, EVERY)
        finally:
            simcache.invalidate()
        assert seen == [1, 2, 0, 0]

    def test_only_outstanding_token_sample_counts_may_differ(self):
        # The epoch path publishes the gauge once per advance.
        outstanding = {"event": (5, 3, 0), "epoch": (5, 0)}
        runs = run_cells(fake_run(gauges={
            "cp.outstanding_tokens": outstanding}), TRACED)
        assert compare_runs(runs) == []
        assert runs[0].metrics["gauges"]["cp.outstanding_tokens"] == {
            "last": 0.0, "min": 0.0, "max": 5.0}
        runs = run_cells(fake_run(gauges={"engine.batch": outstanding}),
                         TRACED)
        assert [v.invariant for v in compare_runs(runs)] == [
            "traced_metrics_agree"]

    def test_jobs_apply_to_untraced_cells_only(self):
        assert all_cells() == EVERY
        assert all_cells((1, 2), (False,)) == UNTRACED + (
            Cell("event", jobs=2), Cell("epoch", jobs=2))
