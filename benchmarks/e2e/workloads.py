"""The benchmark's five workloads: how each is built, run and checked.

A workload is one simulator scenario at a fixed shape.  Its request
stream depends only on the ``seed`` the harness passes; ``scale``
multiplies its request count (or arrival window).  At ``scale=1.0``
one repetition takes 2.5-4 s of host time on a 2-vCPU x86 VM, so a run
of three repetitions measures about 10 s.

Each workload is split into the parts the harness runs separately:

- ``setup(seed, scale)`` builds the simulator and samples the request
  arrays, returning the timed call;
- the timed call runs the simulation (``run()`` or ``tune()``);
- ``summarize(result, engines)`` reads the modelled metrics, request
  counts, report digest and conservation problems off the result and
  the engines the run created;
- ``check(seed, scale, result)`` is the workload's own output check,
  run once per set of repetitions (it rebuilds what it compares with).

Arrivals are open-loop in *simulated* time: every request carries its
scheduled arrival and is timed from it, so the generator cannot run
late.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

#: Serving-stream shape shared by the three ``serve-*`` workloads:
#: GPT-Neo-1.3B on an A100 under SDF, Poisson 0.4 req/s, prompts up to
#: 512 tokens, mean output 768 tokens (``BENCH_serving.json``'s shape).
SERVING_MODEL, SERVING_GPU, SERVING_PLAN = "gpt-neo-1.3b", "a100", "sdf"
SERVING_RATE = 0.4

#: Requests per stream at ``scale=1.0``.  ``serve-decode`` stays above
#: the 8,192-request exact-percentile cutover so results stream through
#: the sketches.
DECODE_REQUESTS = 13_000
SPEC_REQUESTS = 3_500
TRACED_REQUESTS = 800

#: ``serve-decode``'s event-vs-epoch parity check replays this many
#: leading requests (times ``scale``) under both engines.
PARITY_REQUESTS = 2_000

#: ``controlplane-burst`` arrival window W, seconds, at ``scale=1.0``.
CONTROLPLANE_WINDOW = 450.0

#: ``tune-cluster`` arrival window, seconds, at ``scale=1.0``.
TUNE_WINDOW = 30.0

#: Modelled end-to-end metrics every serving-style report yields.  A
#: report's p99 is printed only where >= 1,000 requests finish, so it
#: has at least ten samples beyond it; ``serve-traced``'s ~800 do not.
#: (``tune-cluster``'s p99 is the tuner's own objective value.)
SERVING_MODEL_METRICS = (
    "model_ttft_p50_s", "model_ttft_p99_s", "model_tpot_p50_ms",
    "model_tpot_p99_ms", "model_tok_per_s", "model_drop_frac",
)
TRACED_MODEL_METRICS = tuple(metric for metric in SERVING_MODEL_METRICS
                             if "_p99_" not in metric)


@dataclass(frozen=True)
class Workload:
    """One named scenario of the benchmark (``BENCHMARK.json`` and the
    README record why each was chosen)."""

    name: str
    #: Modelled end-to-end metrics this workload reports.
    model_metrics: "tuple[str, ...]"
    setup: Callable
    summarize: Callable
    check: Callable


def _digest(document) -> str:
    """sha256 of a report's canonical JSON form."""
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _summary(document, *, model, arrived, finished, rejected, shed=0,
             problems=()):
    return {
        "model": model,
        "counts": {"arrived": arrived, "finished": finished,
                   "rejected": rejected, "shed": shed},
        "digest": _digest(document),
        "problems": list(problems),
    }


def _undrained(engines) -> "list[str]":
    stuck = sum(1 for engine in engines if engine.scheduler.has_work)
    return [f"{stuck} engines still hold requests"] if stuck else []


def _latency_metrics(ttft, tpot) -> "dict[str, float]":
    return {
        "model_ttft_p50_s": ttft.p50,
        "model_ttft_p99_s": ttft.p99,
        "model_tpot_p50_ms": tpot.p50 * 1e3,
        "model_tpot_p99_ms": tpot.p99 * 1e3,
    }


# -- serve-* ---------------------------------------------------------------


def _serving_stream(seed: int, requests: float):
    from repro.serving.requests import ServingWorkload

    return ServingWorkload(rate=SERVING_RATE,
                           duration=max(requests, 1.0) / SERVING_RATE,
                           seed=seed, max_prompt=512, mean_output=768)


def _serving_sim(*, workload=None, requests=None, **kwargs):
    from repro.core.plansource import PlanSource
    from repro.serving.simulator import ServingSimulator

    return ServingSimulator(SERVING_MODEL, SERVING_GPU,
                            plan=PlanSource.of(SERVING_PLAN),
                            workload=workload, requests=requests,
                            max_steps=1_000_000_000, **kwargs)


def _serving_setup(requests: int, **sim_kwargs):
    def setup(seed: int, scale: float):
        stream = _serving_stream(seed, requests * scale)
        sim = _serving_sim(workload=stream, **sim_kwargs)
        stream.request_arrays()
        return sim.run
    return setup


def _summarize_serving(report, engines):
    finished = sum(engine.finished for engine in engines)
    rejected = sum(engine.rejected for engine in engines)
    problems = _undrained(engines)
    if finished + rejected != report.num_requests:
        problems.append(
            f"finished {finished} + rejected {rejected} != arrived "
            f"{report.num_requests}")
    arrived = report.num_requests
    model = _latency_metrics(report.ttft, report.tpot)
    model["model_tok_per_s"] = report.throughput_tokens_per_s
    model["model_drop_frac"] = rejected / arrived if arrived else 0.0
    return _summary(report.to_json(), model=model, arrived=arrived,
                    finished=finished, rejected=rejected,
                    problems=problems)


def _no_check(seed, scale, result) -> "list[str]":
    return []


def _check_engine_parity(seed, scale, report) -> "list[str]":
    """The leading requests give byte-identical reports under the
    classic event loop and the epoch engine."""
    arrays = _serving_stream(seed, DECODE_REQUESTS * scale).request_arrays()
    count = min(len(arrays), max(1, round(PARITY_REQUESTS * scale)))
    requests = [arrays.materialize(index) for index in range(count)]
    docs = {
        engine: _digest(_serving_sim(requests=requests,
                                     engine=engine).run().to_json())
        for engine in ("event", "epoch")
    }
    if docs["event"] != docs["epoch"]:
        return [f"event and epoch engines differ on the first {count} "
                f"requests"]
    return []


def _setup_traced(seed: int, scale: float):
    from repro.obs import Tracer, tracing

    stream = _serving_stream(seed, TRACED_REQUESTS * scale)
    sim = _serving_sim(workload=stream)
    stream.request_arrays()

    def run():
        with tracing(Tracer()):
            return sim.run()
    return run


def _check_traced_rerun(seed, scale, report) -> "list[str]":
    """The traced report equals an untraced rerun minus its
    ``trace_summary``."""
    traced = report.to_json()
    if traced.pop("trace_summary", None) is None:
        return ["traced report has no trace_summary"]
    stream = _serving_stream(seed, TRACED_REQUESTS * scale)
    untraced = _serving_sim(workload=stream).run().to_json()
    if _digest(traced) != _digest(untraced):
        return ["traced report differs from its untraced rerun"]
    return []


# -- controlplane-burst ----------------------------------------------------


def _setup_controlplane(seed: int, scale: float):
    from repro.controlplane import (
        AutoscalerConfig,
        ControlPlaneSimulator,
        FailureSchedule,
    )
    from repro.core.plansource import PlanSource
    from repro.serving.arrivals import MMPPArrivals
    from repro.serving.requests import ServingWorkload

    window = CONTROLPLANE_WINDOW * scale
    stream = ServingWorkload(
        rate=4.0, duration=window, seed=seed,
        arrival=MMPPArrivals(rate=4.0, burst_rate=16.0, base_dwell=20.0,
                             burst_dwell=5.0),
    )
    sim = ControlPlaneSimulator(
        "bert-large", "a100", workload=stream, plan=PlanSource.of("sdf"),
        replicas=2, policy="least-outstanding",
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=6),
        faults=FailureSchedule(deaths=(0.3 * window,),
                               stragglers=((0.6 * window, 2.0),)),
        max_steps=1_000_000_000,
    )
    stream.request_arrays()
    return sim.run


def _summarize_controlplane(report, engines):
    problems = _undrained(engines)
    if not report.conservation_ok:
        problems.append("conservation identity does not hold")
    lost = sum(fault.lost for fault in report.faults)
    if lost:
        problems.append(f"{lost} re-queued requests lost")
    model = _latency_metrics(report.ttft, report.tpot)
    model["model_tok_per_s"] = report.throughput_tokens_per_s
    model["model_drop_frac"] = ((report.rejected + report.shed)
                                / report.arrived if report.arrived else 0.0)
    model["model_replica_s"] = report.replica_seconds
    return _summary(report.to_dict(), model=model, arrived=report.arrived,
                    finished=report.finished, rejected=report.rejected,
                    shed=report.shed, problems=problems)


# -- tune-cluster ----------------------------------------------------------


def _tune_spec(seed: int, scale: float):
    from repro.common.scenario import ScenarioSpec, ShardingSpec, WorkloadSpec

    return ScenarioSpec(
        model="bert-large", gpu="A100",
        workload=WorkloadSpec(rate=16.0, duration=TUNE_WINDOW * scale,
                              seed=seed, prefix_groups=16),
        sharding=ShardingSpec(replicas=4, policy="least-outstanding"),
    )


def _setup_tune(seed: int, scale: float):
    from repro.tune import search

    spec = _tune_spec(seed, scale)

    def run():
        # Looked up at call time so a traced run times the wrapped entry.
        return search.tune(spec, objective="ttft_p99", budget=32, seed=0,
                           sim="cluster")
    return run


def _summarize_tune(result, engines):
    finished = sum(engine.finished for engine in engines)
    rejected = sum(engine.rejected for engine in engines)
    return _summary(result.to_dict(),
                    model={"model_ttft_p99_s": result.winner_value},
                    arrived=finished + rejected, finished=finished,
                    rejected=rejected, problems=_undrained(engines))


def _check_rescore(seed, scale, result) -> "list[str]":
    """Re-scoring the tuned winner reproduces its recorded value."""
    from repro.tune.evaluate import score_config

    value = score_config(_tune_spec(seed, scale), result.winner_config,
                         objective=result.objective, mode=result.mode)
    if value != result.winner_value:
        return [f"winner re-scores to {value!r}, recorded "
                f"{result.winner_value!r}"]
    return []


WORKLOADS = {
    workload.name: workload for workload in (
        Workload(
            name="serve-decode",
            model_metrics=SERVING_MODEL_METRICS,
            setup=_serving_setup(DECODE_REQUESTS),
            summarize=_summarize_serving,
            check=_check_engine_parity,
        ),
        Workload(
            name="serve-spec",
            model_metrics=SERVING_MODEL_METRICS,
            setup=_serving_setup(SPEC_REQUESTS, draft_model="bert-large",
                                 draft_len=4, accept_rate=0.75),
            summarize=_summarize_serving,
            check=_no_check,
        ),
        Workload(
            name="serve-traced",
            model_metrics=TRACED_MODEL_METRICS,
            setup=_setup_traced,
            summarize=_summarize_serving,
            check=_check_traced_rerun,
        ),
        Workload(
            name="controlplane-burst",
            model_metrics=SERVING_MODEL_METRICS + ("model_replica_s",),
            setup=_setup_controlplane,
            summarize=_summarize_controlplane,
            check=_no_check,
        ),
        Workload(
            name="tune-cluster",
            model_metrics=("model_ttft_p99_s",),
            setup=_setup_tune,
            summarize=_summarize_tune,
            check=_check_rescore,
        ),
    )
}
