"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``simulate``     one model/GPU/plan inference with breakdown
``compare``      baseline vs SD vs SDF for one model (a Fig. 8 row)
``breakdown``    the Fig. 2 stacks across all four models
``libraries``    the Fig. 7 library comparison
``sweep``        speedup vs sequence length or batch (Fig. 9)
``generate``     prompt prefill + token-by-token decode (KV cache)
``trace``        run a simulator (inference/serving/cluster) with the
                 observability layer on; Chrome-trace export
``parallel``     tensor-parallel scaling across 2-8 GPUs
``roofline``     roofline plot of one inference's kernel categories
``footprint``    peak device-memory footprint per plan
``seq2seq``      encoder-decoder inference (Transformer base/big)
``serve-sim``    discrete-event serving simulation (SLO metrics per plan)
``cluster-sim``  multi-replica, TP/PP-sharded cluster serving simulation
``controlplane-sim``  SLO tiers, autoscaling, shedding, fault injection
                 over the cluster simulator
``tune``         closed-loop plan autotuner; emits a versioned
                 ``repro.tuned_plan/v1`` artifact the simulators accept
                 back via ``--plan-file``
``verify``       paper targets (default), ``verify fuzz`` differential
                 fuzzing of every registered oracle, ``verify replay``
                 re-running a failure artifact
``approx-sweep`` accuracy-vs-speed Pareto report of the approximate
                 softmax kernels (LUT, BAPS, FLASH-D) against SDF and
                 the baseline

Output contract
---------------
Every subcommand renders human-readable text by default, prints the
same result as a versioned JSON document (``repro.result/v1``) under
``--json``, and writes that document to a file under ``--output``
(printing the text plus a ``wrote <path>`` confirmation) — one
:func:`emit` helper implements the contract for all of them.

Scenario contract
-----------------
The serving-style subcommands (``serve-sim``, ``cluster-sim``,
``controlplane-sim``, ``trace``, ``tune``) share their flags through
the parent-parser helpers in :mod:`repro.common.scenario` and build
one :class:`~repro.common.scenario.ScenarioSpec` from the parsed
namespace; the spec is the single bridge to the simulators, so the
tuner's artifacts and the CLI runs describe scenarios identically.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import pathlib
import sys

from repro.analysis import (
    normalized_time_breakdown,
    render_stacked_bars,
    render_table,
)
from repro.common.results import result_dict
from repro.common.scenario import (
    ScenarioSpec,
    add_sharding_args,
    add_workload_args,
)
from repro.core.autotune import PAPER_CANDIDATES
from repro.gpu.specs import preset_names as gpu_presets
from repro.models import InferenceSession, all_models
from repro.models.config import preset_names as model_presets


def emit(payload: dict, text: str, args: argparse.Namespace) -> str:
    """The one output path every subcommand shares.

    ``--output PATH`` writes the JSON document and returns the text
    plus a confirmation; ``--json`` returns the document itself;
    otherwise the text.  Documents are serialized deterministically
    (sorted keys) so fixed-seed runs are byte-identical.
    """
    output = getattr(args, "output", None)
    if output:
        document = json.dumps(payload, indent=2, sort_keys=True)
        pathlib.Path(output).write_text(document + "\n")
        return f"{text}\n\nwrote {output}"
    if getattr(args, "json", False):
        return json.dumps(payload, indent=2, sort_keys=True)
    return text


def _add_output(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", action="store_true",
                        help="print the repro.result/v1 JSON document "
                             "instead of text")
    parser.add_argument("--output", default=None,
                        help="write the JSON document here (prints the "
                             "text to stdout)")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", default="bert-large",
                        help=" | ".join(model_presets()))
    parser.add_argument("--model-json", default=None,
                        help="path to a custom ModelConfig JSON file "
                             "(overrides --model)")
    parser.add_argument("--gpu", default="A100",
                        help=" | ".join(gpu_presets()))
    parser.add_argument("--seq-len", type=int, default=4096)
    parser.add_argument("--batch", type=int, default=1)


def _resolve_model(args: argparse.Namespace):
    return ScenarioSpec.from_args(args).resolve_model()


def _model_label(model) -> str:
    """A payload's model label: the name as given, or a config's name."""
    return model if isinstance(model, str) else model.name


def cmd_simulate(args: argparse.Namespace) -> str:
    result = InferenceSession(
        _resolve_model(args), gpu=args.gpu, plan=args.plan,
        seq_len=args.seq_len, batch=args.batch,
    ).simulate()
    text = "\n".join([
        f"{result.model.name} on {result.gpu.name} "
        f"(L={args.seq_len}, batch={args.batch}, plan={args.plan})",
        f"latency:          {result.total_time * 1e3:.2f} ms",
        f"off-chip traffic: {result.total_dram_bytes / 1e9:.2f} GB",
        f"off-chip energy:  {result.offchip_energy * 1e3:.1f} mJ",
        f"softmax share:    {result.softmax_time_fraction() * 100:.0f}%",
        "",
        render_stacked_bars({result.model.name:
                             normalized_time_breakdown(result)}),
    ])
    return emit(result.to_dict(), text, args)


def cmd_compare(args: argparse.Namespace) -> str:
    rows = []
    baseline = None
    results = {}
    model = _resolve_model(args)
    for plan in (p.value for p in PAPER_CANDIDATES):
        result = InferenceSession(
            model, gpu=args.gpu, plan=plan,
            seq_len=args.seq_len, batch=args.batch,
        ).simulate()
        if baseline is None:
            baseline = result
        results[plan] = result
        rows.append([
            plan,
            f"{result.total_time * 1e3:.2f} ms",
            f"{baseline.total_time / result.total_time:.2f}x",
            f"{result.total_dram_bytes / 1e9:.2f} GB",
            f"{1 - result.offchip_energy / baseline.offchip_energy:+.0%}",
        ])
    text = render_table(
        ["plan", "latency", "speedup", "traffic", "energy saved"], rows,
    )
    payload = result_dict(
        "compare",
        model=baseline.model.name,
        gpu=baseline.gpu.name,
        seq_len=args.seq_len,
        batch=args.batch,
        plans={plan: r.to_dict() for plan, r in results.items()},
        speedups={plan: baseline.total_time / r.total_time
                  for plan, r in results.items()},
    )
    return emit(payload, text, args)


def cmd_breakdown(args: argparse.Namespace) -> str:
    stacks = {}
    for model in all_models():
        result = InferenceSession(
            model, gpu=args.gpu, plan="baseline",
            seq_len=args.seq_len, batch=args.batch,
        ).simulate()
        stacks[model.name] = normalized_time_breakdown(result)
    payload = result_dict(
        "breakdown", gpu=args.gpu, seq_len=args.seq_len, batch=args.batch,
        models=stacks,
    )
    return emit(payload, render_stacked_bars(stacks), args)


def cmd_libraries(args: argparse.Namespace) -> str:
    from repro.baselines import all_libraries, simulate_library

    model = _resolve_model(args)
    rows = []
    latencies = {}
    for lib in all_libraries():
        result = simulate_library(lib, model, gpu=args.gpu,
                                  seq_len=args.seq_len, batch=args.batch)
        latencies[lib.name] = result.total_time
        rows.append([lib.name, f"{result.total_time * 1e3:.2f} ms"])
    payload = result_dict(
        "libraries", model=_model_label(model), gpu=args.gpu,
        seq_len=args.seq_len, batch=args.batch, latencies_s=latencies,
    )
    return emit(payload, render_table(["library", "latency"], rows), args)


def cmd_sweep(args: argparse.Namespace) -> str:
    from repro.workloads.sweep import SweepPoint, SweepRunner

    model = _resolve_model(args)
    values = [int(v) for v in args.values.split(",")]
    points = []
    for value in values:
        kwargs = dict(seq_len=args.seq_len, batch=args.batch)
        kwargs["seq_len" if args.axis == "seq-len" else "batch"] = value
        for plan in ("baseline", "sdf"):
            points.append(SweepPoint.make(
                model, gpu=args.gpu, plan=plan, **kwargs,
            ))
    results = SweepRunner(jobs=args.jobs).run(points)
    rows = []
    point_docs = []
    for value, base, sdf in zip(values, results[::2], results[1::2]):
        rows.append([value, f"{base.total_time * 1e3:.2f} ms",
                     f"{base.total_time / sdf.total_time:.2f}x"])
        point_docs.append({
            "value": value,
            "baseline_s": base.total_time,
            "sdf_s": sdf.total_time,
            "speedup": base.total_time / sdf.total_time,
        })
    text = render_table([args.axis, "baseline latency", "SDF speedup"], rows)
    payload = result_dict(
        "sweep", model=_model_label(model), gpu=args.gpu, axis=args.axis,
        points=point_docs,
    )
    return emit(payload, text, args)


def cmd_generate(args: argparse.Namespace) -> str:
    from repro.models.generation import GenerationSession

    result = GenerationSession(
        _resolve_model(args), gpu=args.gpu, plan=args.plan,
        prompt_len=args.seq_len, generated_tokens=args.tokens,
        batch=args.batch, prefill_chunk=args.prefill_chunk,
    ).simulate()
    text = render_table(
        ["phase", "value"],
        [
            ["prefill latency", f"{result.prefill_time * 1e3:.2f} ms"],
            ["decode latency", f"{result.decode_time * 1e3:.2f} ms"],
            ["per-token latency", f"{result.time_per_token * 1e3:.3f} ms"],
            ["decode throughput",
             f"{result.tokens_per_second:.1f} tokens/s"],
            ["KV cache", f"{result.kv_cache_bytes / 1e6:.1f} MB"],
        ],
    )
    return emit(result.to_dict(), text, args)


def cmd_trace(args: argparse.Namespace) -> str:
    from repro.analysis.tracing import render_trace_summary
    from repro.common.results import trace_dict
    from repro.gpu import simcache
    from repro.obs import Tracer, chrome_trace_dict, tracing

    # A cold cache makes repeated invocations byte-identical: the
    # kernel events' "cached" flags otherwise depend on what earlier
    # commands happened to evaluate in this process.
    simcache.invalidate()
    tracer = Tracer()
    spec = ScenarioSpec.from_args(args)

    if args.sim == "inference":
        from repro.gpu.trace import summarize

        with tracing(tracer):
            result = InferenceSession(
                spec.resolve_model(), gpu=spec.gpu, plan=args.plan,
                seq_len=spec.workload.seq_len, batch=spec.workload.batch,
            ).simulate()
        tracer.set_clock(result.total_time)
        # The profile lists every launch; the trace holds one span per
        # kernel pricing, and a layer repeated across the model is
        # priced once.
        spans = tracer.summary(include_metrics=False)["span_categories"]
        priced = spans.get("kernel", {"count": 0})["count"]
        headline = (f"profile of {len(result.profile)} kernel launches; "
                    f"trace of {priced} priced-kernel spans\n\n"
                    + summarize(result.profile))
    elif args.sim == "serving":
        from repro.analysis.serving import render_serving_comparison

        with tracing(tracer):
            report = spec.run_serving()
        headline = render_serving_comparison(report)
    elif args.sim == "cluster":
        from repro.analysis.cluster import render_cluster_comparison

        with tracing(tracer):
            report = spec.run_cluster()
        headline = render_cluster_comparison(report)
    else:  # controlplane
        from repro.analysis.controlplane import \
            render_controlplane_comparison
        from repro.controlplane import AutoscalerConfig, FailureSchedule
        from repro.serving import MMPPArrivals

        # A demo scenario that exercises every control-plane instant:
        # bursty arrivals push the autoscaler up and down, one death at
        # the midpoint shows fail/recover.
        rate, duration = spec.workload.rate, spec.workload.duration
        if spec.arrival.kind is None:
            spec = dataclasses.replace(spec, arrival=dataclasses.replace(
                spec.arrival, kind="mmpp", burst_rate=4.0 * rate,
                base_dwell=duration / 3, burst_dwell=duration / 6))
        spec = dataclasses.replace(
            spec, sharding=dataclasses.replace(
                spec.sharding, policy="least-outstanding"))
        with tracing(tracer):
            report = spec.run_controlplane(
                autoscaler=AutoscalerConfig(
                    min_replicas=spec.sharding.replicas,
                    max_replicas=spec.sharding.replicas + 2),
                faults=FailureSchedule(deaths=(duration / 2,)),
            )
        headline = render_controlplane_comparison(report)

    summary = tracer.summary()
    # The payload is a valid Chrome trace (chrome://tracing ignores the
    # envelope keys), so --output yields a directly loadable file.
    payload = trace_dict("chrome-trace", sim=args.sim,
                         seed=spec.workload.seed,
                         summary=summary, **chrome_trace_dict(tracer))
    text = headline + "\n\n" + render_trace_summary(summary)
    return emit(payload, text, args)


def cmd_parallel(args: argparse.Namespace) -> str:
    from repro.common.errors import ReproError
    from repro.models.parallel import TensorParallelSession

    model = _resolve_model(args)
    single = InferenceSession(model, gpu=args.gpu, plan=args.plan,
                              seq_len=args.seq_len,
                              batch=args.batch).simulate()
    rows = [[1, f"{single.total_time * 1e3:.2f} ms", "1.00x", "0%"]]
    scaling = []
    for n in (2, 4, 8):
        try:
            tp = TensorParallelSession(
                model, n_gpus=n, gpu=args.gpu, plan=args.plan,
                seq_len=args.seq_len, batch=args.batch,
                algorithm=args.algorithm,
            ).simulate()
        except ReproError as error:
            rows.append([n, f"({error})", "-", "-"])
            scaling.append({"n_gpus": n, "error": str(error)})
            continue
        rows.append([
            n,
            f"{tp.total_time * 1e3:.2f} ms",
            f"{single.total_time / tp.total_time:.2f}x",
            f"{tp.comm_fraction * 100:.0f}%",
        ])
        doc = tp.to_dict()
        doc["scaling"] = single.total_time / tp.total_time
        scaling.append(doc)
    text = render_table(["GPUs", "latency", "scaling", "comm share"], rows)
    payload = result_dict(
        "parallel-scaling",
        model=single.model.name,
        gpu=single.gpu.name,
        plan=single.plan.value,
        seq_len=args.seq_len,
        batch=args.batch,
        algorithm=args.algorithm,
        single=single.to_dict(),
        scaling=scaling,
    )
    return emit(payload, text, args)


def cmd_roofline(args: argparse.Namespace) -> str:
    from repro.gpu.roofline import (
        analyze,
        machine_balance,
        render_roofline,
        summary_table,
    )
    from repro.gpu.specs import get_gpu

    result = InferenceSession(
        _resolve_model(args), gpu=args.gpu, plan=args.plan,
        seq_len=args.seq_len, batch=args.batch,
    ).simulate()
    spec = get_gpu(args.gpu)
    points = analyze(result.profile, spec)
    balance = machine_balance(spec)
    text = render_roofline(points, spec) + "\n\n" + summary_table(points, spec)
    payload = result_dict(
        "roofline",
        model=result.model.name,
        gpu=spec.name,
        plan=result.plan.value,
        seq_len=args.seq_len,
        batch=args.batch,
        machine_balance_flop_per_byte=balance,
        points=[
            {
                "name": p.name,
                "intensity_flop_per_byte": p.intensity,
                "performance_flop_per_s": p.performance,
                "efficiency": p.efficiency,
                "regime": "memory" if p.intensity < balance else "compute",
            }
            for p in points
        ],
    )
    return emit(payload, text, args)


def cmd_footprint(args: argparse.Namespace) -> str:
    from repro.models.footprint import inference_footprint
    from repro.models.config import get_model

    model = _resolve_model(args)
    config = get_model(model)
    rows = []
    plans = {}
    for plan in (p.value for p in PAPER_CANDIDATES):
        fp = inference_footprint(config, seq_len=args.seq_len,
                                 batch=args.batch, plan=plan)
        plans[plan] = {
            "weights_bytes": fp.weights,
            "activations_bytes": fp.activations,
            "attention_bytes": fp.attention,
            "intermediates_bytes": fp.intermediates,
            "total_bytes": fp.total,
        }
        rows.append([
            plan,
            f"{fp.weights / 1e9:.2f}",
            f"{fp.activations / 1e9:.2f}",
            f"{fp.attention / 1e9:.2f}",
            f"{fp.intermediates / 1e9:.3f}",
            f"{fp.total / 1e9:.2f}",
        ])
    text = render_table(
        ["plan", "weights (GB)", "activations (GB)", "attention (GB)",
         "intermediates (GB)", "total (GB)"], rows,
    )
    payload = result_dict(
        "footprint", model=config.name, seq_len=args.seq_len,
        batch=args.batch, plans=plans,
    )
    return emit(payload, text, args)


def cmd_seq2seq(args: argparse.Namespace) -> str:
    from repro.models.seq2seq import (
        VANILLA_TRANSFORMER_BASE,
        VANILLA_TRANSFORMER_BIG,
        Seq2SeqSession,
    )

    config = (VANILLA_TRANSFORMER_BIG if args.config == "big"
              else VANILLA_TRANSFORMER_BASE)
    result = Seq2SeqSession(
        config, gpu=args.gpu, plan=args.plan,
        src_len=args.src_len, tgt_len=args.tgt_len, batch=args.batch,
    ).simulate()
    text = "\n".join([
        f"{config.name} on {result.gpu.name} "
        f"(src={args.src_len}, tgt={args.tgt_len}, batch={args.batch}, "
        f"plan={args.plan})",
        f"latency:          {result.total_time * 1e3:.2f} ms",
        f"off-chip traffic: {result.total_dram_bytes / 1e9:.2f} GB",
        f"off-chip energy:  {result.offchip_energy * 1e3:.1f} mJ",
        f"softmax share:    {result.softmax_time_fraction() * 100:.0f}%",
    ])
    return emit(result.to_dict(), text, args)


def cmd_serve_sim(args: argparse.Namespace) -> str:
    from repro.analysis.serving import render_serving_comparison

    report = ScenarioSpec.from_args(args).run_serving()
    return emit(report.to_dict(), render_serving_comparison(report), args)


def cmd_cluster_sim(args: argparse.Namespace) -> str:
    from repro.analysis.cluster import render_cluster_comparison

    report = ScenarioSpec.from_args(args).run_cluster()
    return emit(report.to_dict(), render_cluster_comparison(report), args)


def _make_controlplane_config(args: argparse.Namespace, spec):
    """Tiers, autoscaler, and fault schedule from CLI flags and ``spec``."""
    from repro.controlplane import (
        DEFAULT_TIERS, AutoscalerConfig, FailureSchedule, parse_tiers)

    tiers = parse_tiers(args.tiers) if args.tiers else DEFAULT_TIERS
    autoscaler = None
    if args.autoscale:
        autoscaler = AutoscalerConfig(
            min_replicas=args.min_replicas,
            max_replicas=args.max_replicas,
            control_interval=args.control_interval,
            cold_start_s=args.cold_start,
        )
    faults = None
    if args.death or args.deaths or args.stragglers:
        if args.death:
            faults = FailureSchedule(
                deaths=tuple(sorted(args.death)))
        else:
            faults = FailureSchedule.random(
                duration=spec.workload.duration, seed=spec.workload.seed,
                deaths=args.deaths, stragglers=args.stragglers)
    return tiers, autoscaler, faults


def cmd_controlplane_sim(args: argparse.Namespace) -> str:
    from repro.analysis.controlplane import render_controlplane_comparison

    spec = ScenarioSpec.from_args(args)
    tiers, autoscaler, faults = _make_controlplane_config(args, spec)
    report = spec.run_controlplane(
        tiers=tiers, autoscaler=autoscaler, faults=faults,
        shed_backlog_tokens=args.shed_tokens,
        cold_start_s=args.cold_start,
    )
    return emit(report.to_dict(), render_controlplane_comparison(report),
                args)


def cmd_tune(args: argparse.Namespace) -> str:
    from repro.analysis.tune import render_tune_report
    from repro.tune import tune

    spec = ScenarioSpec.from_args(args)
    result = tune(spec, objective=args.objective, budget=args.budget,
                  seed=spec.workload.seed, sim=args.sim)
    payload = result.to_dict()
    return emit(payload, render_tune_report(payload), args)


def cmd_verify(args: argparse.Namespace) -> str:
    if args.mode == "targets":
        from repro.analysis.verification import verify_reproduction

        report = verify_reproduction(quick=args.quick)
        return emit(report.to_dict(), report.render(), args)

    if args.mode == "fuzz":
        from repro.verify import fuzz_family
        from repro.verify.cases import FAMILIES

        if args.family is not None and args.family not in FAMILIES:
            raise SystemExit(
                f"unknown family {args.family!r}; "
                f"choose from {', '.join(FAMILIES)}"
            )
        families = (args.family,) if args.family else FAMILIES
        reports = [
            fuzz_family(family, cases=args.cases, seed=args.seed,
                        artifact_dir=args.artifact_dir)
            for family in families
        ]
        if any(not report.ok for report in reports):
            args._exit_code = 1
        payload = result_dict(
            "fuzz-run",
            ok=all(report.ok for report in reports),
            seed=args.seed,
            families=[report.to_dict() for report in reports],
        )
        text = "\n".join(report.render() for report in reports)
        return emit(payload, text, args)

    # mode == "replay"
    from repro.verify import replay_artifact

    if not args.artifact:
        raise SystemExit("verify replay requires an artifact path")
    result = replay_artifact(args.artifact)
    status = "FAIL" if result.failed else "PASS"
    if result.failed:
        args._exit_code = 1
    payload = result_dict(
        "verify-replay",
        oracle=result.oracle,
        params=result.params,
        failed=result.failed,
        description=result.describe(),
    )
    text = (f"[{status}] {result.oracle} on "
            f"{json.dumps(result.params, sort_keys=True)}\n"
            f"  {result.describe()}")
    return emit(payload, text, args)


def cmd_approx_sweep(args: argparse.Namespace) -> str:
    from repro.analysis.approx_sweep import render_sweep, run_sweep
    from repro.common.dtypes import DType
    from repro.gpu.specs import get_gpu
    from repro.models import get_model

    models = [get_model(name.strip())
              for name in args.models.split(",") if name.strip()]
    seq_lens = tuple(int(v) for v in args.seq_lens.split(","))
    report = run_sweep(
        gpu=get_gpu(args.gpu),
        models=models or None,
        seq_lens=seq_lens,
        dtype=DType(args.dtype),
        cases=args.cases,
        seed=args.seed,
    )
    return emit(report, render_sweep(report), args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Softmax recomposition reproduction (IISWC 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one inference + breakdown")
    _add_common(p_sim)
    p_sim.add_argument("--plan", default="baseline")
    _add_output(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="baseline vs SD vs SDF")
    _add_common(p_cmp)
    _add_output(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_brk = sub.add_parser("breakdown", help="Fig. 2 stacks, all models")
    _add_common(p_brk)
    _add_output(p_brk)
    p_brk.set_defaults(func=cmd_breakdown)

    p_lib = sub.add_parser("libraries", help="Fig. 7 library comparison")
    _add_common(p_lib)
    _add_output(p_lib)
    p_lib.set_defaults(func=cmd_libraries)

    p_swp = sub.add_parser("sweep", help="Fig. 9 sweeps")
    _add_common(p_swp)
    p_swp.add_argument("--axis", choices=("seq-len", "batch"),
                       default="seq-len")
    p_swp.add_argument("--values", default="1024,2048,4096,8192")
    p_swp.add_argument("--jobs", type=int, default=1,
                       help="worker processes for the sweep (1 = serial; "
                            "results are identical either way)")
    _add_output(p_swp)
    p_swp.set_defaults(func=cmd_sweep)

    p_gen = sub.add_parser("generate", help="prefill + KV-cache decode")
    _add_common(p_gen)
    p_gen.set_defaults(model="gpt-neo-1.3b", seq_len=2048)
    p_gen.add_argument("--plan", default="baseline")
    p_gen.add_argument("--tokens", type=int, default=64)
    p_gen.add_argument("--prefill-chunk", type=int, default=0,
                       help="prefill the prompt in chunks of this many "
                            "tokens (0 = single shot)")
    _add_output(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_par = sub.add_parser("parallel", help="tensor-parallel scaling")
    _add_common(p_par)
    p_par.add_argument("--plan", default="baseline")
    p_par.add_argument("--algorithm", choices=("ring", "tree"),
                       default="ring",
                       help="all-reduce algorithm for the collectives")
    _add_output(p_par)
    p_par.set_defaults(func=cmd_parallel)

    p_roof = sub.add_parser("roofline", help="roofline analysis")
    _add_common(p_roof)
    p_roof.add_argument("--plan", default="baseline")
    _add_output(p_roof)
    p_roof.set_defaults(func=cmd_roofline)

    p_fp = sub.add_parser("footprint", help="peak memory footprint")
    _add_common(p_fp)
    _add_output(p_fp)
    p_fp.set_defaults(func=cmd_footprint)

    p_s2s = sub.add_parser(
        "seq2seq",
        help="encoder-decoder inference (Transformer base/big)")
    p_s2s.add_argument("--config", choices=("base", "big"), default="base",
                       help="Vaswani et al. transformer variant")
    p_s2s.add_argument("--gpu", default="A100",
                       help=" | ".join(gpu_presets()))
    p_s2s.add_argument("--plan", default="baseline")
    p_s2s.add_argument("--src-len", type=int, default=4096,
                       help="encoder (source) sequence length")
    p_s2s.add_argument("--tgt-len", type=int, default=4096,
                       help="decoder (target) sequence length")
    p_s2s.add_argument("--batch", type=int, default=1)
    _add_output(p_s2s)
    p_s2s.set_defaults(func=cmd_seq2seq)

    p_srv = sub.add_parser("serve-sim",
                           help="discrete-event serving simulation")
    add_workload_args(p_srv)
    _add_output(p_srv)
    p_srv.set_defaults(func=cmd_serve_sim)

    p_cls = sub.add_parser("cluster-sim",
                           help="multi-replica sharded cluster simulation")
    add_workload_args(p_cls)
    add_sharding_args(p_cls)
    _add_output(p_cls)
    p_cls.set_defaults(func=cmd_cluster_sim)

    p_ctl = sub.add_parser(
        "controlplane-sim",
        help="SLO-driven control plane: autoscaling, shedding, faults",
    )
    add_workload_args(p_ctl)
    p_ctl.set_defaults(plans="sdf", rate=4.0, duration=30.0)
    p_ctl.add_argument("--replicas", type=int,
                       help="initial model replicas")
    p_ctl.add_argument("--tp", type=int,
                       help="tensor-parallel GPUs per replica")
    p_ctl.add_argument("--pp", type=int,
                       help="pipeline-parallel stages per replica")
    p_ctl.add_argument("--policy", default="least-outstanding",
                       choices=("round-robin", "least-outstanding",
                                "prefix-affinity"),
                       help="request-routing policy")
    p_ctl.add_argument("--tiers", default=None,
                       help="SLO tiers as name:share:ttft[:tpot"
                            "[:attainment]],... (highest priority "
                            "first; default interactive/batch)")
    p_ctl.add_argument("--autoscale", action="store_true",
                       help="enable the SLO-driven autoscaler")
    p_ctl.add_argument("--min-replicas", type=int, default=1,
                       help="autoscaler floor")
    p_ctl.add_argument("--max-replicas", type=int, default=8,
                       help="autoscaler ceiling")
    p_ctl.add_argument("--control-interval", type=float, default=0.25,
                       help="autoscaler tick interval, seconds")
    p_ctl.add_argument("--cold-start", type=float, default=None,
                       help="replica cold-start seconds (default: "
                            "derived from weight-load + KV-pool init)")
    p_ctl.add_argument("--shed-tokens", type=float, default=0.0,
                       help="per-replica backlog (tokens) above which "
                            "the lowest tier sheds; 0 disables")
    p_ctl.add_argument("--deaths", type=int, default=0,
                       help="random replica deaths to inject")
    p_ctl.add_argument("--stragglers", type=int, default=0,
                       help="random straggler slowdowns to inject")
    p_ctl.add_argument("--death", type=float, action="append",
                       default=None,
                       help="explicit death time, seconds (repeatable; "
                            "overrides --deaths)")
    _add_output(p_ctl)
    p_ctl.set_defaults(func=cmd_controlplane_sim)

    p_ver = sub.add_parser(
        "verify",
        help="paper targets, differential fuzzing, artifact replay",
    )
    p_ver.add_argument("mode", nargs="?", default="targets",
                       choices=("targets", "fuzz", "replay"),
                       help="targets: check the paper's headline numbers; "
                            "fuzz: differential-fuzz the oracle registry; "
                            "replay: re-run a failure artifact")
    p_ver.add_argument("artifact", nargs="?", default=None,
                       help="failure-artifact JSON path (replay mode)")
    p_ver.add_argument("--quick", action="store_true",
                       help="headline targets only (targets mode)")
    p_ver.add_argument("--family", default=None,
                       help="fuzz one family (softmax | attention | "
                            "block_sparse | serving); default: all")
    p_ver.add_argument("--cases", type=int, default=200,
                       help="fuzz cases per family")
    p_ver.add_argument("--seed", type=int, default=0,
                       help="fuzz harness seed")
    p_ver.add_argument("--artifact-dir", default=None,
                       help="write failure artifacts into this directory")
    _add_output(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_apx = sub.add_parser(
        "approx-sweep",
        help="accuracy-vs-speed Pareto sweep of the approximate "
             "softmax family (LUT, BAPS, FLASH-D vs SDF and baseline)",
    )
    p_apx.add_argument("--gpu", default="A100",
                       help=" | ".join(gpu_presets()))
    p_apx.add_argument("--models",
                       default="bert-large,gpt-neo-1.3b,bigbird-large,"
                               "longformer-large",
                       help="comma-separated model names for the speed "
                            "grid")
    p_apx.add_argument("--seq-lens", default="256,512,1024,2048,4096",
                       help="comma-separated sequence lengths for the "
                            "speed grid")
    p_apx.add_argument("--dtype", choices=("fp16", "fp32"),
                       default="fp16",
                       help="storage dtype for both axes of the sweep")
    p_apx.add_argument("--cases", type=int, default=8,
                       help="accuracy cases per numeric regime")
    p_apx.add_argument("--seed", type=int, default=0,
                       help="accuracy-stage input seed")
    _add_output(p_apx)
    p_apx.set_defaults(func=cmd_approx_sweep)

    p_trc = sub.add_parser(
        "trace",
        help="run a simulation with tracing on; export a Chrome trace",
    )
    p_trc.add_argument("--sim",
                       choices=("inference", "serving", "cluster",
                                "controlplane"),
                       default="inference",
                       help="which simulator to run under the tracer")
    add_workload_args(p_trc)
    add_sharding_args(p_trc)
    p_trc.add_argument("--seq-len", type=int,
                       help="sequence length (inference mode)")
    p_trc.add_argument("--batch", type=int,
                       help="batch size (inference mode)")
    p_trc.add_argument("--plan", default="baseline",
                       help="attention plan (inference mode; serving and "
                            "cluster modes use --plans)")
    # Traces get large; default to a shorter workload than serve-sim.
    p_trc.set_defaults(rate=4.0, duration=10.0)
    _add_output(p_trc)
    p_trc.set_defaults(func=cmd_trace)

    from repro.tune import OBJECTIVES

    p_tun = sub.add_parser(
        "tune",
        help="closed-loop plan autotuner: deterministic budgeted search "
             "over plans and engine knobs; emits a repro.tuned_plan/v1 "
             "artifact for --plan-file",
    )
    add_workload_args(p_tun)
    add_sharding_args(p_tun)
    # The incumbent the winner must beat is the last --plans entry;
    # default to the paper's optimized plan.
    p_tun.set_defaults(plans="sdf")
    p_tun.add_argument("--objective", choices=OBJECTIVES,
                       default="ttft_p99",
                       help="what to optimize: single-inference latency, "
                            "serving TTFT/TPOT p99 (minimized), or "
                            "serving throughput (maximized)")
    p_tun.add_argument("--budget", type=int, default=64,
                       help="fresh simulator evaluations the search may "
                            "spend (memoized repeats are free)")
    p_tun.add_argument("--sim", choices=("serving", "cluster"),
                       default="serving",
                       help="evaluation backend for the serving "
                            "objectives (cluster adds TP x PP and "
                            "routing-policy axes); the latency "
                            "objective always scores single inferences")
    p_tun.add_argument("--seq-len", type=int,
                       help="single-inference sequence length "
                            "(latency objective)")
    p_tun.add_argument("--batch", type=int,
                       help="single-inference batch size "
                            "(latency objective)")
    _add_output(p_tun)
    p_tun.set_defaults(func=cmd_tune)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Run one command; library errors propagate (see :func:`console`).

    A reader that goes away before the output is written (``repro ... |
    head``) exits 1 without a message: stdout is pointed at devnull so
    the interpreter's final flush cannot raise again (the ``signal``
    docs' SIGPIPE recipe).
    """
    args = build_parser().parse_args(argv)
    output = args.func(args)
    try:
        print(output)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return getattr(args, "_exit_code", 0)


def console(argv: "list[str] | None" = None) -> int:
    """:func:`main` for a shell: a :class:`~repro.common.errors.ReproError`
    prints ``repro <command>: error: <message>`` to stderr and exits 2,
    like a bad flag, instead of a traceback."""
    from repro.common.errors import ReproError

    argv = sys.argv[1:] if argv is None else argv
    try:
        return main(argv)
    except ReproError as error:
        command = next((arg for arg in argv if not arg.startswith("-")),
                       None)
        prefix = "repro" if command is None else f"repro {command}"
        print(f"{prefix}: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(console())
