"""The observability layer: tracer semantics, exporters, and the
determinism/overhead guarantees the serving simulators rely on."""

import json

import pytest

from repro.common.errors import TraceError
from repro.gpu import simcache
from repro.obs import (
    NULL_TRACER,
    Tracer,
    chrome_events,
    chrome_trace_dict,
    current_tracer,
    to_chrome_trace,
    tracing,
    validate_nesting,
)
from repro.obs.metrics import MetricsRegistry, NULL_METRICS
from repro.serving.requests import ServingWorkload
from repro.serving.simulator import simulate_serving


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Trace content depends on cache hit/miss flags; start cold."""
    simcache.invalidate()
    yield
    simcache.invalidate()


def _traced_serving(**overrides):
    kwargs = dict(rate=3.0, duration=2.0, seed=0)
    kwargs.update(overrides)
    simcache.invalidate()
    tracer = Tracer()
    with tracing(tracer):
        report = simulate_serving("bert-large", "a100",
                                  ServingWorkload(**kwargs))
    return tracer, report


class TestTracer:
    def test_track_ids_are_first_use_ordered(self):
        tracer = Tracer()
        assert tracer.track("alpha") == (1, 0)
        assert tracer.track("beta") == (2, 0)
        assert tracer.track("alpha", "other") == (1, 1)
        assert tracer.track("alpha") == (1, 0)
        assert tracer.processes == {"alpha": 1, "beta": 2}
        assert tracer.thread_names[(1, 1)] == "other"

    def test_negative_duration_rejected(self):
        tracer = Tracer()
        with pytest.raises(TraceError):
            tracer.complete("bad", "test", ts=0.0, dur=-1.0)

    def test_span_brackets_the_clock(self):
        tracer = Tracer()
        tracer.set_clock(2.0)
        with tracer.span("work", "test"):
            tracer.advance(0.5)
        (event,) = tracer.events
        assert (event.ts, event.dur) == (2.0, 0.5)

    def test_push_lays_spans_back_to_back(self):
        tracer = Tracer()
        assert tracer.push("a", "k", 1.0, pid=1) == 0.0
        assert tracer.push("b", "k", 2.0, pid=1) == 1.0
        assert tracer.push("c", "k", 1.0, pid=2) == 0.0

    def test_instant_defaults_to_clock(self):
        tracer = Tracer()
        tracer.set_clock(3.5)
        tracer.instant("evt", "test")
        assert tracer.events[0].ts == 3.5

    def test_summary_slices_by_checkpoint(self):
        tracer = Tracer()
        tracer.complete("a", "x", ts=0.0, dur=1.0)
        mark = tracer.event_count
        tracer.complete("b", "y", ts=1.0, dur=2.0)
        sliced = tracer.summary(since=mark, include_metrics=False)
        assert sliced["spans"] == 1
        assert list(sliced["span_categories"]) == ["y"]

    def test_null_tracer_is_inert(self):
        NULL_TRACER.complete("a", "x", ts=0.0, dur=1.0)
        NULL_TRACER.instant("b", "x")
        with NULL_TRACER.span("c", "x"):
            pass
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.summary()["events"] == 0
        assert NULL_TRACER.metrics is NULL_METRICS

    def test_tracing_installs_and_restores(self):
        assert current_tracer() is NULL_TRACER
        outer = Tracer()
        with tracing(outer):
            assert current_tracer() is outer
            with tracing() as inner:
                assert current_tracer() is inner
                assert inner is not outer
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER


class TestMetricsRegistry:
    def test_counter_and_gauge(self):
        registry = MetricsRegistry()
        registry.counter("n").inc()
        registry.counter("n").add(2.5)
        gauge = registry.gauge("g")
        gauge.set(3.0)
        gauge.set(1.0)
        snap = registry.snapshot()
        assert snap["counters"]["n"] == 3.5
        assert snap["gauges"]["g"] == {
            "last": 1.0, "min": 1.0, "max": 3.0, "samples": 2}

    def test_snapshot_is_name_sorted(self):
        registry = MetricsRegistry()
        for name in ("zeta", "alpha", "mid"):
            registry.counter(name).inc()
        assert list(registry.snapshot()["counters"]) == [
            "alpha", "mid", "zeta"]

    def test_null_registry_absorbs_everything(self):
        NULL_METRICS.counter("x").inc(100)
        NULL_METRICS.gauge("y").set(5)
        assert NULL_METRICS.snapshot() == {"counters": {}, "gauges": {}}


class TestChromeExport:
    def test_metadata_and_units(self):
        tracer = Tracer()
        pid, tid = tracer.track("engine", "steps")
        tracer.complete("work", "test", ts=1.0, dur=0.25, pid=pid, tid=tid)
        doc = chrome_trace_dict(tracer)
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": "engine"}} in meta
        (span,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == pytest.approx(1.0e6)
        assert span["dur"] == pytest.approx(0.25e6)

    def test_validate_nesting_accepts_proper_trees(self):
        events = [
            {"ph": "X", "name": "outer", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 10.0},
            {"ph": "X", "name": "inner", "pid": 1, "tid": 0,
             "ts": 2.0, "dur": 3.0},
            {"ph": "X", "name": "sibling", "pid": 1, "tid": 0,
             "ts": 6.0, "dur": 4.0},
        ]
        assert validate_nesting(events) == []

    def test_validate_nesting_flags_partial_overlap(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 5.0},
            {"ph": "X", "name": "b", "pid": 1, "tid": 0,
             "ts": 3.0, "dur": 5.0},
        ]
        (problem,) = validate_nesting(events)
        assert "'b'" in problem

    def test_lanes_are_independent(self):
        events = [
            {"ph": "X", "name": "a", "pid": 1, "tid": 0,
             "ts": 0.0, "dur": 5.0},
            {"ph": "X", "name": "b", "pid": 2, "tid": 0,
             "ts": 3.0, "dur": 5.0},
        ]
        assert validate_nesting(events) == []


class TestTracedServing:
    def test_golden_trace_is_deterministic(self):
        """Fixed seed => byte-identical Chrome trace JSON."""
        first, _ = _traced_serving()
        second, _ = _traced_serving()
        assert to_chrome_trace(first) == to_chrome_trace(second)

    def test_trace_spans_nest(self):
        tracer, _ = _traced_serving()
        assert validate_nesting(chrome_events(tracer)) == []

    def test_phase_spans_reconcile_with_slo_metrics(self):
        """queued + prefill == TTFT and decode/(n-1) == TPOT, per
        request, to float tolerance — the trace *is* the report."""
        tracer, report = _traced_serving()
        lanes = {}
        for event in tracer.events:
            if event.cat in ("request", "request-phase"):
                lanes.setdefault((event.pid, event.tid), {})[
                    event.name] = event
        checked = 0
        for phases in lanes.values():
            outer = next(e for n, e in phases.items()
                         if n.startswith("request "))
            request_id = int(outer.name.split()[1])
            if "decode" not in phases:
                continue
            ttft = phases["queued"].dur + phases["prefill"].dur
            decode = phases["decode"]
            tokens = decode.args["tokens"]
            tpot = decode.dur / (tokens - 1) if tokens > 1 else 0.0
            e2e = outer.dur
            # Find the matching request in either plan's stream via the
            # aggregate check below instead; here check internal
            # consistency of the span tree.
            assert ttft + decode.dur == pytest.approx(e2e)
            assert tpot >= 0.0
            checked += 1
        assert checked > 0

    def test_phase_durations_sum_to_reported_aggregates(self):
        """Mean TTFT/TPOT recomputed from span durations match the
        report's LatencyStats to float tolerance."""
        tracer, report = _traced_serving()
        for plan, plan_report in report.plans.items():
            process = f"{plan}:requests"
            pid = tracer.processes[process]
            ttfts, tpots = [], []
            spans = {}
            for event in tracer.events:
                if event.pid == pid and event.ph == "X":
                    spans.setdefault(event.tid, {})[event.name] = event
            for phases in spans.values():
                if "decode" not in phases:
                    continue
                ttfts.append(phases["queued"].dur + phases["prefill"].dur)
                tokens = phases["decode"].args["tokens"]
                tpots.append(phases["decode"].dur / (tokens - 1)
                             if tokens > 1 else 0.0)
            assert len(ttfts) == plan_report.finished
            mean_ttft = sum(ttfts) / len(ttfts)
            mean_tpot = sum(tpots) / len(tpots)
            assert mean_ttft == pytest.approx(plan_report.ttft.mean)
            assert mean_tpot == pytest.approx(plan_report.tpot.mean)

    def test_trace_summary_attached_per_plan(self):
        _, report = _traced_serving()
        for plan_report in report.plans.values():
            summary = plan_report.trace_summary
            assert summary is not None
            assert summary["spans"] > 0
            assert "engine-step" in summary["span_categories"]
            assert "metrics" not in summary  # per-plan slices skip them
        assert "metrics" in report.trace_summary

    def test_untraced_results_are_bit_identical(self):
        """Tracing off => serialized reports match a traced run's
        numbers and carry no trace fields."""
        simcache.invalidate()
        untraced = simulate_serving(
            "bert-large", "a100",
            ServingWorkload(rate=3.0, duration=2.0, seed=0))
        _, traced = _traced_serving()
        assert untraced.trace_summary is None
        untraced_doc = untraced.to_dict()
        assert "trace_summary" not in untraced_doc
        for plan_doc in untraced_doc["plans"].values():
            assert "trace_summary" not in plan_doc

        def strip(doc):
            return {
                key: (strip(value) if isinstance(value, dict) else value)
                for key, value in doc.items()
                if key != "trace_summary"
            }

        assert json.dumps(untraced_doc, sort_keys=True) == json.dumps(
            strip(traced.to_dict()), sort_keys=True)

    def test_untraced_run_records_nothing(self):
        simulate_serving("bert-large", "a100",
                         ServingWorkload(rate=3.0, duration=2.0, seed=0))
        assert current_tracer() is NULL_TRACER
        assert NULL_TRACER.events == ()


class TestTracedCluster:
    def test_cluster_trace_nests_and_summarizes(self):
        from repro.cluster.router import simulate_cluster

        simcache.invalidate()
        tracer = Tracer()
        with tracing(tracer):
            report = simulate_cluster(
                "bert-large", "a100",
                ServingWorkload(rate=4.0, duration=2.0, seed=0),
                replicas=2)
        assert validate_nesting(chrome_events(tracer)) == []
        for plan, plan_report in report.plans.items():
            assert plan_report.trace_summary["spans"] > 0
            assert f"{plan}:router" in tracer.processes
        counters = report.trace_summary["metrics"]["counters"]
        routed = sum(value for name, value in counters.items()
                     if ":router.to_replica" in name)
        assert routed == 2 * report.num_requests  # both plans

    def test_first_admitted_time_survives_preemption(self):
        """After a preemption, admitted_time moves but
        first_admitted_time keeps the original queueing boundary."""
        import dataclasses

        from repro.common.dtypes import DType
        from repro.gpu.specs import get_gpu
        from repro.models.config import get_model
        from repro.models.footprint import weight_bytes
        from repro.serving.requests import Request
        from repro.serving.simulator import ServingSimulator

        # An A100 variant whose HBM holds the weights plus ~40 KV
        # blocks — small enough to force preemption.
        model = get_model("bert-large")
        bytes_per_token = 2 * model.num_layers * model.d_model * 2
        pool = 40 * 64 * bytes_per_token
        weights = weight_bytes(model, DType.FP16)
        gpu = dataclasses.replace(
            get_gpu("a100"), hbm_bytes=int((pool + weights) / 0.9) + 1)
        requests = [
            Request(request_id=i, arrival_time=0.0,
                    prompt_len=512, output_len=96)
            for i in range(5)
        ]
        sim = ServingSimulator("bert-large", gpu, plan="sdf",
                               requests=requests, max_batch=8)
        tracer = Tracer()
        with tracing(tracer):
            report = sim.run()
        assert report.preemption_events > 0
        preempted = [e for e in tracer.events if e.name == "preempt"]
        assert preempted
        assert validate_nesting(chrome_events(tracer)) == []
        # TTFT still reconciles from the spans: the queued phase ends
        # at the *first* admission even though admitted_time moved.
        lanes = {}
        for event in tracer.events:
            if event.ph == "X" and event.cat == "request-phase":
                lanes.setdefault((event.pid, event.tid), {})[
                    event.name] = event
        ttfts = [phases["queued"].dur + phases["prefill"].dur
                 for phases in lanes.values() if "prefill" in phases]
        assert len(ttfts) == report.finished
        assert sum(ttfts) / len(ttfts) == pytest.approx(report.ttft.mean)
