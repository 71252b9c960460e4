"""Per-layer timing for traced benchmark runs, from outside the program.

A traced run wraps each simulator layer's public entry points with the
harness's own timers before any simulator is built (``EpochEngine``
binds ``cost.step_cost`` at construction, so later patches would be
missed).  Names another module imported directly are patched in that
module.  Per-call spans would run to millions, so calls aggregate into
an in-memory calling-context tree: one node per distinct call path,
holding its call count, total time and self time (total minus the time
spent in nested timed calls).  Nothing under ``src/`` changes.

:func:`track_instances` is the one hook untraced runs also use: it
records every engine and step-cost model a run creates, which is how
the harness counts simulated steps without touching the hot path.
"""

from __future__ import annotations

import functools
import importlib
import time

#: ``(timer key, module, attribute)`` for every wrapped entry point.
#: A key is ``<layer>.<function>``; entries sharing a key are one
#: function seen through several classes or import sites.
ENTRY_POINTS = (
    ("serving.requests.request_arrays", "repro.serving.requests",
     "ServingWorkload.request_arrays"),
    ("serving.requests.materialize", "repro.serving.requests",
     "RequestArrays.materialize"),
    ("serving.simulator.run", "repro.serving.simulator",
     "ServingSimulator.run"),
    ("cluster.router.run", "repro.cluster.router", "ClusterSimulator.run"),
    ("controlplane.controller.run", "repro.controlplane.controller",
     "ControlPlaneSimulator.run"),
    ("serving.engine.advance", "repro.serving.engine", "EpochEngine.advance"),
    ("serving.scheduler.schedule", "repro.serving.scheduler",
     "ContinuousBatchingScheduler.schedule"),
    ("serving.scheduler.complete_step", "repro.serving.scheduler",
     "ContinuousBatchingScheduler.complete_step"),
    ("serving.memory.grow", "repro.serving.memory", "KVBlockManager.grow"),
    ("serving.costmodel.step_time", "repro.serving.costmodel",
     "StepCostModel.step_time"),
    ("serving.costmodel.decode_step_time", "repro.serving.costmodel",
     "StepCostModel.decode_step_time"),
    # Cold pricing: reached only when a mlp_time/attention_time lookup
    # misses its memo, so these three calls are exactly the cold cost.
    ("serving.costmodel.cold_price", "repro.serving.costmodel",
     "attention_step_kernels"),
    ("serving.costmodel.cold_price", "repro.serving.costmodel",
     "mlp_step_kernels"),
    ("serving.costmodel.cold_price", "repro.serving.costmodel",
     "StepCostModel._simulate"),
    ("cluster.costmodel.step_cost", "repro.cluster.costmodel",
     "ShardedStepCostModel.step_cost"),
    ("cluster.costmodel.decode_step_cost", "repro.cluster.costmodel",
     "ShardedStepCostModel.decode_step_cost"),
    ("cluster.policies.choose", "repro.cluster.policies",
     "RoundRobinPolicy.choose"),
    ("cluster.policies.choose", "repro.cluster.policies",
     "LeastOutstandingPolicy.choose"),
    ("cluster.policies.choose", "repro.cluster.policies",
     "PrefixAffinityPolicy.choose"),
    ("serving.specdecode.draft_time", "repro.serving.specdecode",
     "SpecDecodeRuntime.draft_time"),
    ("serving.metrics.latency_add", "repro.serving.metrics",
     "LatencyAccumulator.add"),
    ("serving.metrics.report", "repro.serving.metrics", "PlanReport.from_run"),
    ("serving.metrics.report", "repro.serving.metrics",
     "PlanReport.from_aggregates"),
    ("serving.metrics.report", "repro.cluster.metrics",
     "ClusterPlanReport.from_replicas"),
    ("serving.metrics.report", "repro.cluster.metrics",
     "ClusterPlanReport.from_outcomes"),
    ("obs.tracer.complete", "repro.obs.tracer", "Tracer.complete"),
    ("obs.tracer.instant", "repro.obs.tracer", "Tracer.instant"),
    ("obs.tracer.counter", "repro.obs.tracer", "Tracer.counter"),
    ("obs.tracer.push", "repro.obs.tracer", "Tracer.push"),
    ("obs.tracer.span", "repro.obs.tracer", "Tracer.span"),
    ("obs.instrument.phase_spans", "repro.serving.simulator",
     "emit_request_phase_spans"),
    ("obs.instrument.phase_spans", "repro.cluster.router",
     "emit_request_phase_spans"),
    ("obs.metrics.instrument", "repro.obs.metrics", "MetricsRegistry.counter"),
    ("obs.metrics.instrument", "repro.obs.metrics", "MetricsRegistry.gauge"),
    ("obs.metrics.instrument", "repro.obs.metrics",
     "NullMetricsRegistry.counter"),
    ("obs.metrics.instrument", "repro.obs.metrics",
     "NullMetricsRegistry.gauge"),
    ("controlplane.autoscaler.decide", "repro.controlplane.autoscaler",
     "Autoscaler.decide"),
    ("controlplane.autoscaler.observe", "repro.controlplane.autoscaler",
     "Autoscaler.observe_first_token"),
    ("tune.evaluate", "repro.tune.evaluate", "ScenarioEvaluator.evaluate"),
    ("tune.search", "repro.tune.search", "tune"),
)


class CallNode:
    """One call path: count, total and self time of the calls on it."""

    __slots__ = ("key", "calls", "total", "self_time", "children")

    def __init__(self, key: str) -> None:
        self.key = key
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children: "dict[str, CallNode]" = {}

    def to_json(self) -> "dict[str, object]":
        return {
            "key": self.key, "calls": self.calls, "total_s": self.total,
            "self_s": self.self_time,
            "children": [child.to_json() for child in self.children.values()],
        }


class CallTree:
    """Calling-context tree the timers of one process record into."""

    def __init__(self) -> None:
        self.root = CallNode("root")
        #: Open frames: ``[node, time spent in nested timed calls]``.
        self._stack: "list[list]" = [[self.root, 0.0]]

    def timed(self, key: str, fn):
        """``fn`` wrapped so each call records under ``key``."""
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].children.get(key)
            if node is None:
                node = parent[0].children[key] = CallNode(key)
            frame = [node, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                node.calls += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
        return wrapper

    def instrument(self) -> None:
        """Wrap every entry point in :data:`ENTRY_POINTS`."""
        for key, module_name, path in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            owner_name, _, attr = path.rpartition(".")
            if owner_name:
                owner = getattr(owner, owner_name)
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.timed(key, raw.__func__))
            else:
                wrapped = self.timed(key, raw)
            setattr(owner, attr, wrapped)

    def edges(self) -> "list[tuple[str, CallNode]]":
        """Every ``(parent key, node)`` pair below the root."""
        found, pending = [], [self.root]
        while pending:
            parent = pending.pop()
            for child in parent.children.values():
                found.append((parent.key, child))
                pending.append(child)
        return found


def track_instances(cls) -> "list":
    """Record every instance of ``cls`` created from now on."""
    created = []
    init = cls.__init__

    @functools.wraps(init)
    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)
    cls.__init__ = tracked
    return created


class LayerContext:
    """What the per-layer metric definitions read: the call tree, the
    engines and cost models a run created, and the run's result."""

    def __init__(self, tree: CallTree, engines, cost_models, result,
                 kernel_cache) -> None:
        self._edges = tree.edges()
        self.engines = engines
        self.cost_models = cost_models
        self.result = result
        self.kernel_cache = kernel_cache

    def calls(self, *keys: str) -> int:
        """Calls under ``keys``, not counting ones nested in another."""
        return sum(node.calls for parent, node in self._edges
                   if node.key in keys and parent not in keys)

    def self_s(self, *keys: str) -> float:
        return sum((node.self_time for _, node in self._edges
                    if node.key in keys), 0.0)

    def engine_sum(self, attr: str) -> float:
        return sum(getattr(engine, attr) for engine in self.engines)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


_TRACER_KEYS = ("obs.tracer.complete", "obs.tracer.instant",
                "obs.tracer.counter", "obs.tracer.push", "obs.tracer.span")

#: ``(name, unit, definition)`` of every per-layer metric.  ``_calls``
#: counts outermost calls, ``_s`` is self time; counts of simulated
#: things (preemptions, cold starts, ...) are modelled and repeat exactly.
LAYER_METRICS = (
    ("serving.requests.sample_s", "s",
     lambda c: c.self_s("serving.requests.request_arrays")),
    ("serving.requests.materialize_calls", "count",
     lambda c: c.calls("serving.requests.materialize")),
    ("serving.requests.materialize_s", "s",
     lambda c: c.self_s("serving.requests.materialize")),
    ("serving.simulator.loop_s", "s",
     lambda c: c.self_s("serving.simulator.run")),
    ("cluster.router.loop_s", "s", lambda c: c.self_s("cluster.router.run")),
    ("controlplane.controller.loop_s", "s",
     lambda c: c.self_s("controlplane.controller.run")),
    ("serving.engine.advance_calls", "count",
     lambda c: c.calls("serving.engine.advance")),
    ("serving.engine.advance_s", "s",
     lambda c: c.self_s("serving.engine.advance")),
    ("serving.engine.epoch_step_share", "ratio",
     lambda c: _ratio(c.engine_sum("epoch_steps"), c.engine_sum("steps"))),
    ("serving.engine.steps_per_advance", "ratio",
     lambda c: _ratio(c.engine_sum("steps"),
                      c.calls("serving.engine.advance"))),
    ("serving.scheduler.schedule_calls", "count",
     lambda c: c.calls("serving.scheduler.schedule")),
    ("serving.scheduler.schedule_s", "s",
     lambda c: c.self_s("serving.scheduler.schedule")),
    ("serving.scheduler.complete_step_s", "s",
     lambda c: c.self_s("serving.scheduler.complete_step")),
    ("serving.scheduler.preemptions", "count",
     lambda c: sum(e.scheduler.preemption_events for e in c.engines)),
    ("serving.memory.grow_calls", "count",
     lambda c: c.calls("serving.memory.grow")),
    ("serving.memory.grow_s", "s", lambda c: c.self_s("serving.memory.grow")),
    ("serving.memory.kv_peak_fraction", "ratio",
     lambda c: max((e.memory.peak_blocks / e.memory.total_blocks
                    for e in c.engines), default=0.0)),
    ("serving.costmodel.step_time_calls", "count",
     lambda c: c.calls("serving.costmodel.step_time")),
    ("serving.costmodel.step_time_s", "s",
     lambda c: c.self_s("serving.costmodel.step_time")),
    ("serving.costmodel.decode_step_time_calls", "count",
     lambda c: c.calls("serving.costmodel.decode_step_time")),
    ("serving.costmodel.decode_step_time_s", "s",
     lambda c: c.self_s("serving.costmodel.decode_step_time")),
    ("serving.costmodel.shapes_priced", "count",
     lambda c: sum(sum(m.cache_sizes()) for m in c.cost_models)),
    ("serving.costmodel.cold_price_s", "s",
     lambda c: c.self_s("serving.costmodel.cold_price")),
    ("gpu.simcache.kernel_hit_rate", "ratio",
     lambda c: c.kernel_cache.hit_rate),
    ("gpu.simcache.lookups", "count", lambda c: c.kernel_cache.lookups),
    ("cluster.costmodel.step_cost_calls", "count",
     lambda c: c.calls("cluster.costmodel.step_cost")),
    ("cluster.costmodel.step_cost_s", "s",
     lambda c: c.self_s("cluster.costmodel.step_cost")),
    ("cluster.costmodel.decode_step_cost_s", "s",
     lambda c: c.self_s("cluster.costmodel.decode_step_cost")),
    ("cluster.costmodel.comm_frac", "ratio",
     lambda c: _ratio(c.engine_sum("comm_time"), c.engine_sum("busy"))),
    ("cluster.policies.choose_calls", "count",
     lambda c: c.calls("cluster.policies.choose")),
    ("cluster.policies.choose_s", "s",
     lambda c: c.self_s("cluster.policies.choose")),
    ("serving.specdecode.draft_time_calls", "count",
     lambda c: c.calls("serving.specdecode.draft_time")),
    ("serving.specdecode.draft_time_s", "s",
     lambda c: c.self_s("serving.specdecode.draft_time")),
    ("serving.metrics.latency_add_calls", "count",
     lambda c: c.calls("serving.metrics.latency_add")),
    ("serving.metrics.latency_add_s", "s",
     lambda c: c.self_s("serving.metrics.latency_add")),
    ("serving.metrics.report_s", "s",
     lambda c: c.self_s("serving.metrics.report")),
    ("obs.tracer.events", "count",
     lambda c: c.calls("obs.tracer.complete", "obs.tracer.instant",
                       "obs.tracer.counter")),
    ("obs.tracer.emit_s", "s", lambda c: c.self_s(*_TRACER_KEYS)),
    ("obs.instrument.phase_spans_s", "s",
     lambda c: c.self_s("obs.instrument.phase_spans")),
    ("obs.metrics.calls", "count",
     lambda c: c.calls("obs.metrics.instrument")),
    ("controlplane.autoscaler.decide_calls", "count",
     lambda c: c.calls("controlplane.autoscaler.decide")),
    ("controlplane.autoscaler.decide_s", "s",
     lambda c: c.self_s("controlplane.autoscaler.decide")),
    ("controlplane.autoscaler.observe_s", "s",
     lambda c: c.self_s("controlplane.autoscaler.observe")),
    ("controlplane.autoscaler.cold_starts", "count",
     lambda c: getattr(c.result, "cold_starts", 0)),
    ("controlplane.autoscaler.mean_replicas", "replicas",
     lambda c: getattr(c.result, "mean_replicas", 0.0)),
    ("tune.evaluations", "count", lambda c: getattr(c.result, "spent", 0)),
    ("tune.memo_hit_ratio", "ratio",
     lambda c: _ratio(c.calls("tune.evaluate")
                      - getattr(c.result, "spent", 0),
                      c.calls("tune.evaluate"))),
    ("tune.evaluate_s", "s", lambda c: c.self_s("tune.evaluate")),
    ("tune.search_s", "s", lambda c: c.self_s("tune.search")),
)


def layer_metrics(context: LayerContext) -> "dict[str, float]":
    """Every :data:`LAYER_METRICS` value for one traced run."""
    return {name: define(context) for name, _, define in LAYER_METRICS}
