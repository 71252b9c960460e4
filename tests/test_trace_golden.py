"""Full traces of small serving, cluster and control-plane runs, pinned.

Each scenario below runs under a fresh :class:`~repro.obs.Tracer` with
cold kernel caches; the sha256 of its canonical ``traceEvents`` JSON
and its event count per category must equal
``tests/golden/trace_digests.json``.  Every traced event — engine
steps, scheduling decisions, routes, control-plane instants, kernel
spans, request phases — is covered, so any change to what a run
computes or to the order it emits events in shows up here.

Regenerate only when a trace change is intended, and review why::

    PYTHONPATH=src python tests/test_trace_golden.py
"""

import hashlib
import json
import pathlib
from collections import Counter

import pytest

from repro.cluster.router import ClusterSimulator
from repro.controlplane.autoscaler import AutoscalerConfig
from repro.controlplane.controller import ControlPlaneSimulator
from repro.controlplane.faults import FailureSchedule
from repro.gpu import simcache
from repro.obs import Tracer, chrome_events, tracing
from repro.serving.arrivals import MMPPArrivals
from repro.serving.requests import ServingWorkload
from repro.serving.simulator import ServingSimulator

GOLDEN = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"
REGENERATE = "PYTHONPATH=src python tests/test_trace_golden.py"


def _serving(**kwargs):
    workload = ServingWorkload(rate=3.0, duration=2.0, seed=0)
    return ServingSimulator("bert-large", "a100", plan="sdf",
                            workload=workload, **kwargs)


def _cluster():
    workload = ServingWorkload(rate=8.0, duration=3.0, seed=1)
    return ClusterSimulator("bert-large", "a100", plan="sdf",
                            workload=workload, replicas=3,
                            policy="least-outstanding")


def _controlplane():
    # A burst scales the fleet up and back down around one straggler
    # and one death (whose residents re-queue onto the survivors).
    workload = ServingWorkload(
        rate=6.0, duration=3.0, seed=2,
        arrival=MMPPArrivals(rate=6.0, burst_rate=24.0, base_dwell=1.0,
                             burst_dwell=0.5))
    return ControlPlaneSimulator(
        "bert-large", "a100", workload=workload, plan="sdf", replicas=2,
        autoscaler=AutoscalerConfig(min_replicas=2, max_replicas=4,
                                    cold_start_s=0.2),
        faults=FailureSchedule(deaths=(1.0,), stragglers=((0.5, 2.0),)))


#: Scenario name -> builder of the simulator whose ``run`` is traced.
SCENARIOS = {
    "serving": _serving,
    "serving-spec": lambda: _serving(draft_model="gpt-neo-1.3b",
                                     draft_len=3, accept_rate=0.75),
    "cluster-least-outstanding": _cluster,
    "controlplane-death-straggler": _controlplane,
}


def digest(name: str) -> dict:
    """``{"sha256": ..., "events": n, "categories": {cat: n}}``."""
    simcache.invalidate()
    tracer = Tracer()
    with tracing(tracer):
        SCENARIOS[name]().run()
    simcache.invalidate()
    events = chrome_events(tracer)
    canonical = json.dumps(events, sort_keys=True)
    categories = Counter(e["cat"] for e in events if "cat" in e)
    return {"sha256": hashlib.sha256(canonical.encode()).hexdigest(),
            "events": len(events),
            "categories": dict(sorted(categories.items()))}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())["scenarios"]
    assert digest(name) == golden[name]


if __name__ == "__main__":
    document = {
        "generated_by": REGENERATE,
        "scenarios": {name: digest(name) for name in sorted(SCENARIOS)},
    }
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
