#!/usr/bin/env python
"""Run one repetition of one benchmark workload in this process.

``run.py`` starts one of these per repetition, so every run begins
with cold caches, as a CLI invocation does.  The result is one JSON
line on stdout:

- ``setup_s``: from this file's first statement until the simulator is
  built and its request arrays are sampled (imports included);
- ``wall_s``: the timed call, ``run()`` or ``tune()``;
- ``steps``: simulated engine steps over every engine the call created;
- ``peak_rss_mb``: ``ru_maxrss`` right after the timed call;
- the workload's summary: modelled metrics, request counts, report
  digest and output problems (``--check`` adds the workload's own
  output check);
- with ``--traced``: the per-layer metrics and the call tree.

Usage: ``python benchmarks/e2e/child.py --workload NAME --seed N
--scale X [--traced] [--check]``
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--traced", action="store_true",
                        help="time every layer's entry points")
    parser.add_argument("--check", action="store_true",
                        help="also run the workload's own output check")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    from repro.gpu import simcache
    from repro.serving.costmodel import StepCostModel
    from repro.serving.engine import EpochEngine

    engines = layers.track_instances(EpochEngine)
    cost_models = layers.track_instances(StepCostModel)
    setup = workload.setup
    tree = None
    if args.traced:
        tree = layers.CallTree()
        tree.instrument()
        setup = tree.timed("setup", setup)
    run = setup(args.seed, args.scale)
    setup_s = time.perf_counter() - _START
    if tree is not None:
        run = tree.timed("run", run)

    start = time.perf_counter()
    result = run()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    engines = list(engines)

    doc = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "steps": sum(engine.steps for engine in engines),
        "peak_rss_mb": peak_rss_mb,
        **workload.summarize(result, engines),
    }
    if tree is not None:
        context = layers.LayerContext(tree, engines, list(cost_models),
                                      result, simcache.stats()["kernel"])
        doc["layers"] = layers.layer_metrics(context)
        doc["call_tree"] = tree.root.to_json()
    if args.check:
        doc["problems"] += workload.check(args.seed, args.scale, result)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
