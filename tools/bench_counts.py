#!/usr/bin/env python
"""Pull the deterministic figures out of an end-to-end benchmark run.

``benchmarks/e2e/run.py --trace 1 --out RUN.json`` records, per
workload, the report digest and the per-layer metrics.  For a fixed
seed and scale the digest, every ``count``-unit layer metric (calls,
grows, shapes priced, trace events, ...) and the epoch step share do
not depend on the machine, so a change to them means the simulator
made different choices.  This script writes exactly those figures as
one JSON document, for ``tools/compare_golden.py`` to check against
``tests/golden/e2e_counts.json`` (``make bench-counts``).

Usage::

    python tools/bench_counts.py RUN.json [--output COUNTS.json]
"""

from __future__ import annotations

import argparse
import json
import sys

#: Ratio metrics that are a quotient of deterministic counts.
DETERMINISTIC_RATIOS = ("serving.engine.epoch_step_share",)


def deterministic_counts(document: dict) -> "dict[str, dict]":
    """``{workload: {"digest": ..., "layers": {metric: value}}}``."""
    counts = {}
    for name, result in document["workloads"].items():
        if "layers" not in result:
            raise ValueError(f"workload {name!r} has no per-layer metrics; "
                             f"run the benchmark with --trace 1")
        counts[name] = {
            "digest": result["digest"],
            "layers": {metric: entry["value"]
                       for metric, entry in sorted(result["layers"].items())
                       if entry["unit"] == "count"
                       or metric in DETERMINISTIC_RATIOS},
        }
    return counts


def main(argv: "list[str]") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("run", help="benchmark document from run.py --out")
    parser.add_argument("--output", default=None,
                        help="where to write the counts (default stdout)")
    args = parser.parse_args(argv)
    with open(args.run) as handle:
        text = json.dumps(deterministic_counts(json.load(handle)), indent=1,
                          sort_keys=True) + "\n"
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
