#!/usr/bin/env python
"""End-to-end benchmark of the whole simulator, five workloads.

Each repetition of each workload runs in a fresh child process
(``child.py``), so caches start cold as they do for a CLI user, and
the parent runs one child at a time.  Every run's outputs are checked.
The harness prints every end-to-end metric by name with its unit,
median, quartiles and sample count:

- *host* metrics time the simulator itself (wall-clock, memory);
- *modelled* metrics are what the simulated GPU fleet does.  They are
  deterministic for a fixed seed, so a change that only speeds up the
  simulator must leave every one of them exactly where it was.

``--trace`` runs each workload once more with the harness's timers
around every layer's entry points and prints the per-layer metrics.

Usage::

    python benchmarks/e2e/run.py [--workloads NAME ...] [--seed 7]
        [--repetitions 3] [--seconds S] [--scale 1.0] [--trace [0|1]]
        [--out PATH]

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics ``BENCHMARK.json`` names, or its per-layer metrics under
``--trace``.  With several workloads each metric is keyed
``<workload>/<metric>``.  Exit code 0 when every run and check passed,
1 when any failed, 2 when the source tree or ``BENCHMARK.json`` is
missing.  Nothing is written unless ``--out`` is given.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

from layers import LAYER_METRICS
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]

#: ``(name, unit, better, bound, kind)`` of every end-to-end metric.
#: ``bound`` is the relative worsening allowed before a change counts
#: as a regression.  Host timings get 0.25 because neighbour load on a
#: shared 2-vCPU VM moves them 10-30% between runs; modelled metrics
#: must repeat exactly.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25, "host"),
    ("wall_s", "s", "lower", 0.25, "host"),
    ("host_us_per_step", "us", "lower", 0.25, "host"),
    ("peak_rss_mb", "MB", "lower", 0.20, "host"),
    ("run_error_rate", "fraction", "lower", 0.0, "errors"),
    ("model_ttft_p50_s", "s", "lower", 0.0, "modelled"),
    ("model_ttft_p99_s", "s", "lower", 0.0, "modelled"),
    ("model_tpot_p50_ms", "ms", "lower", 0.0, "modelled"),
    ("model_tpot_p99_ms", "ms", "lower", 0.0, "modelled"),
    ("model_tok_per_s", "tok/s", "higher", 0.0, "modelled"),
    ("model_drop_frac", "fraction", "lower", 0.0, "modelled"),
    ("model_replica_s", "replica-s", "lower", 0.0, "modelled"),
)

#: The traced run's wall time minus the untraced median.
TRACE_OVERHEAD = ("trace_overhead_s", "s")

CHILD_TIMEOUT_S = 150
#: Upper bound on repetitions of one workload, whatever ``--seconds``.
MAX_ATTEMPTS = 50
#: How far the traced run's layer self times may sum from its wall time.
SELF_TIME_TOLERANCE = 0.05


class Harness:
    """Runs children for one invocation and records a Chrome-trace span
    per child run."""

    def __init__(self, args) -> None:
        self.args = args
        self.trace_events: "list[dict]" = []
        self._epoch = time.perf_counter()

    def spawn(self, name: str, *, traced: bool = False,
              check: bool = False) -> "tuple[dict | None, list[str]]":
        """One repetition in a fresh child: its document and problems."""
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", name, "--seed", str(self.args.seed),
                   "--scale", repr(self.args.scale)]
        if traced:
            command.append("--traced")
        if check:
            command.append("--check")
        start = time.perf_counter()
        doc, problems = None, []
        try:
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems = [f"child timed out after {CHILD_TIMEOUT_S} s"]
        else:
            lines = proc.stdout.strip().splitlines()
            try:
                if proc.returncode != 0:
                    raise ValueError(f"exited {proc.returncode}")
                doc = json.loads(lines[-1])
                problems = list(doc["problems"])
            except (IndexError, KeyError, ValueError) as error:
                doc = None
                stderr = proc.stderr.strip().splitlines()[-1:]
                problems = [f"child failed ({error}): "
                            f"{stderr[0] if stderr else 'no result line'}"]
        end = time.perf_counter()
        self.trace_events.append({
            "name": f"{name} ({'traced' if traced else 'untraced'})",
            "cat": "bench", "ph": "X", "pid": 1, "tid": 1,
            "ts": (start - self._epoch) * 1e6, "dur": (end - start) * 1e6,
            "args": {"seed": self.args.seed, "scale": self.args.scale,
                     "ok": not problems},
        })
        return doc, problems


def _stats(values: "list[float]") -> "dict[str, object]":
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def _self_sum(node: dict) -> float:
    return node["self_s"] + sum(_self_sum(child)
                                for child in node["children"])


def run_workload(harness: Harness, name: str) -> "dict[str, object]":
    """Every repetition of one workload, summarized and checked."""
    args = harness.args
    outcomes = []
    started = time.perf_counter()
    while len(outcomes) < MAX_ATTEMPTS and (
            len(outcomes) < args.repetitions
            or time.perf_counter() - started < args.seconds):
        outcomes.append(harness.spawn(name, check=not outcomes))
    docs = [doc for doc, _ in outcomes if doc is not None]
    if docs:
        reference = docs[0]["digest"]
        for doc, problems in outcomes:
            if doc is not None and doc["digest"] != reference:
                problems.append("report digest differs from the first run")

    traced = None
    if args.trace:
        traced, problems = harness.spawn(name, traced=True)
        if traced is not None and docs:
            if traced["digest"] != docs[0]["digest"]:
                problems.append("traced run's digest differs from untraced")
            run_node = next(child for child in traced["call_tree"]["children"]
                            if child["key"] == "run")
            self_total = _self_sum(run_node)
            if abs(self_total - traced["wall_s"]) > (
                    SELF_TIME_TOLERANCE * traced["wall_s"]):
                problems.append(
                    f"layer self times sum to {self_total:.3f} s, traced "
                    f"wall {traced['wall_s']:.3f} s")
        outcomes.append((traced, problems))

    attempted = len(outcomes)
    failed = sum(1 for _, problems in outcomes if problems)
    samples = {
        "setup_s": [doc["setup_s"] for doc in docs],
        "wall_s": [doc["wall_s"] for doc in docs],
        "host_us_per_step": [doc["wall_s"] / doc["steps"] * 1e6
                             for doc in docs if doc["steps"]],
        "peak_rss_mb": [doc["peak_rss_mb"] for doc in docs],
        "run_error_rate": [failed / attempted],
    }
    for metric in WORKLOADS[name].model_metrics:
        samples[metric] = [doc["model"][metric] for doc in docs]
    metrics = {}
    for metric, unit, better, bound, kind in END_TO_END:
        if samples.get(metric):
            metrics[metric] = {"unit": unit, "better": better,
                               "bound": bound, "kind": kind,
                               **_stats(samples[metric])}
    metrics["run_error_rate"]["n"] = attempted

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": sorted({p for _, problems in outcomes for p in problems}),
        "counts": docs[0]["counts"] if docs else {},
        "digest": docs[0]["digest"] if docs else None,
        "metrics": metrics,
    }
    if traced is not None:
        layers = {metric: {"unit": unit, "value": traced["layers"][metric]}
                  for metric, unit, _ in LAYER_METRICS}
        if docs:
            overhead = traced["wall_s"] - metrics["wall_s"]["median"]
            layers[TRACE_OVERHEAD[0]] = {"unit": TRACE_OVERHEAD[1],
                                         "value": overhead}
        result["layers"] = layers
        result["call_tree"] = traced["call_tree"]
    return result


def _table(header: "tuple[str, ...]", rows: "list[tuple]") -> "list[str]":
    cells = [header] + [tuple(str(cell) for cell in row) for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    return ["  ".join(cell.ljust(width) for cell, width in zip(row, widths))
            for row in cells]


def _number(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def render(name: str, result: dict, args) -> str:
    """Human-readable block for one workload."""
    lines = [f"== {name}: seed {args.seed}, scale {args.scale:g}, "
             f"{result['attempted']} runs, {result['failed']} failed"]
    lines += _table(
        ("metric", "unit", "median", "q1", "q3", "n"),
        [(metric, m["unit"], _number(m["median"]), _number(m["q1"]),
          _number(m["q3"]), m["n"])
         for metric, m in result["metrics"].items()])
    counts = result["counts"]
    lines.append("requests: " + ", ".join(
        f"{counts[key]} {key}" for key in
        ("arrived", "finished", "rejected", "shed") if key in counts))
    lines.append(f"report sha256: {result['digest']}")
    lines.append("checks: " + ("ok" if not result["problems"]
                               else "FAILED: " + "; ".join(result["problems"])))
    if "layers" in result:
        lines += _table(("per-layer metric", "unit", "value"),
                        [(metric, m["unit"], _number(m["value"]))
                         for metric, m in result["layers"].items()])
    return "\n".join(lines)


def result_line(results: dict, names: "list[str]", trace: bool) -> dict:
    """The summary last line: the named metrics of every workload."""
    metrics = {}
    for workload, result in results.items():
        source = result.get("layers", {}) if trace else result["metrics"]
        for metric in names:
            entry = source.get(metric)
            if entry is None:
                continue
            key = metric if len(results) == 1 else f"{workload}/{metric}"
            metrics[key] = {"value": entry["value" if trace else "median"],
                            "unit": entry["unit"]}
    attempted = sum(result["attempted"] for result in results.values())
    failed = sum(result["failed"] for result in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", "--workload", nargs="+",
                        choices=list(WORKLOADS), default=list(WORKLOADS),
                        metavar="NAME",
                        help=f"workloads to run (default all: "
                             f"{', '.join(WORKLOADS)})")
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed; every input derives from it")
    parser.add_argument("--repetitions", type=int, default=3,
                        help="untraced runs per workload, at least")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep repeating until this long was measured")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies each workload's request count or "
                             "arrival window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also run each workload once with per-layer "
                             "timers and print the per-layer metrics")
    parser.add_argument("--out", default=None,
                        help="write metrics, call trees and a Chrome trace "
                             "of the runs to this JSON file")
    args = parser.parse_args(argv)
    if args.repetitions < 1 or args.scale <= 0 or args.seconds < 0:
        parser.error("--repetitions must be >= 1, --scale > 0, "
                     "--seconds >= 0")

    benchmark = REPO_ROOT / "BENCHMARK.json"
    if not (REPO_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source under {REPO_ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not benchmark.is_file():
        print(f"error: {benchmark} is missing", file=sys.stderr)
        return 2
    spec = json.loads(benchmark.read_text())

    harness = Harness(args)
    results = {}
    for name in args.workloads:
        results[name] = run_workload(harness, name)
        print(render(name, results[name], args), flush=True)
        print(flush=True)

    if args.out:
        document = {
            "schema": "repro.bench_e2e/v1",
            "seed": args.seed, "scale": args.scale,
            "repetitions": args.repetitions, "seconds": args.seconds,
            "workloads": results,
            "traceEvents": harness.trace_events,
        }
        pathlib.Path(args.out).write_text(json.dumps(document, indent=1)
                                          + "\n")
        print(f"wrote {args.out}")

    section = "per_layer" if args.trace else "end_to_end"
    names = [entry["name"] for entry in spec[section]]
    line = result_line(results, names, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
