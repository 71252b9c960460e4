"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Runs every workload at 2% scale, twice untraced and once traced, then
checks what the harness prints against ``BENCHMARK.json``.  Takes
about 10 s.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

from layers import LAYER_METRICS
from run import END_TO_END, TRACE_OVERHEAD
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
LAYER_UNITS = {name: unit for name, unit, _ in LAYER_METRICS}
LAYER_UNITS[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.02",
         "--repetitions", "2", "--trace", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    blocks = {}
    for block in proc.stdout.split("== ")[1:]:
        blocks[block.split(":", 1)[0]] = block
    return proc, blocks, json.loads(out.read_text())


def _printed(block: str, name: str, unit: str) -> bool:
    return re.search(rf"^{re.escape(name)}\s+{re.escape(unit)}\s",
                     block, re.MULTILINE) is not None


def test_every_check_passes(smoke):
    proc, _, document = smoke
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    for name, result in document["workloads"].items():
        assert result["problems"] == [], name


def test_end_to_end_metrics_printed_with_units(smoke):
    _, blocks, _ = smoke
    units = {name: unit for name, unit, *_ in END_TO_END}
    assert set(blocks) == set(WORKLOADS)
    for workload, block in blocks.items():
        named = [(entry["name"], entry["unit"])
                 for entry in BENCHMARK["end_to_end"]]
        applicable = [(name, units[name])
                      for name in WORKLOADS[workload].model_metrics]
        for name, unit in named + applicable:
            assert _printed(block, name, unit), (workload, name)


def test_every_per_layer_metric_printed_under_trace(smoke):
    _, blocks, _ = smoke
    for workload, block in blocks.items():
        for name, unit in LAYER_UNITS.items():
            assert _printed(block, name, unit), (workload, name)


def test_benchmark_json_agrees_with_the_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    harness = {name: (unit, better, bound)
               for name, unit, better, bound, _ in END_TO_END}
    for entry in BENCHMARK["end_to_end"]:
        assert harness[entry["name"]] == (
            entry["unit"], entry["better"], entry["bound"]), entry
    for entry in BENCHMARK["per_layer"]:
        assert LAYER_UNITS[entry["name"]] == entry["unit"], entry
