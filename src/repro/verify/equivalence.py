"""Engine equivalence: a scenario reports the same in every cell.

The epoch engine, the traced fast path and the sharded cluster mode
are performance work only, so a fixed-seed scenario must report the
same whatever the engine, tracing state or worker count.  A *cell* is
one ``(engine, traced, jobs)`` way of running a scenario;
:func:`check_equivalence` runs one in each cell asked for and returns
a :class:`~repro.verify.invariants.Violation` per broken clause:

- untraced reports are identical across cells, ``trace_summary``
  stripped at every nesting level;
- each untraced report equals its engine's traced report, stripped;
- traced reports (``trace_summary`` included), Chrome events and
  metrics snapshots are identical across engines, except the
  ``samples`` count of the control plane's ``*.outstanding_tokens``
  gauges, which the epoch path publishes once per advance.

Every traced cell starts from cold kernel caches, since a kernel
span's ``cached`` flag and the simcache gauges read cache state.  A
run that stops on a :class:`~repro.common.errors.ServingError` (a step
budget, say) has no report: all cells must stop, and traced ones must
emit the same events up to the stop.  Their messages may differ: an
untraced multi-lane run, not held in lockstep, crosses a budget at
another clock.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import dataclass
from typing import Callable

from repro.common.errors import ServingError
from repro.gpu import simcache
from repro.obs import Tracer, chrome_events, tracing
from repro.verify.invariants import Violation

ENGINES = ("event", "epoch")


@dataclass(frozen=True)
class Cell:
    """One way of running a scenario."""

    engine: str
    traced: bool = False
    #: Worker processes; above 1 only untraced round-robin clusters
    #: run (the sharded mode rejects everything else).
    jobs: int = 1


def all_cells(jobs: "tuple[int, ...]" = (1,),
              tracing: "tuple[bool, ...]" = (False, True),
              ) -> "tuple[Cell, ...]":
    """Engine x ``tracing`` at one worker, plus each engine untraced at
    every other worker count in ``jobs``."""
    cells = [Cell(engine, traced)
             for traced in tracing for engine in ENGINES]
    cells += [Cell(engine, jobs=n)
              for n in jobs if n != 1 for engine in ENGINES]
    return tuple(cells)


@dataclass(frozen=True)
class CellRun:
    """What one cell's run left behind."""

    cell: Cell
    #: ``report.to_dict()``; ``None`` when the run raised.
    doc: "dict | None"
    #: The ``ServingError`` message the run stopped on, if it did.
    error: "str | None"
    #: Traced cells: the Chrome events and the metrics snapshot.
    events: "list | None" = None
    metrics: "dict | None" = None


def strip_trace_summary(doc):
    """``doc`` without any ``trace_summary`` key, at every level."""
    if not isinstance(doc, dict):
        return doc
    return {key: strip_trace_summary(value)
            for key, value in doc.items() if key != "trace_summary"}


def run_cells(simulate: Callable, cells) -> "list[CellRun]":
    """Run ``simulate(cell)`` — which builds a simulator for the cell's
    engine and worker count, runs it and returns its report — once per
    cell, in order."""
    runs = []
    for cell in cells:
        tracer = None
        if cell.traced:
            simcache.invalidate()
            tracer = Tracer()
        doc = error = None
        with tracing(tracer) if tracer else contextlib.nullcontext():
            try:
                doc = simulate(cell).to_dict()
            except ServingError as exc:
                error = str(exc)
        if tracer is None:
            runs.append(CellRun(cell, doc, error))
            continue
        metrics = tracer.metrics.snapshot()
        for name, gauge in metrics["gauges"].items():
            if name.endswith(".outstanding_tokens"):
                gauge.pop("samples")
        runs.append(CellRun(cell, doc, error, chrome_events(tracer),
                            metrics))
    return runs


def _outcome(run: CellRun, *, strip: bool) -> str:
    if run.error is not None:
        return "stopped"
    doc = strip_trace_summary(run.doc) if strip else run.doc
    return json.dumps(doc, sort_keys=True)


def compare_runs(runs: "list[CellRun]") -> "list[Violation]":
    """Every clause of the contract the runs break."""
    violations = []
    untraced = [run for run in runs if not run.cell.traced]
    traced = [run for run in runs if run.cell.traced]
    for run in untraced[1:]:
        if _outcome(run, strip=True) != _outcome(untraced[0], strip=True):
            violations.append(Violation(
                "untraced_cells_agree",
                f"{run.cell} reports differently from {untraced[0].cell}"))
    twins = {run.cell.engine: run for run in traced}
    for run in untraced:
        twin = twins.get(run.cell.engine)
        if twin is not None and (_outcome(run, strip=True)
                                 != _outcome(twin, strip=True)):
            violations.append(Violation(
                "traced_equals_untraced",
                f"{twin.cell} reports differently from {run.cell}"))
    for run in traced[1:]:
        first = traced[0]
        for what, ours, theirs in (
                ("report", _outcome(run, strip=False),
                 _outcome(first, strip=False)),
                ("events", run.events, first.events),
                ("metrics", run.metrics, first.metrics)):
            if ours != theirs:
                violations.append(Violation(
                    f"traced_{what}_agree",
                    f"{run.cell} and {first.cell} differ in their {what}"))
    return violations


def check_equivalence(simulate: Callable, cells) -> "list[Violation]":
    """Run ``simulate`` in every cell and compare (see the module
    docstring for the clauses)."""
    return compare_runs(run_cells(simulate, cells))
