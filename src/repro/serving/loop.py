"""The event loop every serving front-end runs.

Single-node serving, the cluster router, each sharded cluster worker
and the control plane all interleave two kinds of work in global time
order: **events** (arrivals; the control plane's boots, faults and
ticks) and **lane advances** (a lane is one engine — an
:class:`~repro.serving.engine.EpochEngine` or a cluster replica — with
a ``clock``, a ``has_work`` flag and ``advance``).  One rule orders
them:

- the next event fires once no lane with work has an earlier clock
  (every lane's visible state is final as of that instant, so a
  routing policy or controller reads it as of the event time);
- otherwise the lane with the earliest clock advances, because no
  earlier event can change what it would do.  An advance covers one
  classic step or one epoch-batched stretch of pure-decode steps,
  bounded so no step *starts* at or after the next event — exactly the
  steps a one-step-at-a-time loop would have run before handling it.

Ties break toward firing the event, then toward the lane with the
lowest list index, so a fixed input always yields a byte-identical
run.  The loop does nothing else: each front-end keeps its own
handlers (retaining requests, choosing a replica, booting or killing
one) and its own ordering between simultaneous events.

The loop body runs once per engine step or epoch, so it scans the
lanes in one pass and allocates nothing per iteration
(docs/performance.md has the measurement behind that rule).
"""

from __future__ import annotations

from repro.common.errors import ServingError


def run_loop(lanes, next_event, *, max_steps: int, what: str) -> int:
    """Run events and lane advances to completion; returns steps taken.

    ``lanes`` is read afresh on every iteration, so an event handler
    may append or remove lanes (the control plane's boots and deaths).
    ``next_event()`` peeks at the earliest pending event without
    consuming it: ``None`` when none remains, else ``(time, fire)``,
    where ``fire()`` handles and consumes it.  The loop peeks again
    after every fired event and whenever no lane has work left, so a
    source can end the run by returning ``None`` once only events that
    need working lanes remain.  The run ends when no lane has work and
    no event remains.

    Raises :class:`~repro.common.errors.ServingError` when a lane with
    work advances 0 steps, and on the first advance past ``max_steps``
    steps in total (each advance may take at most the remaining budget
    plus one).  ``what`` names the run in both messages.
    """
    steps = 0
    event = next_event()
    while True:
        lane = None
        for candidate in lanes:
            if candidate.has_work and (lane is None
                                       or candidate.clock < lane.clock):
                lane = candidate
        if lane is None:
            event = next_event()
            if event is None:
                return steps
        if lane is None or (event is not None and event[0] <= lane.clock):
            event[1]()
            event = next_event()
            continue
        advanced = lane.advance(
            limit_time=None if event is None else event[0],
            max_new_steps=max_steps - steps + 1)
        if advanced == 0:
            raise ServingError(
                f"{what} stalled: lane {lanes.index(lane)} has work "
                f"outstanding but took no step"
            )
        steps += advanced
        if steps > max_steps:
            raise ServingError(
                f"{what} exceeded {max_steps} steps (clock "
                f"{lane.clock:.1f}s); lower the rate or duration"
            )


def arrival_events(source, handle):
    """A ``next_event`` for :func:`run_loop` over an arrival iterator.

    Each request of ``source`` is one event at its arrival time; firing
    it calls ``handle(request)``.
    """
    pending = next(source, None)

    def fire() -> None:
        nonlocal pending
        handle(pending)
        pending = next(source, None)

    def next_event():
        return None if pending is None else (pending.arrival_time, fire)

    return next_event
