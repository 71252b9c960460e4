"""The shared event loop's ordering rules, on fake lanes and events."""

import pytest

from repro.common.errors import ServingError
from repro.serving.loop import run_loop


class FakeLane:
    """A lane with ``work`` unit steps of ``dt`` seconds each."""

    def __init__(self, name, log, *, clock=0.0, work=0, dt=1.0):
        self.name = name
        self.log = log
        self.clock = clock
        self.work = work
        self.dt = dt

    @property
    def has_work(self):
        return self.work > 0

    def advance(self, limit_time=None, max_new_steps=None):
        self.log.append(("advance", self.name, self.clock, limit_time,
                         max_new_steps))
        if self.dt == 0.0:
            # Stuck: a loop that advanced it twice would spin forever.
            assert self.log.count(self.log[-1]) == 1
            return 0
        self.clock += self.dt
        self.work -= 1
        return 1


def events(log, *times, handlers=None):
    """A peeking ``next_event`` over ``times``; firing logs the event
    and runs ``handlers[time]`` when one is given."""
    queue = list(times)
    handlers = handlers or {}

    def fire():
        t = queue.pop(0)
        log.append(("event", t))
        if t in handlers:
            handlers[t]()

    def next_event():
        return (queue[0], fire) if queue else None

    return next_event


def test_event_at_a_lanes_clock_fires_before_it_advances():
    log = []
    lane = FakeLane("a", log, clock=1.0, work=1)
    run_loop([lane], events(log, 1.0), max_steps=10, what="test")
    assert log == [("event", 1.0), ("advance", "a", 1.0, None, 11)]


def test_an_earlier_lane_advances_bounded_by_the_event():
    log = []
    lane = FakeLane("a", log, clock=0.0, work=3)
    steps = run_loop([lane], events(log, 1.5), max_steps=10, what="test")
    assert steps == 3
    assert log == [
        ("advance", "a", 0.0, 1.5, 11),
        ("advance", "a", 1.0, 1.5, 10),
        ("event", 1.5),
        ("advance", "a", 2.0, None, 9),
    ]


def test_equal_clocks_advance_the_lowest_index():
    log = []
    lanes = [FakeLane("late", log, clock=2.0, work=1),
             FakeLane("first", log, clock=1.0, work=1),
             FakeLane("second", log, clock=1.0, work=1)]
    run_loop(lanes, events(log), max_steps=10, what="test")
    assert [entry[1] for entry in log] == ["first", "second", "late"]


def test_idle_lanes_are_skipped():
    log = []
    lanes = [FakeLane("idle", log, clock=0.0),
             FakeLane("busy", log, clock=5.0, work=1)]
    run_loop(lanes, events(log), max_steps=10, what="test")
    assert [entry[1] for entry in log] == ["busy"]


def test_a_lane_that_takes_no_step_raises():
    lane = FakeLane("a", [], work=1, dt=0.0)
    with pytest.raises(ServingError, match="test stalled: lane 0"):
        run_loop([lane], events([]), max_steps=10, what="test")


def test_step_budget_is_exact():
    lane = FakeLane("a", [], work=10)
    with pytest.raises(ServingError, match="test exceeded 3 steps"):
        run_loop([lane], events([]), max_steps=3, what="test")
    assert lane.work == 10 - 4


def test_handlers_may_add_and_remove_lanes():
    log = []
    doomed = FakeLane("doomed", log, clock=0.0, work=100)
    lanes = [doomed]
    booted = FakeLane("booted", log, clock=1.0, work=2)
    run_loop(lanes, events(log, 1.0, 2.0, handlers={
        1.0: lambda: lanes.append(booted),
        2.0: lambda: lanes.remove(doomed),
    }), max_steps=100, what="test")
    fired_at = {entry[1]: i for i, entry in enumerate(log)
                if entry[0] == "event"}
    doomed_steps = [i for i, entry in enumerate(log)
                    if entry[:2] == ("advance", "doomed")]
    booted_steps = [i for i, entry in enumerate(log)
                    if entry[:2] == ("advance", "booted")]
    # The booted lane joins at the first event; the removed lane
    # never advances after the second.
    assert booted_steps and min(booted_steps) > fired_at[1.0]
    assert max(doomed_steps) < fired_at[2.0]
    assert booted.work == 0 and doomed.work == 98


def test_the_source_is_asked_again_once_every_lane_is_idle():
    # A control-plane-style source: its tick only matters while a lane
    # works, so the run ends when the lane drains before the tick.
    lane = FakeLane("a", [], work=2)

    def next_event():
        return (10.0, pytest.fail) if lane.has_work else None

    assert run_loop([lane], next_event, max_steps=10, what="test") == 2
