"""Fault injection: replica deaths and straggler GPUs.

Two failure modes dominate real serving incidents:

- **replica death** — a host drops mid-decode.  Every resident request
  loses its KV cache; the control plane re-queues them with the same
  evict-and-recompute semantics the scheduler already uses for
  preemption (prefill target grows to cover the tokens generated so
  far), and boots a cold replacement.  Tokens already streamed to the
  client are not re-emitted, so ``first_token_time`` survives.
- **straggler GPU** — a replica keeps running but slower (thermal
  throttling, a flaky NVLink, a noisy neighbor).  Modeled as a
  multiplicative slowdown on the replica's step-cost model; the
  least-outstanding router then naturally shifts load away as the
  straggler's backlog grows.

A :class:`FailureSchedule` is pure data — event times and parameters —
so the same schedule replays identically under every plan and replica
budget, and the fuzz oracle can generate random schedules from one
seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import ServingError
from repro.common.validation import require_positive

__all__ = ["FailureSchedule", "SlowdownCost"]

#: Salt for schedule generation (event times) — distinct from the
#: victim-selection stream, which the controller owns.
_FAULT_SALT = 0xFA11


@dataclass(frozen=True)
class FailureSchedule:
    """When replicas die and when stragglers appear.

    ``deaths`` holds absolute event times (seconds); ``stragglers``
    holds ``(time, slowdown)`` pairs with ``slowdown > 1``.  Victims
    are chosen by the controller at execution time from the replicas
    then alive, via its own seeded stream — the schedule stays valid
    whatever the fleet looks like when the event fires.
    """

    deaths: "tuple[float, ...]" = ()
    stragglers: "tuple[tuple[float, float], ...]" = ()

    def __post_init__(self) -> None:
        for t in self.deaths:
            if t < 0:
                raise ServingError(f"death time must be >= 0, got {t}")
        for t, slowdown in self.stragglers:
            if t < 0:
                raise ServingError(f"straggler time must be >= 0, got {t}")
            if slowdown <= 1.0:
                raise ServingError(
                    f"straggler slowdown must be > 1, got {slowdown}"
                )

    @classmethod
    def random(cls, *, duration: float, seed: int, deaths: int = 1,
               stragglers: int = 0,
               max_slowdown: float = 3.0) -> "FailureSchedule":
        """A seeded schedule with events inside ``(0.1, 0.9) * duration``.

        Events land in the middle of the run so there is traffic to
        disrupt and time to recover before the stream drains.
        """
        require_positive("duration", duration)
        if deaths < 0 or stragglers < 0:
            raise ServingError("fault counts must be >= 0")
        rng = np.random.default_rng((seed, _FAULT_SALT))
        death_times = tuple(sorted(
            float(t) for t in rng.uniform(0.1 * duration, 0.9 * duration,
                                          size=deaths)))
        straggler_events = tuple(sorted(
            (float(t), float(s))
            for t, s in zip(
                rng.uniform(0.1 * duration, 0.9 * duration,
                            size=stragglers),
                rng.uniform(1.5, max_slowdown, size=stragglers))))
        return cls(deaths=death_times, stragglers=straggler_events)

    def events(self) -> "list[tuple[float, str, float]]":
        """All events as sorted ``(time, kind, slowdown)`` tuples."""
        merged = [(t, "death", 0.0) for t in self.deaths]
        merged.extend((t, "straggler", s) for t, s in self.stragglers)
        merged.sort()
        return merged

    def describe(self) -> "dict[str, object]":
        """JSON-ready parameter summary."""
        return {"deaths": list(self.deaths),
                "stragglers": [list(pair) for pair in self.stragglers]}


class SlowdownCost:
    """A step-cost model scaled by a straggler slowdown factor.

    Wraps any step-cost model — a
    :class:`~repro.serving.costmodel.StepCostModel`, its sharded
    variant or another wrapper (stacking multiplies) — and speaks the
    engine's pricing protocol: ``step_cost`` and ``decode_step_cost``
    return ``(total, comm)``, both scaled, plus ``kv_bucket``.
    """

    def __init__(self, inner, slowdown: float) -> None:
        if slowdown <= 1.0:
            raise ServingError(
                f"slowdown must be > 1, got {slowdown}"
            )
        self.inner = inner
        self.slowdown = slowdown
        self.kv_bucket = inner.kv_bucket

    def step_cost(self, *, prefill, decode_kv):
        total, comm = self.inner.step_cost(prefill=prefill,
                                           decode_kv=decode_kv)
        return total * self.slowdown, comm * self.slowdown

    def decode_step_cost(self, decode_kv):
        total, comm = self.inner.decode_step_cost(decode_kv)
        return total * self.slowdown, comm * self.slowdown
