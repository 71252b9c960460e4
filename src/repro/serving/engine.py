"""Epoch-batched serving engine core.

The classic event loop advances one engine step per Python iteration:
schedule a step, price it, bump the clock, apply completions.  At fleet
scale that per-step Python overhead dominates wall clock.
:class:`EpochEngine` keeps the classic loop as its fallback and adds an
**epoch** fast path: while every running request is fully prefilled,
the next ``n`` steps (speculative *rounds*) are a closed-form function
of the epoch-start state, so the engine advances all ``n`` at once,
bit-identically to the loop, in three steps:

- **plan** — a :class:`RoundSchedule` gives each request's tokens per
  round.  The epoch stops at the first finish while requests wait, at
  the step budget and a hard cap, and where the KV-block headroom
  (mid-epoch releases ignored) runs out, so it never preempts.
  Segment ends are the rounds after which the priced batch changes.
- **price** — one ``step_cost``/``decode_step_cost`` call per segment,
  the call the classic step makes, in round order (the draft before
  the target), none starting at or after the next arrival.
- **replay** — KV grows and finishes in the classic (round, phase,
  running-index) order, so allocator state and the peak watermark
  match the loop.  Traced, the same walk notes where the batch and the
  KV occupancy change and hands ``on_step`` one :class:`StepBlock`,
  from which it writes the classic per-step trace in one pass; each
  segment's cold ``kernel`` spans stand in front of its first round.

docs/performance.md spells out the rules.
"""

from __future__ import annotations

import bisect
import itertools
from typing import NamedTuple

from repro.common.errors import TraceError
from repro.obs.metrics import sequential_sum
from repro.obs.tracer import NULL_TRACER
from repro.serving.metrics import LatencyAccumulator, RunOutcome

__all__ = ["EpochEngine", "DEFAULT_MAX_EPOCH", "RoundSchedule",
           "StepBlock"]

#: Hard cap on steps folded into one epoch; bounds the per-epoch
#: working set (one float per step).
DEFAULT_MAX_EPOCH = 4096


class StepBlock(NamedTuple):
    """The steps of one engine advance, as a tracer sees them.

    A classic step is a one-round block and an epoch is one block, so
    ``on_step`` gets one per advance either way.  Round ``s`` starts at
    ``times[s - 1]`` and costs ``totals[s - 1]``, ``comm[s - 1]`` of it
    communication; ``waiting`` and the prefill shape hold for every
    round.  ``stretches`` cover the rounds in order, one per run of
    rounds over which no count changes: ``(start, stop, decode,
    running, kv_blocks, spec_emitted, spec_verify_rows)`` for rounds
    ``start + 1`` to ``stop`` (the slice ``start:stop`` of ``times``),
    the ``spec_*`` counts ``None`` without speculative decoding.
    ``running``, ``waiting`` and ``kv_blocks`` stand after the round's
    KV growth and before its finishes.  ``kernel`` and ``instants`` map
    a round to the events recorded just before it (the cold ``kernel``
    spans of the segment it opens) and just after it (its ``finish``
    instants); a classic step leaves both in the trace where they were
    recorded.
    """

    times: list
    totals: list
    comm: list
    waiting: int
    prefill_chunks: int
    prefill_tokens: int
    stretches: list
    kernel: dict
    instants: dict

    def emit(self, tracer, span: str, steps: list, per_step: int) -> None:
        """Append the block's trace to ``tracer.events`` in record order:
        per round, its ``kernel`` events, its ``per_step`` events out of
        ``steps`` (every round's, in round order, the first a span named
        ``span`` lasting the round's cost), its ``instants``.

        Raises :class:`~repro.common.errors.TraceError` on a negative
        round cost, as :meth:`~repro.obs.tracer.Tracer.complete` does.
        """
        if min(self.totals) < 0:
            dur = next(dur for dur in self.totals if dur < 0)
            raise TraceError(f"span {span!r} has negative duration {dur!r}")
        trace = tracer.events
        done = 0
        for s in sorted({*self.kernel, *self.instants}):
            if s in self.kernel:
                cut = (s - 1) * per_step
                trace.extend(steps[done:cut])
                trace.extend(self.kernel[s])
                done = cut
            if s in self.instants:
                cut = s * per_step
                trace.extend(steps[done:cut])
                trace.extend(self.instants[s])
                done = cut
        trace.extend(steps[done:] if done else steps)


def _stretches(n: int, *series) -> list:
    """Merge change-point ``series`` (dicts from the round where a count
    changes, round 1 first, to its new value; ``None`` for an absent
    count) into ``(start, stop, *values)`` stretches over rounds 1 to
    ``n``."""
    rounds = sorted({s for values in series if values is not None
                     for s in values})
    current = [None] * len(series)
    stretches = []
    for first, end in zip(rounds, rounds[1:] + [n + 1]):
        for i, values in enumerate(series):
            if values is not None and first in values:
                current[i] = values[first]
        stretches.append((first - 1, end - 1, *current))
    return stretches


class RoundSchedule:
    """The tokens each running request adds per round of an epoch.

    Request ``i`` adds ``tau`` tokens a round for ``finish[i] =
    ceil(rem[i] / tau)`` rounds, the last adding the remainder, so
    before round ``s`` its KV holds ``kv0[i] + tau * (s - 1)`` tokens.
    Finish rounds, grow rounds, segment ends and each round's priced
    entries all come from this one description.
    """

    __slots__ = ("kv0", "rem", "tau", "finish")

    def __init__(self, kv0: "list[int]", rem: "list[int]", tau: int) -> None:
        self.kv0 = kv0
        self.rem = rem
        self.tau = tau
        self.finish = rem if tau == 1 else [-(-r // tau) for r in rem]

    def crossings(self, step: int, n: int, held=None) -> list:
        """Per request, rounds among the first ``n`` that cross a
        multiple of ``step``.

        With ``held`` (tokens each request's blocks cover): the rounds
        that need a new ``step``-token block, one per block.  Without:
        the rounds, short of the request's last, after which a length
        bucketed at ``step`` moves up — the KV after the round at
        stride 1, and the draft's KV before it plus one.
        """
        tau = self.tau
        if tau == 1:  # plain decode: the rounds form a range
            if held is None:
                return [range(step - kv % step, f if f < n else n, step)
                        for kv, f in zip(self.kv0, self.finish)]
            return [range(h - kv + 1, (f if f < n else n) + 1, step)
                    for kv, f, h in zip(self.kv0, self.finish, held)]
        # Before round s the length is first + tau * (s - 1).
        offset = 1 if held is None else 0
        found = []
        for i, kv in enumerate(self.kv0):
            first = kv + offset
            low = first + (-first) % step if held is None else held[i]
            last = (self.finish[i] if self.finish[i] < n else n) - offset
            high = first + min(tau * last, self.rem[i])
            found.append([(m - first) // tau + 1
                          for m in range(low, high, step)])
        return found

    def entries(self, s: int, live: "list[int]", finishing: bool):
        """Round ``s`` as the classic step prices it.

        ``(prefill, decode_kv)`` in running order: several tokens make a
        verify entry ``(tokens, kv_after)``, one token a decode entry.
        ``live`` is the epoch-start KV of the requests still running; a
        ``finishing`` round above stride 1, where someone adds less
        than ``tau``, reads the whole schedule instead.
        """
        tau = self.tau
        if tau == 1:
            return [], [kv + s for kv in live]
        after = tau * s
        if not finishing:
            return [(tau, kv + after) for kv in live], []
        before = after - tau
        prefill, decode = [], []
        for kv, r in zip(self.kv0, self.rem):
            if r >= after:
                prefill.append((tau, kv + after))
            elif r - before > 1:
                prefill.append((r - before, kv + r))
            elif r > before:
                decode.append(kv + r)
        return prefill, decode


class EpochEngine:
    """Clock, accounting, and stepping for one serving engine.

    Owns the run state (clock, busy time, step and token counters) and
    the O(1) streamed aggregates (finish counters, latency
    accumulators) that let a caller drop finished requests.

    Parameters
    ----------
    cost:
        A step-cost model: ``step_cost(prefill=, decode_kv=)`` and
        ``decode_step_cost(decode_kv)`` return ``(total, comm)``
        seconds (:class:`~repro.serving.costmodel.StepCostModel`).
    memory / scheduler:
        The paged KV pool and the continuous-batching scheduler; the
        engine is their only driver during a run.
    epoch:
        ``False`` pins the engine to the classic per-step event loop.
    on_step:
        Tracing callback, called with one :class:`StepBlock` per
        advance (a classic step or a whole epoch, in step order) while
        the tracer is enabled.
    spec_decode:
        Optional :class:`~repro.serving.specdecode.SpecDecodeRuntime`:
        decode runs in rounds of ``tokens_per_round`` tokens, the
        verify pass priced as a prefill-shaped entry plus the draft
        model's γ decode steps.  ``None`` is plain decode.
    """

    def __init__(self, *, cost, memory, scheduler, tracer=None,
                 epoch: bool = True, max_epoch: int = DEFAULT_MAX_EPOCH,
                 on_step=None, spec_decode=None) -> None:
        self.cost = cost
        self.memory = memory
        self.scheduler = scheduler
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.epoch = epoch
        self.max_epoch = max_epoch
        self.on_step = on_step if self.tracer.enabled else None
        self.spec_decode = spec_decode
        self._spec_tokens = (1 if spec_decode is None
                             else spec_decode.tokens_per_round)

        self.clock = 0.0
        self.busy = 0.0
        self.comm_time = 0.0
        self.steps = 0
        self.prefill_tokens = 0
        #: Fast-path stats: epochs taken and steps they covered (the
        #: remaining ``steps - epoch_steps`` ran the classic loop).
        self.epochs = 0
        self.epoch_steps = 0

        # -- streamed aggregates (O(1) memory per metric) --------------
        self.finished = 0
        self.rejected = 0
        self.preempted_requests = 0
        self.generated_tokens = 0
        #: Outstanding tokens of rejected requests, which never finish.
        self.rejected_outstanding = 0
        self.ttft = LatencyAccumulator()
        self.tpot = LatencyAccumulator()
        self.e2e = LatencyAccumulator()

        #: Last step's cost: sizes epochs near an arrival deadline and,
        #: under lockstep, picks the classic step when less than one
        #: step fits.  A hint only: any split into advances is correct.
        self._cost_hint = 0.0

    def set_cost(self, cost) -> None:
        """Swap the step-cost model mid-run (a straggler slowdown); the
        cost hint restarts, so epoch sizing follows the new model."""
        self.cost = cost
        self._cost_hint = 0.0

    # -- intake ---------------------------------------------------------

    @property
    def has_work(self) -> bool:
        """Whether any submitted request is still unfinished."""
        return self.scheduler.has_work

    def submit(self, request, now: float) -> bool:
        """Submit an arrival at global time ``now``, tracking rejections.

        An idle engine fast-forwards its clock to the arrival; a busy
        one keeps its in-flight step's completion time, so the request
        queues until that step completes.
        """
        if now > self.clock:
            self.clock = now
        accepted = self.scheduler.submit(request)
        if not accepted:
            self.rejected += 1
            self.rejected_outstanding += (request.prompt_len
                                          + request.output_len)
        return accepted

    # -- stepping -------------------------------------------------------

    def advance(self, limit_time: "float | None" = None,
                max_new_steps: "int | None" = None,
                lockstep: bool = False) -> int:
        """Advance the engine; returns how many steps were taken.

        One epoch (>= 1 steps) when the batch is in pure decode and the
        fast path applies, otherwise one classic step; 0 means idle.  No
        epoch step starts at or after ``limit_time`` and at most
        ``max_new_steps`` are taken.  ``lockstep`` says ``limit_time``
        may be another lane's clock (:func:`~repro.serving.loop.run_loop`).
        """
        # Under lockstep the limit is often less than one step away,
        # where the classic step is cheaper than a one-step epoch.
        if self.epoch and not (lockstep and limit_time is not None
                               and limit_time - self.clock
                               < self._cost_hint):
            scheduler = self.scheduler
            scheduler.admit(self.clock)
            running = scheduler.running
            if running and all(r.prefilled >= r.prefill_target
                               for r in running):
                advanced = self._advance_epoch(limit_time, max_new_steps)
                if advanced:
                    return advanced
        return self._classic_step()

    def _commit(self, clock: float, totals, comm, prefill_tokens: int):
        """Book steps costing ``totals`` (``comm`` of it communication)
        that end at ``clock``; the classic step and the epoch share it."""
        self.clock = clock
        self.busy = sequential_sum(self.busy, totals)
        self.comm_time = sequential_sum(self.comm_time, comm)
        self.steps += len(totals)
        self._cost_hint = totals[-1]
        self.prefill_tokens += prefill_tokens

    def _classic_step(self) -> int:
        """One step of the event loop.

        A speculative round prices each multi-token decode entry as a
        verify entry ``(emitted, kv_after)``, like a prefill chunk, keeps
        single-token entries on the decode price, and adds the draft
        model's γ decode steps over every decoding request.
        """
        scheduler = self.scheduler
        step = scheduler.schedule(self.clock, spec_tokens=self._spec_tokens)
        if step.is_empty:
            return 0
        prefill = [(chunk, kv) for _, chunk, kv in step.prefill]
        chunk_tokens = sum(chunk for chunk, _ in prefill)
        draft = 0.0
        emitted = verify_rows = None
        if self.spec_decode is None:
            decode_kv = [kv for _, kv in step.decode]
        else:
            decode_kv = []
            draft_kv = []
            emitted = verify_rows = 0
            for request, kv_after in step.decode:
                tokens = kv_after - request.kv_tokens
                emitted += tokens
                if tokens > 1:
                    verify_rows += 1
                    prefill.append((tokens, kv_after))
                else:
                    decode_kv.append(kv_after)
                draft_kv.append(request.kv_tokens + 1)
            draft = self.spec_decode.draft_time(draft_kv)
        total, comm = self.cost.step_cost(prefill=prefill,
                                          decode_kv=decode_kv)
        total += draft
        if self.on_step is not None:
            self.on_step(StepBlock(
                [self.clock], [total], [comm], len(scheduler.waiting),
                len(step.prefill), chunk_tokens,
                [(0, 1, len(step.decode), len(scheduler.running),
                  self.memory.used_blocks, emitted, verify_rows)], {}, {}))
        self._commit(self.clock + total, [total], [comm], chunk_tokens)
        for request in scheduler.complete_step(step, self.clock):
            self._record_finish(request)
        return 1

    def _advance_epoch(self, limit_time, max_new_steps) -> int:
        """Pure-decode fast path; 0 means "fall back to a classic step"."""
        # A copy: each finish leaves ``scheduler.running`` as it goes.
        running = list(self.scheduler.running)
        schedule = RoundSchedule([r.kv_tokens for r in running],
                                 [r.output_len - r.generated
                                  for r in running], self._spec_tokens)
        plan = self._plan(schedule, running, limit_time, max_new_steps)
        if plan is None:
            return 0
        grows, finishes, ends, draft_ends = plan
        totals, comm, spans = self._price(schedule, limit_time, finishes,
                                          ends, draft_ends)
        if not totals:
            return 0
        return self._replay(schedule, running, limit_time, grows, finishes,
                            totals, comm, spans)

    def _plan(self, schedule, running, limit_time, max_new_steps):
        """``(grows, finishes, ends, draft_ends)`` of the next epoch, or
        ``None`` when not one round fits: ``(round, running index)`` per
        grow call, the finish rounds, the segment ends in round order
        and the rounds after which the draft term is re-priced."""
        finish = schedule.finish
        # Finish barrier: with requests waiting, stop at the first
        # finish (it frees memory and a batch slot, so admission must
        # re-run); with an empty queue, run through finishes.
        n = min(min(finish) if self.scheduler.waiting else max(finish),
                self.max_epoch)
        if max_new_steps is not None and max_new_steps < n:
            n = max_new_steps
        if limit_time is not None and self._cost_hint > 0.0:
            # Don't plan rounds the arrival deadline will truncate; too
            # few just means the next advance() opens another epoch.
            estimated = int((limit_time - self.clock)
                            / self._cost_hint) + 2
            if estimated < n:
                n = estimated if estimated > 1 else 1
        if n < 1:
            return None

        # Headroom: if the sorted grows outrun the free blocks at epoch
        # start, the epoch ends on the last round that provably fits.
        memory = self.memory
        block = memory.block_tokens
        held = [memory.held_blocks(r.request_id) * block for r in running]
        grows = [(s, idx) for idx, rounds
                 in enumerate(schedule.crossings(block, n, held))
                 for s in rounds]
        if grows:
            grows.sort()
            free = memory.free_blocks
            if len(grows) > free:
                n = grows[free][0] - 1
                if n < 1:
                    return None
            if schedule.tau > block:  # one grow call per round
                grows = list(dict.fromkeys(grows))

        # A verify entry prices its exact KV, so above stride 1 every
        # round is its own segment.
        finishes = {f for f in finish if f <= n}
        draft_ends = None
        if self.spec_decode is not None:
            draft_ends = set(finishes)
            draft_ends.update(*schedule.crossings(
                self.spec_decode.draft_cost.kv_bucket, n))
        if schedule.tau > 1:
            return grows, finishes, range(1, n + 1), draft_ends
        ends = {n, *finishes}
        ends.update(*schedule.crossings(self.cost.kv_bucket, n))
        if draft_ends is not None:
            ends |= draft_ends
        return grows, finishes, sorted(ends), draft_ends

    def _price(self, schedule, limit_time, finishes, ends, draft_ends):
        """Per-round ``(totals, comm, spans)``; no segment whose estimated
        start reaches ``limit_time`` is priced (ending early is always
        correct).  Traced, ``spans`` maps a segment's first round to the
        ``kernel`` spans its pricing emitted, cut from the trace."""
        cost = self.cost
        spec = self.spec_decode
        tau = schedule.tau
        trace = spans = None
        if self.on_step is not None:
            trace = self.tracer.events
            mark = len(trace)
            spans = {}
        horizon = (float("inf") if limit_time is None
                   else limit_time - 1e-9 * abs(limit_time))
        estimate = self.clock
        totals = []
        comm = []
        live = schedule.kv0
        draft = 0.0
        start = 1
        for end in ends:
            if estimate >= horizon:
                break
            if start - 1 in finishes:
                live = [kv for kv, f in zip(schedule.kv0, schedule.finish)
                        if f >= start]
            if spec is not None and (start == 1 or start - 1 in draft_ends):
                before = tau * (start - 1) + 1
                draft = spec.draft_time([kv + before for kv in live])
            if tau == 1:  # schedule.entries(start, live, ...), inlined
                seg_total, seg_comm = cost.decode_step_cost(
                    [kv + start for kv in live])
            else:
                prefill, decode = schedule.entries(start, live,
                                                   start in finishes)
                seg_total, seg_comm = cost.step_cost(prefill=prefill,
                                                     decode_kv=decode)
            seg_total += draft
            length = end - start + 1
            totals.extend([seg_total] * length)
            comm.extend([seg_comm] * length)
            estimate += seg_total * length
            if trace is not None and len(trace) > mark:
                spans[start] = trace[mark:]
                del trace[mark:]
            start = end + 1
        return totals, comm, spans

    def _replay(self, schedule, running, limit_time, grows, finishes,
                totals, comm, spans) -> int:
        """Commit the priced rounds and apply their events; returns how
        many were taken."""
        # times[s] is the clock after round s.  No round may start at or
        # after the next arrival (the loop submits arrivals first); the
        # first priced round starts before it.
        n = len(totals)
        times = list(itertools.accumulate(totals, initial=self.clock))
        if limit_time is not None:
            runnable = bisect.bisect_left(times, limit_time, 0, n)
            if runnable < n:
                n = runnable
                del totals[n:], comm[n:]
        self.epochs += 1
        self.epoch_steps += n
        self._commit(times[n], totals, comm, 0)

        kv0, rem, finish = schedule.kv0, schedule.rem, schedule.finish
        # (round, phase, running index): grows, then finishes.
        events = [(s, 0, idx) for s, idx in grows if s <= n]
        events.extend([(f, 1, idx) for idx, f in enumerate(finish)
                       if f <= n])
        events.sort()
        tau = schedule.tau
        memory = self.memory
        scheduler = self.scheduler
        traced = spans is not None
        if traced:
            # Series of the block: round -> value from that round on.
            trace = self.tracer.events
            active = {1: len(running)}
            kv_blocks = {1: memory.used_blocks}
            instants: "dict[int, list]" = {}
        for s, phase, idx in events:
            request = running[idx]
            if phase == 0:
                grown = tau * s
                memory.grow(request.request_id,
                            kv0[idx] + (grown if grown < rem[idx]
                                        else rem[idx]))
                if traced:
                    kv_blocks[s] = memory.used_blocks
            else:
                request.generated = request.output_len
                request.kv_tokens = kv0[idx] + rem[idx]
                if traced:
                    mark = len(trace)
                scheduler.finish(request, times[s])
                if traced:
                    instants.setdefault(s, []).extend(trace[mark:])
                    del trace[mark:]
                    active[s + 1] = len(scheduler.running)
                    kv_blocks[s + 1] = memory.used_blocks
                self._record_finish(request)
        grown = tau * n
        for request, kv, f in zip(running, kv0, finish):
            if f > n:
                request.generated += grown
                request.kv_tokens = kv + grown
        if traced:
            # A finish in the last round changes nothing the block shows.
            active.pop(n + 1, None)
            kv_blocks.pop(n + 1, None)
            emitted = verify_rows = None
            if self.spec_decode is not None:
                emitted, verify_rows = self._spec_series(
                    schedule, active, finishes, n)
            self.on_step(StepBlock(
                times, totals, comm, len(scheduler.waiting), 0, 0,
                _stretches(n, active, active, kv_blocks, emitted,
                           verify_rows),
                {s: spans[s] for s in spans if s <= n}, instants))
        return n

    @staticmethod
    def _spec_series(schedule, active, finishes, n):
        """The speculative ``(emitted, verify_rows)`` series of an epoch
        whose batch size follows the series ``active``: every request
        adds ``tau`` tokens a round, except in a round where one
        finishes above stride 1, which the schedule prices entry by
        entry."""
        tau = schedule.tau
        emitted, verify_rows = {}, {}
        rounds = active
        if tau > 1:
            rounds = sorted({*active, *(f for f in finishes if f <= n)})
        size = None
        for s in rounds:
            size = active.get(s, size)
            if tau > 1 and s in finishes:
                prefill, decode = schedule.entries(s, None, True)
                verify_rows[s] = len(prefill)
                emitted[s] = len(decode) + sum(t for t, _ in prefill)
            else:
                emitted[s] = tau * size
                verify_rows[s] = size if tau > 1 else 0
        return emitted, verify_rows

    # -- accounting -----------------------------------------------------

    def outcome(self, hbm_bytes: int, requests) -> RunOutcome:
        """Snapshot this run for a report; ``requests`` is the retained
        request list, or ``None`` when the run streamed."""
        return RunOutcome(
            hbm_bytes=hbm_bytes, memory=self.memory.stats(),
            clock=self.clock, busy=self.busy, comm_time=self.comm_time,
            steps=self.steps, prefill_tokens=self.prefill_tokens,
            preemption_events=self.scheduler.preemption_events,
            finished=self.finished, rejected=self.rejected,
            preempted_requests=self.preempted_requests,
            generated_tokens=self.generated_tokens, ttft=self.ttft,
            tpot=self.tpot, e2e=self.e2e, requests=requests)

    def _record_finish(self, request) -> None:
        self.finished += 1
        self.tracer.metrics.counter(
            f"{self.scheduler.trace_process}.finished").inc()
        self.generated_tokens += request.generated
        if request.preemptions:
            self.preempted_requests += 1
        self.ttft.add(request.ttft)
        self.tpot.add(request.tpot)
        self.e2e.add(request.e2e_latency)

