"""Epoch-batched serving engine core.

The classic event loop advances one engine step per Python iteration:
schedule a step, price it, bump the clock, apply completions.  At fleet
scale that per-step Python overhead dominates wall clock.
:class:`EpochEngine` keeps the classic loop as its fallback and adds an
**epoch** fast path: while every running request is fully prefilled,
the next ``n`` steps (speculative *rounds*) are a closed-form function
of the epoch-start state, so the engine advances all ``n`` at once,
bit-identically to the loop, in two steps:

- **plan** — a :class:`RoundSchedule` gives each request's tokens per
  round.  The epoch stops at the first finish while requests wait, at
  the step budget and a hard cap, and where the KV-block headroom
  (mid-epoch releases ignored) runs out, so it never preempts.
  Segment ends are the rounds after which the priced batch changes: a
  finish, a bucketed decode or draft KV moving up, or a verify row's
  attended length moving (the cost model's ``verify_grain``).
- **walk** — one pass over the segments in round order: price each
  with the call the classic step makes (the draft before the target),
  none starting at or after the next arrival, then apply its KV grows
  and finishes in the classic (round, phase, running-index) order, so
  allocator state and the peak watermark match the loop.  Traced,
  ``on_step`` gets each :class:`Stretch` of rounds just before the
  next event the classic loop records after them (a segment's cold
  ``kernel`` spans, a ``finish`` instant) or where the KV occupancy
  changes, so every trace event is written where the loop writes it.

docs/performance.md spells out the rules.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate, repeat
from typing import NamedTuple

from repro.obs.metrics import sequential_sum
from repro.obs.tracer import NULL_TRACER
from repro.serving.metrics import LatencyAccumulator, RunOutcome

__all__ = ["EpochEngine", "DEFAULT_MAX_EPOCH", "RoundSchedule",
           "Stretch"]

#: Hard cap on steps folded into one epoch; bounds the per-epoch
#: working set (one float per step).
DEFAULT_MAX_EPOCH = 4096


class Stretch(NamedTuple):
    """Consecutive steps of one engine advance over which nothing a
    trace shows changes but the clock, as ``on_step`` gets them.

    A classic step is a one-round stretch; an epoch hands over its
    rounds in order.  Each step starts at its entry of ``times`` and
    costs ``total``, ``comm`` of it communication.  ``running``, ``waiting``
    and ``kv_blocks`` stand after the rounds' KV growth and before
    their finishes; the ``spec_*`` counts are per round and ``None``
    without speculative decoding.
    """

    times: list
    total: float
    comm: float
    decode: int
    running: int
    waiting: int
    kv_blocks: int
    prefill_chunks: int
    prefill_tokens: int
    spec_emitted: "int | None"
    spec_verify_rows: "int | None"


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

    def verify_ends(self, grain, n: int) -> list:
        """Per request, rounds among the first ``n``, short of the
        request's last, after which its verify row's price can change
        under ``grain``, a cost model's ``verify_grain(tau)``: those
        whose KV after the round is below ``below``, and those whose KV
        after the round and after the next one round up to different
        multiples of ``step``.  A round may appear more than once.
        """
        step, below = grain
        tau = self.tau
        found = []
        for kv, f in zip(self.kv0, self.finish):
            last = f if f < n else n
            if step == 1:
                found.append(range(1, last))
                continue
            # Rounds 1 to ``window - 1`` end below ``below``.
            window = min((below - kv - 1) // tau + 1, last)
            start = kv + tau * (window if window > 1 else 1)
            found.append([*range(1, window),
                          *[(m - kv) // tau for m in range(
                              start + (-start) % step, kv + tau * last,
                              step)]])
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
        Tracing callback, called with each :class:`Stretch` of steps,
        in step order, while the tracer is enabled.
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
        #: Fast-path stats: epochs taken, the segments they priced and
        #: the steps they covered (the remaining ``steps -
        #: epoch_steps`` ran the classic loop).
        self.epochs = 0
        self.epoch_segments = 0
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
            self.on_step(Stretch(
                [self.clock], total, comm, len(step.decode),
                len(scheduler.running), len(scheduler.waiting),
                self.memory.used_blocks, len(step.prefill), chunk_tokens,
                emitted, verify_rows))
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
        return self._walk(schedule, running, limit_time, *plan)

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

        # A segment is a run of rounds priced alike: it ends where the
        # running set, a bucketed decode KV or the attended length of a
        # verify row moves.  Above stride 1 a finishing round, whose
        # finisher adds fewer tokens, is a segment of its own.
        finishes = {f for f in finish if f <= n}
        ends = {n, *finishes}
        draft_ends = None
        if self.spec_decode is not None:
            draft_ends = set(finishes)
            draft_ends.update(*schedule.crossings(
                self.spec_decode.draft_cost.kv_bucket, n))
            ends |= draft_ends
        if schedule.tau == 1:
            ends.update(*schedule.crossings(self.cost.kv_bucket, n))
        else:
            ends.update(f - 1 for f in finishes if f > 1)
            ends.update(*schedule.verify_ends(
                self.cost.verify_grain(schedule.tau), n))
        return grows, finishes, sorted(ends), draft_ends

    def _walk(self, schedule, running, limit_time, grows, finishes, ends,
              draft_ends) -> int:
        """Price and replay the planned rounds one segment at a time;
        returns how many were taken.

        No segment starting at or after ``limit_time`` (less a relative
        1e-9) is priced and no round starting at or after it runs;
        ending early is always correct.  Traced, each stretch of rounds
        goes to ``on_step`` just before the next segment is priced, a
        KV grow or a finish.
        """
        cost = self.cost
        spec = self.spec_decode
        memory = self.memory
        scheduler = self.scheduler
        traced = self.on_step is not None
        kv0, rem, finish, tau = (schedule.kv0, schedule.rem,
                                 schedule.finish, schedule.tau)
        limit = horizon = float("inf")
        if limit_time is not None:
            limit = limit_time
            horizon = limit_time - 1e-9 * abs(limit_time)
        # (round, phase, running index): grows, then finishes, then a
        # sentinel past every round.
        events = [(s, 0, idx) for s, idx in grows]
        events.extend([(f, 1, idx) for idx, f in enumerate(finish)
                       if f in finishes])
        events.sort()
        events.append((float("inf"), 0, 0))
        pending = iter(events)
        s, phase, idx = next(pending)
        clock = self.clock
        totals = []
        comm = []
        live = kv0
        draft = 0.0
        entries = segment = None
        n = written = priced = 0
        for end in ends:
            if clock >= horizon:
                break
            priced += 1
            if traced:
                written = self._trace(segment, written, n)
            start = n + 1
            if n in finishes:
                live = [kv for kv, f in zip(kv0, finish) if f >= start]
            if spec is not None and (n == 0 or n in draft_ends):
                before = tau * n + 1
                draft = spec.draft_time([kv + before for kv in live])
            if tau == 1:  # schedule.entries(start, live, ...), inlined
                seg_total, seg_comm = cost.decode_step_cost(
                    [kv + start for kv in live])
            else:
                entries = schedule.entries(start, live, start in finishes)
                seg_total, seg_comm = cost.step_cost(prefill=entries[0],
                                                     decode_kv=entries[1])
            seg_total += draft
            length = end - n
            totals += [seg_total] * length
            comm += [seg_comm] * length
            begin = clock
            # Round by round, as the loop adds them.
            clock = (clock + seg_total if length == 1 else
                     sequential_sum(clock, repeat(seg_total, length)))
            if traced or clock >= limit:
                # Round n + 1 + i starts at starts[i].
                starts = list(accumulate(repeat(seg_total, length - 1),
                                         initial=begin))
                if clock >= limit:
                    # The loop submits arrivals first: no round may
                    # start at or after the limit (the first does not).
                    runnable = bisect_left(starts, limit)
                    if runnable < length:
                        end = n + runnable
                        clock = starts[runnable]
                        del totals[end:], comm[end:]
                segment = (n, starts, seg_total, seg_comm, entries)
            while s <= end:
                request = running[idx]
                if phase == 0:
                    if traced:
                        written = self._trace(segment, written, s - 1)
                    grown = tau * s
                    memory.grow(request.request_id,
                                kv0[idx] + (grown if grown < rem[idx]
                                            else rem[idx]))
                else:  # a finish ends its segment, at ``clock``
                    request.generated = request.output_len
                    request.kv_tokens = kv0[idx] + rem[idx]
                    if traced:
                        written = self._trace(segment, written, s)
                    scheduler.finish(request, clock)
                    self._record_finish(request)
                s, phase, idx = next(pending)
            n = end
        if not n:
            return 0
        if traced:
            self._trace(segment, written, n)
        self.epochs += 1
        self.epoch_segments += priced
        self.epoch_steps += n
        self._commit(clock, totals, comm, 0)
        grown = tau * n
        for request, kv, f in zip(running, kv0, finish):
            if f > n:
                request.generated += grown
                request.kv_tokens = kv + grown
        return n

    def _trace(self, segment, written, upto) -> int:
        """Hand ``on_step`` rounds ``written + 1`` to ``upto`` of an
        epoch as they stand now; returns how many rounds are written.

        The rounds lie in ``segment``: ``(first, starts, total, comm,
        entries)``, its rounds after round ``first``, the first starting
        at ``starts[0]``, each costing ``total`` (``comm`` of it
        communication), and their ``(prefill, decode_kv)`` above stride
        1.
        """
        if upto <= written:
            return written
        first, starts, total, comm, entries = segment
        running = len(self.scheduler.running)
        emitted = verify_rows = None
        if self.spec_decode is not None:
            if self._spec_tokens == 1:
                emitted, verify_rows = running, 0
            else:
                prefill, decode = entries
                emitted = len(decode) + sum(t for t, _ in prefill)
                verify_rows = len(prefill)
        self.on_step(Stretch(
            starts[written - first:upto - first], total, comm, running,
            running, len(self.scheduler.waiting), self.memory.used_blocks,
            0, 0, emitted, verify_rows))
        return upto

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

