"""Epoch-batched serving engine core.

The classic event loop advances one engine step per Python iteration:
schedule a step, price it, bump the clock, apply completions.  At fleet
scale that per-step Python overhead dominates wall clock.
:class:`EpochEngine` keeps the classic loop as its fallback and adds an
**epoch** fast path: between arrivals, admissions and the KV headroom
running out, the next ``n`` steps (*rounds*) are a closed-form function
of the epoch-start state — chunked-prefill rounds, which split one
token budget over the prefilling requests in running order, then decode
or speculative rounds — so the engine advances all ``n`` at once,
bit-identically to the loop, in two steps:

- **plan** — a :class:`RoundSchedule` gives each request's tokens per
  round: its prefill chunks, then its decode tokens from the round
  after its last chunk lands.  The epoch stops at the first finish
  while requests wait, at a hard cap, and where the KV-block headroom
  (mid-epoch releases ignored) runs out, so it never preempts.
  Segment ends are the rounds after which the priced batch changes:
  every round carrying prefill chunks, a finish, a bucketed decode or
  draft KV moving up, or a verify row's attended length moving (the
  cost model's ``verify_grain``).
- **walk** — one pass over the segments in round order: price each
  with the call the classic step makes (the draft before the target),
  none starting at or after the next event and no more than the step
  budget, then apply its KV grows, landed prefills (first tokens) and
  finishes in the classic (round, phase, running-index) order, so
  allocator state and the peak watermark match the loop.  Traced,
  ``on_step`` gets each :class:`Stretch` of rounds just before the
  next event the classic loop records after them (a segment's cold
  ``kernel`` spans, a ``first-token`` or ``finish`` instant) or where
  the KV occupancy changes, so every trace event is written where the
  loop writes it.

In a loop with other lanes, whose events cut this lane's epochs
without touching it, a plan covers :data:`PLAN_AHEAD` times the rounds
that fit before the next event.  A walk cut short there pauses, and the
next advance resumes it unless a submit, an admission, a classic step
or a new cost model changed what it was planned from; one advance
plans again when a plan runs out before the event.  Speculative
decoding keeps prefill rounds on the classic step.  docs/performance.md
spells out the rules.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import NamedTuple

from repro.obs.metrics import sequential_sum
from repro.obs.tracer import NULL_TRACER
from repro.serving.metrics import LatencyAccumulator, RunOutcome

__all__ = ["EpochEngine", "DEFAULT_MAX_EPOCH", "RoundSchedule",
           "Stretch"]

#: Hard cap on the rounds one epoch plans.
DEFAULT_MAX_EPOCH = 4096

#: With other lanes in the loop, an epoch plans this many times the
#: rounds its deadline leaves room for: when another lane's event cuts
#: it short, the next advance resumes the plan instead of planning
#: anew.  Alone, every event is a submit that discards the plan, so it
#: plans to the deadline.
PLAN_AHEAD = 8

INF = float("inf")


def _horizon(limit_time: "float | None") -> float:
    """Where an advance bounded by ``limit_time`` stops starting steps:
    the limit less a relative 1e-9, or ``inf`` without one."""
    if limit_time is None:
        return INF
    return limit_time - 1e-9 * abs(limit_time)


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

    Request ``i`` decodes from round ``start[i] + 1``: it adds ``tau``
    tokens a round until round ``finish[i] = start[i] + ceil(rem[i] /
    tau)``, the last adding the remainder, so before round ``s`` its KV
    holds ``kv0[i] + tau * (s - start[i] - 1)`` tokens.  A request
    still prefilling at epoch start (stride 1 only) starts decoding
    once its prefill lands: the prefilling requests' remaining prompt
    tokens form one stream in running order, ``chunk`` of it a round
    (a short last chunk passes the rest of the round's budget on), so
    each starts at the round its last chunk lands in, from its whole
    prefill target, with its first token already out.  ``output_len ==
    1`` makes ``rem`` 0: it finishes in that round.

    Finish rounds, grow rounds, segment ends and each round's priced
    entries all come from this one description.
    """

    __slots__ = ("kv0", "rem", "tau", "start", "finish", "chunk", "stream",
                 "prefill_rounds")

    def __init__(self, kv0: "list[int]", rem: "list[int]", tau: int,
                 start: "list[int] | None" = None, stream=(),
                 chunk: int = 0) -> None:
        self.kv0 = kv0
        self.rem = rem
        self.tau = tau
        self.start = start or [0] * len(kv0)
        if start:
            self.finish = [s + r for s, r in zip(start, rem)]
        else:
            self.finish = rem if tau == 1 else [-(-r // tau) for r in rem]
        #: ``(running index, prefilled, stream start, stream end)`` per
        #: prefilling request, in running order.
        self.stream = stream
        self.chunk = chunk
        #: Rounds 1 to ``prefill_rounds`` carry prefill chunks.
        self.prefill_rounds = -(-stream[-1][3] // chunk) if stream else 0

    @classmethod
    def of(cls, running, tau: int = 1, chunk: int = 0) -> "RoundSchedule":
        """The schedule of ``running`` (oldest first) from its current
        state, ``chunk`` prefill tokens a round (prefill at stride 1
        only)."""
        kv0, rem, start, stream = [], [], [], []
        end = 0
        for idx, request in enumerate(running):
            left = request.prefill_target - request.prefilled
            if left > 0:
                stream.append((idx, request.prefilled, end, end + left))
                end += left
                start.append(-(-end // chunk))
                kv0.append(request.prefill_target)
                rem.append(request.output_len - max(request.generated, 1))
            else:
                start.append(0)
                kv0.append(request.kv_tokens)
                rem.append(request.output_len - request.generated)
        return cls(kv0, rem, tau, start if stream else None, stream, chunk)

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
                return [range(o + step - kv % step, f if f < n else n, step)
                        for kv, o, f in zip(self.kv0, self.start,
                                            self.finish)]
            return [range(o + h - kv + 1, (f if f < n else n) + 1, step)
                    for kv, o, f, h in zip(self.kv0, self.start,
                                           self.finish, held)]
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

    def prefill_entries(self, s: int):
        """Round ``s``, one that carries prefill chunks, as the classic
        step prices it: ``(prefill, decode_kv)``, the chunks
        ``(tokens, kv_after)`` and the decode KVs each in running
        order."""
        chunk = self.chunk
        low = chunk * (s - 1)
        high = low + chunk
        prefill = []
        for _, done, begin, end in self.stream:
            if end <= low:
                continue
            if begin >= high:
                break
            last = end if end < high else high
            prefill.append((last - (begin if begin > low else low),
                            done + last - begin))
        return prefill, [kv + s - o for kv, o, f in zip(
            self.kv0, self.start, self.finish) if o < s <= f]

    def entries(self, s: int, live: "list[int]", finishing: bool):
        """Round ``s`` of the decode rounds as the classic step prices it.

        ``(prefill, decode_kv)`` in running order: several tokens make a
        verify entry ``(tokens, kv_after)``, one token a decode entry.
        ``live`` is ``kv0 - start`` of the requests still decoding; a
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
        #: Fast-path stats: epochs planned, the segments they priced
        #: and the steps they covered (the remaining ``steps -
        #: epoch_steps`` ran the classic loop), the epoch steps that
        #: carried prefill chunks and the walks that resumed a paused
        #: epoch.
        self.epochs = 0
        self.epoch_segments = 0
        self.epoch_steps = 0
        self.epoch_prefill_steps = 0
        self.epoch_resumes = 0

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
        #: ``(epoch, rounds taken)``: the planned epoch the next walk
        #: continues; ``None`` when the next advance plans afresh.
        self._paused = None

    def set_cost(self, cost) -> None:
        """Swap the step-cost model mid-run (a straggler slowdown); the
        cost hint restarts, so epoch sizing follows the new model."""
        self.cost = cost
        self._cost_hint = 0.0
        self._paused = None

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
        self._paused = None
        accepted = self.scheduler.submit(request)
        if not accepted:
            self.rejected += 1
            self.rejected_outstanding += (request.prompt_len
                                          + request.output_len)
        return accepted

    # -- stepping -------------------------------------------------------

    def advance(self, limit_time: "float | None" = None,
                max_new_steps: "int | None" = None,
                lockstep: bool = False, other_lanes: bool = False) -> int:
        """Advance the engine; returns how many steps were taken.

        Epochs (>= 1 steps each) back to back while the fast path
        applies — always without speculative decoding, and with it
        once every running request is fully prefilled — otherwise one
        classic step; 0 means idle.  No epoch step starts at or after
        ``limit_time`` and at most ``max_new_steps`` are taken.
        ``lockstep`` says ``limit_time`` may be another lane's clock,
        and ``other_lanes`` that the loop runs other lanes, so it may be
        an event that leaves this lane alone
        (:func:`~repro.serving.loop.run_loop`).
        """
        taken = 0
        scheduler = self.scheduler
        horizon = _horizon(limit_time)
        # Under lockstep the limit is often less than one step away,
        # where the classic step is cheaper than a one-step epoch.
        while self.epoch and self.clock < horizon and not (
                lockstep and limit_time is not None
                and limit_time - self.clock < self._cost_hint):
            if scheduler.admit(self.clock):
                self._paused = None
            running = scheduler.running
            if not running or (self.spec_decode is not None
                               and any(r.prefilled < r.prefill_target
                                       for r in running)):
                break
            budget = (None if max_new_steps is None
                      else max_new_steps - taken)
            advanced = self._advance_epoch(limit_time, budget, other_lanes)
            taken += advanced
            # An epoch that ran out of plan before the limit and the
            # budget is followed by the next one.
            if (not advanced or self._paused is not None
                    or budget == advanced):
                break
        return taken or self._classic_step()

    def _commit(self, clock: float, busy: float, comm_time: float,
                steps: int, prefill_tokens: int, last: float):
        """Book ``steps`` steps that end at ``clock``, ``last`` the
        cost of the last step priced: the busy and communication times
        have added each step's cost in step order, as the classic loop
        adds them.  The classic step and the epoch share it."""
        self.clock = clock
        self.busy = busy
        self.comm_time = comm_time
        self.steps += steps
        self._cost_hint = last
        self.prefill_tokens += prefill_tokens

    def _classic_step(self) -> int:
        """One step of the event loop.

        A speculative round prices each multi-token decode entry as a
        verify entry ``(emitted, kv_after)``, like a prefill chunk, keeps
        single-token entries on the decode price, and adds the draft
        model's γ decode steps over every decoding request.
        """
        self._paused = None
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
        self._commit(self.clock + total, self.busy + total,
                     self.comm_time + comm, 1, chunk_tokens, total)
        for request in scheduler.complete_step(step, self.clock):
            self._record_finish(request)
        return 1

    def _advance_epoch(self, limit_time, max_new_steps,
                       other_lanes) -> int:
        """The fast path; 0 means "fall back to a classic step".

        An epoch that stops short of its planned rounds (at
        ``limit_time`` or the step budget) is paused, and the next
        advance resumes it unless a submit, an admission, a classic
        step or a new cost model changed what it was planned from.
        """
        if self._paused is None:
            # A copy: each finish leaves ``scheduler.running`` as it goes.
            running = list(self.scheduler.running)
            schedule = RoundSchedule.of(running, self._spec_tokens,
                                        self.scheduler.chunk_tokens)
            plan = self._plan(schedule, running, limit_time,
                              PLAN_AHEAD if other_lanes else 1)
            if plan is None:
                return 0
            self._paused = (schedule, running, *plan), 0
        epoch, taken = self._paused
        return self._walk(*epoch, taken, limit_time, max_new_steps)

    def _plan(self, schedule, running, limit_time, ahead):
        """``(events, finishes, ends, draft_ends)`` of the next epoch,
        or ``None`` when not one round fits: ``(round, phase, running
        index)`` per KV grow (phase 0), landed prefill (1) and finish
        (2) in the order the classic loop applies them, then a
        sentinel; the finish rounds; the segment ends in round order;
        and the rounds after which the draft term is re-priced.  It
        covers about ``ahead`` times the rounds that fit before
        ``limit_time``."""
        finish = schedule.finish
        # Finish barrier: with requests waiting, stop at the first
        # finish (it frees memory and a batch slot, so admission must
        # re-run); with an empty queue, run through finishes.
        n = min(min(finish) if self.scheduler.waiting else max(finish),
                self.max_epoch)
        if limit_time is not None and self._cost_hint > 0.0:
            # Don't plan far past the deadline: a submit there discards
            # the plan, and too few rounds just means the next plan.
            estimated = int(ahead * (limit_time - self.clock)
                            / self._cost_hint) + 2
            if estimated < n:
                n = estimated if estimated > 1 else 1
        if n < 1:
            return None

        # Headroom: if the sorted grows outrun the free blocks at epoch
        # start, the epoch ends on the last round that provably fits.
        # Prefill blocks were allocated at admission, so only decode
        # rounds grow.
        memory = self.memory
        block = memory.block_tokens
        held = [memory.held_blocks(r.request_id) * block for r in running]
        events = [(s, 0, idx) for idx, rounds
                  in enumerate(schedule.crossings(block, n, held))
                  for s in rounds]
        if events:
            events.sort()
            free = memory.free_blocks
            if len(events) > free:
                n = events[free][0] - 1
                if n < 1:
                    return None
                del events[free:]
            if schedule.tau > block:  # one grow call per round
                events = list(dict.fromkeys(events))

        # A segment is a run of rounds priced alike: it ends where the
        # running set, a bucketed decode KV or the attended length of a
        # verify row moves.  Above stride 1 a finishing round, whose
        # finisher adds fewer tokens, is a segment of its own, and so
        # is every round carrying prefill chunks.
        finishes = {f for f in finish if f <= n}
        ends = {n, *finishes}
        prefill_rounds = min(schedule.prefill_rounds, n)
        if prefill_rounds:
            ends.update(range(1, prefill_rounds + 1))
            start = schedule.start
            events += [(start[idx], 1, idx) for idx, *_ in schedule.stream
                       if start[idx] <= n]
        if finishes:
            rem = schedule.rem
            events += [(f, 2, idx) for idx, f in enumerate(finish)
                       if f <= n and rem[idx]]
        events.sort()
        events.append((INF, 0, 0))
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
        return events, finishes, sorted(ends), draft_ends

    def _walk(self, schedule, running, events, finishes, ends, draft_ends,
              taken, limit_time, max_new_steps) -> int:
        """Price and replay the planned rounds after round ``taken`` one
        segment at a time; returns how many were taken.

        No segment starting at or after ``limit_time`` (less a relative
        1e-9) is priced, no round starting at or after it runs and at
        most ``max_new_steps`` run; ending early is always correct.  A
        round carrying prefill chunks is its own segment, priced with
        the classic step's ``step_cost`` call; a request whose last
        chunk lands in it gets its first token at the round's end.
        Traced, each stretch of rounds goes to ``on_step`` just before
        the next segment is priced, a KV grow, a first token or a
        finish.
        """
        cost = self.cost
        spec = self.spec_decode
        memory = self.memory
        scheduler = self.scheduler
        traced = self.on_step is not None
        kv0, rem, start, finish, tau = (schedule.kv0, schedule.rem,
                                        schedule.start, schedule.finish,
                                        schedule.tau)
        prefill_rounds = schedule.prefill_rounds
        stop = ends[-1]
        if max_new_steps is not None and taken + max_new_steps < stop:
            stop = taken + max_new_steps
        limit = INF if limit_time is None else limit_time
        horizon = _horizon(limit_time)
        # Events up to round ``taken`` were applied by earlier advances.
        pending = iter(events[bisect_left(events, (taken + 1,)):])
        s, phase, idx = next(pending)
        clock, busy, comm_time = self.clock, self.busy, self.comm_time
        live = kv0
        stale = taken > 0
        draft = 0.0
        entries = segment = None
        n = written = taken
        priced = 0
        for end in ends[bisect_right(ends, taken):]:
            if clock >= horizon or n >= stop:
                break
            priced += 1
            if traced:
                written = self._trace(segment, written, n)
            if end > stop:
                end = stop
            first = n + 1
            if first <= prefill_rounds:
                entries = schedule.prefill_entries(first)
                seg_total, seg_comm = cost.step_cost(prefill=entries[0],
                                                     decode_kv=entries[1])
            else:
                if stale or n in finishes or (n and n == prefill_rounds):
                    live = [kv - o for kv, o, f in zip(kv0, start, finish)
                            if o < first <= f]
                    stale = False
                if spec is not None and (n == taken or n in draft_ends):
                    before = tau * n + 1
                    draft = spec.draft_time([kv + before for kv in live])
                if tau == 1:  # schedule.entries(first, live, ...), inlined
                    seg_total, seg_comm = cost.decode_step_cost(
                        [kv + first for kv in live])
                else:
                    entries = schedule.entries(first, live,
                                               first in finishes)
                    seg_total, seg_comm = cost.step_cost(
                        prefill=entries[0], decode_kv=entries[1])
                seg_total += draft
            length = end - n
            if length > 2 and limit - clock < seg_total * length:
                # The limit cuts the segment: time its rounds only up
                # to two past the cut.
                reach = int((limit - clock) / seg_total) + 3
                if reach < length:
                    end, length = n + reach, reach
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
                        end, length = n + runnable, runnable
                        clock = starts[runnable]
                segment = (n, starts, seg_total, seg_comm, entries,
                           first <= prefill_rounds)
            if length == 1:
                busy += seg_total
                comm_time += seg_comm
            else:
                busy = sequential_sum(busy, repeat(seg_total, length))
                comm_time = sequential_sum(comm_time,
                                           repeat(seg_comm, length))
            while s <= end:
                request = running[idx]
                if phase == 0:
                    if traced:
                        written = self._trace(segment, written, s - 1)
                    grown = tau * (s - start[idx])
                    memory.grow(request.request_id,
                                kv0[idx] + (grown if grown < rem[idx]
                                            else rem[idx]))
                elif phase == 1:  # the last chunk lands, at ``clock``
                    request.prefilled = request.kv_tokens = kv0[idx]
                    if traced:
                        written = self._trace(segment, written, s)
                    if scheduler.prefill_done(request, clock, begin):
                        self._record_finish(request)
                else:  # a finish ends its segment, at ``clock``
                    request.generated = request.output_len
                    request.kv_tokens = kv0[idx] + rem[idx]
                    if traced:
                        written = self._trace(segment, written, s)
                    scheduler.finish(request, clock)
                    self._record_finish(request)
                s, phase, idx = next(pending)
            n = end
        if n == taken:
            return 0
        if traced:
            self._trace(segment, written, n)
        if taken:
            self.epoch_resumes += 1
        else:
            self.epochs += 1
        self.epoch_segments += priced
        self.epoch_steps += n - taken
        prefill_tokens = 0
        if schedule.stream:
            self.epoch_prefill_steps += (min(n, prefill_rounds)
                                         - min(taken, prefill_rounds))
            chunk, stream_end = schedule.chunk, schedule.stream[-1][3]
            consumed = chunk * n
            prefill_tokens = (min(consumed, stream_end)
                              - min(chunk * taken, stream_end))
            for idx, done, offset, _ in schedule.stream:
                if start[idx] > n and consumed > offset:
                    request = running[idx]
                    request.prefilled = request.kv_tokens = (
                        done + consumed - offset)
        self._commit(clock, busy, comm_time, n - taken, prefill_tokens,
                     seg_total)
        for request, kv, r, o, f in zip(running, kv0, rem, start, finish):
            if o < n < f:
                grown = tau * (n - o)
                request.generated = request.output_len - r + grown
                request.kv_tokens = kv + grown
        if n < ends[-1]:
            self._paused = self._paused[0], n
        else:
            self._paused = None
        return n - taken

    def _trace(self, segment, written, upto) -> int:
        """Hand ``on_step`` rounds ``written + 1`` to ``upto`` of an
        epoch as they stand now; returns how many rounds are written.

        The rounds lie in ``segment``: ``(first, starts, total, comm,
        entries, prefill)``, its rounds after round ``first``, the first
        starting at ``starts[0]``, each costing ``total`` (``comm`` of
        it communication), and their ``(prefill, decode_kv)`` when
        ``prefill`` (a round carrying chunks) or above stride 1.
        """
        if upto <= written:
            return written
        first, starts, total, comm, entries, prefill = segment
        running = len(self.scheduler.running)
        decode, chunks, tokens = running, 0, 0
        emitted = verify_rows = None
        if prefill:
            chunked, decode_kv = entries
            decode, chunks = len(decode_kv), len(chunked)
            tokens = sum(t for t, _ in chunked)
        elif self.spec_decode is not None:
            if self._spec_tokens == 1:
                emitted, verify_rows = running, 0
            else:
                verifies, decode_kv = entries
                emitted = len(decode_kv) + sum(t for t, _ in verifies)
                verify_rows = len(verifies)
        self.on_step(Stretch(
            starts[written - first:upto - first], total, comm, decode,
            running, len(self.scheduler.waiting), self.memory.used_blocks,
            chunks, tokens, emitted, verify_rows))
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

