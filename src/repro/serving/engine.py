"""Epoch-batched serving engine core.

The classic event loop advances one engine step per Python iteration:
build a :class:`~repro.serving.scheduler.ScheduledStep`, price it,
bump the clock, apply completions.  At fleet scale (100k–1M requests)
that per-step Python overhead — not the cost model — dominates wall
clock.  :class:`EpochEngine` keeps the classic loop as its fallback
and adds an **epoch** fast path: whenever the batch is in pure decode
(every running request fully prefilled), the next ``n`` steps are a
closed-form function of the epoch-start state — remaining-token
counters, KV lengths, block headroom — so the engine advances all
``n`` at once.  Under speculative decoding a step is one *round* and
each request advances at stride ``tokens_per_round`` (its last round
emits the remainder); plain decode is stride 1.

The fast path is *bit-identical* to the event loop, not approximately
equal.  Three properties make that possible:

- A plain decode step's cost is a function of its **batch signature**:
  the ordered (active set, KV bucket) vector.  The signature only
  changes when a request finishes or its KV length crosses a bucket
  boundary, so an epoch splits into a handful of constant-cost
  segments, each priced through one memoized
  ``StepCostModel.step_time``/``step_cost`` call — the *same* call the
  classic loop makes per step, so repeated compositions cost O(1) and
  the floats are identical by construction, not by re-derivation.  A
  speculative round's verify entries carry exact KV lengths, so each
  round makes the classic step's ``step_time``/``step_cost`` call
  itself; its draft term depends only on bucketed KV lengths and is
  reused over segments the same way.
- ``np.cumsum`` accumulates strictly left to right, so clock/busy/comm
  advance via one cumsum seeded with the current value — matching the
  loop's repeated ``+=`` bit for bit.
- KV-block allocations and finishes replay as discrete events in the
  classic (step, phase, running-index) order, so allocator state and
  the peak-occupancy watermark are exactly the event loop's.

An epoch ends wherever the event loop could have made a different
decision (docs/performance.md spells out the invalidation rules):

- the first finish, when requests are waiting (a finish frees memory
  and a batch slot, so admission must be re-evaluated);
- the next pending arrival's timestamp — no epoch step may *start* at
  or after it, because the loop submits arrivals before scheduling;
- KV-block headroom, computed conservatively (mid-epoch releases are
  ignored), so the fast path can never preempt — if even one step
  doesn't provably fit, the engine falls back to the classic step,
  which handles preemption;
- a step budget (``max_steps`` bookkeeping) and a hard per-epoch cap
  bounding the vectorized working set.

Under speculation each of these counts rounds.

Tracing rides the fast path.  Both paths describe every step to the
``on_step`` callback with one :class:`StepRecord`, and the epoch's
replay builds each record at the point the classic step would (after
the step's KV growth, before its finishes).  An epoch prices its
segments in round order and never one that starts at or after the next
arrival, so cold pricing emits its ``kernel`` spans in the classic
order; the replay moves each segment's spans in front of the segment's
first step.  A traced run therefore takes the same path as an untraced
one and emits the classic trace byte for byte; runs that interleave
several engines in one tracer keep their steps in global order with
the event loop's ``lockstep`` (:func:`~repro.serving.loop.run_loop`).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.serving.metrics import LatencyAccumulator, RunOutcome
from repro.serving.requests import RequestStatus

__all__ = ["EpochEngine", "DEFAULT_MAX_EPOCH", "StepRecord",
           "sequential_sum"]

#: Hard cap on steps folded into one epoch; bounds the per-epoch
#: working set (one float per step).
DEFAULT_MAX_EPOCH = 4096


class StepRecord(NamedTuple):
    """One engine step as a tracer sees it.

    The classic step and the epoch replay build the same record for the
    same step, so an ``on_step`` callback that reads only this record
    traces both paths identically.  ``running``, ``waiting`` and
    ``kv_blocks`` stand as they are after the step's KV growth and
    before its finishes; the ``spec_*`` fields are ``None`` without
    speculative decoding.
    """

    ts: float
    dur: float
    comm: float
    decode: int
    prefill_chunks: int
    prefill_tokens: int
    running: int
    waiting: int
    kv_blocks: int
    spec_emitted: Optional[int]
    spec_verify_rows: Optional[int]


def sequential_sum(base: float, terms) -> float:
    """``base`` after ``+=`` of every term, left to right.

    ``np.cumsum`` accumulates strictly sequentially, so this equals the
    Python loop ``for t in terms: base += t`` bit for bit — the
    property the epoch fast path's clock/busy accounting relies on.
    """
    if len(terms) == 0:
        return base
    return float(np.cumsum([base] + list(terms))[-1])


def _bucket_ends(first: int, stride: int, bucket: int, rounds: int):
    """Rounds after which a bucketed KV length moves up a bucket.

    The length is ``first + stride * (s - 1)`` in round ``s`` (1 to
    ``rounds``) and prices as its multiple-of-``bucket`` ceiling; every
    round ``e < rounds`` whose bucket differs from round ``e + 1``'s is
    returned (a stride above ``bucket`` may skip buckets, so some may
    repeat).
    """
    low = -(-first // bucket) * bucket
    high = first + stride * (rounds - 1)
    return [(m - first) // stride + 1 for m in range(low, high, bucket)]


def _round_entries(kv0, rem, tau: int, s: int, finishing: bool):
    """Round ``s`` of a speculative epoch as the classic step prices it.

    Returns ``(prefill, decode_kv)`` in running order: a request
    emitting more than one token is a verify entry ``(emitted,
    kv_after)``; one emitting a single token (the last of its output)
    stays on the decode price.  ``kv0``/``rem`` are the epoch-start KV
    lengths and remaining tokens; ``finishing`` says whether some
    request runs its last round at ``s``, the only case where a round
    emits less than ``tau`` for anyone.
    """
    after = tau * s
    if not finishing:
        return [(tau, kv + after) for kv, r in zip(kv0, rem)
                if r >= after], []
    before = after - tau
    prefill, decode = [], []
    for kv, r in zip(kv0, rem):
        if r >= after:
            prefill.append((tau, kv + after))
        elif r - before > 1:
            prefill.append((r - before, kv + r))
        elif r > before:
            decode.append(kv + r)
    return prefill, decode


class EpochEngine:
    """Clock, accounting, and stepping for one serving engine.

    Owns the mutable run state the simulator/replica loops used to
    carry (clock, busy time, step and token counters) plus the O(1)
    streamed aggregates (finish counters and latency accumulators)
    that let a caller drop finished requests instead of retaining
    per-request lists.

    Parameters
    ----------
    cost:
        A :class:`~repro.serving.costmodel.StepCostModel`; when it
        exposes ``step_cost`` (the sharded cluster variant) the engine
        also tracks communication time.
    memory / scheduler:
        The paged KV pool and the continuous-batching scheduler the
        engine drives.  The engine is the only caller of
        ``scheduler.schedule``/``complete_step`` during a run.
    epoch:
        ``False`` pins the engine to the classic per-step event loop
        (the pre-epoch execution model, kept for equivalence testing
        and benchmarking).
    on_step:
        Tracing callback, called with one :class:`StepRecord` per step
        (classic or epoch alike, in step order) while the tracer is
        enabled; ignored when it is not.
    spec_decode:
        Optional :class:`~repro.serving.specdecode.SpecDecodeRuntime`.
        When set, decode runs in speculative rounds: the scheduler
        grows each decoding request by ``tokens_per_round``, the
        target model prices the multi-token verify pass as a
        prefill-shaped entry, and the draft model's γ decode steps are
        added on top.  ``None`` (the default) takes the historical
        single-token path untouched — reports stay byte-identical.
        Pure-decode rounds take the epoch fast path at stride
        ``tokens_per_round``.
    """

    def __init__(
        self,
        *,
        cost,
        memory,
        scheduler,
        tracer=None,
        epoch: bool = True,
        max_epoch: int = DEFAULT_MAX_EPOCH,
        on_step=None,
        spec_decode=None,
    ) -> None:
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
        #: ``step_cost`` is the sharded cost model's entry point; its
        #: presence is what makes this a cluster-replica engine.
        self._step_cost = getattr(cost, "step_cost", None)

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
        #: Constant outstanding-token contribution of rejected requests
        #: (they never finish, so the classic definition counts them
        #: forever); kept as a counter so ``outstanding_tokens`` stays
        #: O(resident).
        self.rejected_outstanding = 0
        self.ttft = LatencyAccumulator()
        self.tpot = LatencyAccumulator()
        self.e2e = LatencyAccumulator()

        #: Last observed per-step cost — sizes the next epoch's working
        #: set when an arrival deadline is near, and under lockstep
        #: picks the classic step when less than one step fits before
        #: the limit.  Purely a performance hint: any epoch length >= 1
        #: and either path are correct (the loop just advances again),
        #: so a stale hint can never change results.
        self._cost_hint = 0.0

    def set_cost(self, cost) -> None:
        """Swap the step-cost model mid-run.

        The engine caches the sharded ``step_cost`` entry point at
        construction, so a plain attribute assignment would leave the
        classic step pricing through the old model; this rebinds both.
        The control plane uses it to inject straggler slowdowns into a
        live replica.
        """
        self.cost = cost
        self._step_cost = getattr(cost, "step_cost", None)
        # The hint sizes epochs and, under lockstep, picks the classic
        # step; stale values cannot change results, but re-deriving it
        # from the new model keeps both sensible after a big slowdown.
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

        Takes one epoch (>= 1 steps) when the batch is in pure decode
        and the fast path applies, otherwise exactly one classic step;
        0 means the scheduler produced an empty step (idle).  No epoch
        step starts at or after ``limit_time`` (the event loop's next
        event), and at most ``max_new_steps`` are taken on
        the fast path.  ``lockstep`` says that ``limit_time`` may be
        another lane's clock (:func:`~repro.serving.loop.run_loop`).
        """
        # Under lockstep the limit is mostly the next replica's clock,
        # often less than one step away; an epoch there would run a
        # single step, which the classic step does for less.  Any split
        # into advances gives the same results.
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

    def _classic_step(self) -> int:
        """One step of the pre-epoch event loop, verbatim.

        Under speculative decoding the step is one *round*: multi-token
        decode entries split into verify work — priced exactly like a
        chunked-prefill entry of ``emitted`` query rows against the
        post-round KV — while single-token entries (a request with one
        token left speculates nothing) stay on the decode price, and
        the draft model's γ sequential decode steps over the
        speculating requests are added to the round's latency.
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
                # Every decoding request drafts — a round that ends up
                # rejected (or capped to one emitted token) still paid
                # the draft model's γ steps.
                draft_kv.append(request.kv_tokens + 1)
            draft = self.spec_decode.draft_time(draft_kv)
        if self._step_cost is not None:
            total, comm = self._step_cost(prefill=prefill,
                                          decode_kv=decode_kv)
        else:
            total = self.cost.step_time(prefill=prefill,
                                        decode_kv=decode_kv)
            comm = 0.0
        total += draft
        if self.on_step is not None:
            self.on_step(StepRecord(
                self.clock, total, comm, len(step.decode),
                len(step.prefill), chunk_tokens, len(scheduler.running),
                len(scheduler.waiting), self.memory.used_blocks,
                emitted, verify_rows))
        self.clock += total
        self.busy += total
        self.comm_time += comm
        self.steps += 1
        self._cost_hint = total
        self.prefill_tokens += chunk_tokens
        for request in scheduler.complete_step(step, self.clock):
            self._record_finish(request)
        return 1

    def _advance_epoch(self, limit_time, max_new_steps) -> int:
        """Pure-decode fast path; 0 means "fall back to a classic step".

        Each step is one round at stride ``tau`` (the speculative
        ``tokens_per_round``; 1 on the plain decode path): a request
        with ``rem`` tokens left emits ``tau`` a round for
        ``ceil(rem / tau)`` rounds, the remainder in its last.  The
        epoch is priced by segments: between the rounds where the
        priced batch signature changes, one memoized cost call covers
        every round of a segment.
        """
        scheduler = self.scheduler
        memory = self.memory
        cost = self.cost
        spec = self.spec_decode
        tau = self._spec_tokens
        # A copy: each finish leaves ``scheduler.running`` as it goes.
        running = list(scheduler.running)
        b = len(running)
        kv0 = [r.kv_tokens for r in running]
        rem = [r.output_len - r.generated for r in running]
        rounds = rem if tau == 1 else [-(-r // tau) for r in rem]
        # Finish barrier: with requests waiting, stop at the first
        # finish (it frees memory and a batch slot, so admission must
        # re-run); with an empty queue, run through finishes.
        n_cap = min(rounds) if scheduler.waiting else max(rounds)
        if n_cap > self.max_epoch:
            n_cap = self.max_epoch
        if max_new_steps is not None and max_new_steps < n_cap:
            n_cap = max_new_steps
        if limit_time is not None and self._cost_hint > 0.0:
            # Don't plan steps the arrival deadline will truncate
            # anyway; underestimating just means the next advance()
            # opens another epoch.
            estimated = int((limit_time - self.clock)
                            / self._cost_hint) + 2
            if estimated < n_cap:
                n_cap = estimated if estimated > 1 else 1
        if n_cap < 1:
            return 0

        # Block-allocation events, conservatively ignoring mid-epoch
        # releases: the block holding tokens from h + 1 (h a multiple
        # of block_tokens) is first needed in round (h - kv0) // tau + 1,
        # so with tau > block_tokens one round may need several.  If
        # the sorted event list outruns the headroom at epoch start,
        # the epoch ends on the last round that provably fits — so the
        # fast path can never preempt (the classic fallback handles
        # that).
        block_tokens = memory.block_tokens
        span = tau * n_cap
        grows = []
        for idx in range(b):
            kv = kv0[idx]
            held = memory.held_blocks(running[idx].request_id) * block_tokens
            top = kv + (rem[idx] if rem[idx] < span else span)
            for h in range(held, top, block_tokens):
                grows.append(((h - kv) // tau + 1, idx))
        n = n_cap
        if grows:
            grows.sort()
            free = memory.free_blocks
            if len(grows) > free:
                n = grows[free][0] - 1
                if n < 1:
                    return 0
            if tau > block_tokens:
                grows = list(dict.fromkeys(grows))  # one grow per round

        # Segment ends: the batch signature the classic step prices
        # changes only after a round where a request finishes or a
        # bucketed KV length crosses a bucket.  A verify entry prices
        # its exact KV, so with tau > 1 every round is its own segment.
        # The draft term prices the bucketed pre-round KV (+ 1) of every
        # active request, so it is re-priced only after its own ends.
        finishes = {f for f in rounds if f <= n}
        ends = None
        if tau == 1:
            # _bucket_ends(kv0 + 1, 1, bucket, rounds) as one range per
            # request: this runs on every plain decode epoch.
            bucket = cost.kv_bucket
            ends = {n, *finishes}
            ends.update(*[range(bucket - kv % bucket, r if r < n else n,
                                bucket) for kv, r in zip(kv0, rem)])
        draft_ends = None
        if spec is not None:
            draft_ends = set(finishes)
            bucket = spec.draft_cost.kv_bucket
            for idx in range(b):
                draft_ends.update(_bucket_ends(
                    kv0[idx] + 1, tau, bucket,
                    rounds[idx] if rounds[idx] < n else n))
            if ends is not None:
                ends |= draft_ends

        # Price segment by segment in round order, the order the classic
        # loop first meets each signature in (a cold price emits kernel
        # spans), the draft before the target as in a classic round.  A
        # segment whose first round starts at or after ``limit_time``
        # is never priced; the running start estimate is approximate,
        # so near the limit the epoch ends early — always correct.
        step_cost = self._step_cost
        tracer_events = None
        if self.on_step is not None:
            tracer_events = self.tracer.events
            mark = len(tracer_events)
            # (first round, events recorded by then) per segment.
            priced = []
        horizon = (float("inf") if limit_time is None
                   else limit_time - 1e-9 * abs(limit_time))
        estimate = self.clock
        totals = []
        comm = [] if step_cost is not None else None
        draft = 0.0
        start = 1
        for end in range(1, n + 1) if ends is None else sorted(ends):
            if estimate >= horizon:
                break
            if spec is not None and (start == 1 or start - 1 in draft_ends):
                before = tau * (start - 1)
                draft = spec.draft_time([kv + before + 1
                                         for kv, r in zip(kv0, rem)
                                         if r > before])
            if tau == 1:
                decode = [kv + start for kv, r in zip(kv0, rem)
                          if r >= start]
                if step_cost is not None:
                    seg_total, seg_comm = cost.decode_step_cost(decode)
                else:
                    seg_total = cost.decode_step_time(decode)
            else:
                prefill, decode = _round_entries(kv0, rem, tau, start,
                                                 start in finishes)
                if step_cost is not None:
                    seg_total, seg_comm = step_cost(prefill=prefill,
                                                    decode_kv=decode)
                else:
                    seg_total = cost.step_time(prefill=prefill,
                                               decode_kv=decode)
            seg_total += draft
            length = end - start + 1
            if comm is not None:
                comm.extend([seg_comm] * length)
            totals.extend([seg_total] * length)
            estimate += seg_total * length
            if tracer_events is not None:
                priced.append((start, len(tracer_events)))
            start = end + 1
        if start == 1:
            return 0
        n = start - 1

        # times[s] = clock after step s; times[s-1] = when step s
        # starts.  No epoch step may start at or after the next
        # arrival, because the event loop submits arrivals first.
        times = np.cumsum([self.clock] + totals)
        if limit_time is not None:
            runnable = int(np.searchsorted(times[:n], limit_time,
                                           side="left"))
            if runnable < 1:
                return 0
            if runnable < n:
                n = runnable
                totals = totals[:n]
                if comm is not None:
                    comm = comm[:n]

        self.steps += n
        self.epochs += 1
        self.epoch_steps += n
        self.busy = sequential_sum(self.busy, totals)
        if comm is not None:
            self.comm_time = sequential_sum(self.comm_time, comm)
        self._cost_hint = totals[-1]

        # Replay the epoch in the classic order — (step, grows, the
        # step's trace record, finishes, running index) — so allocator
        # state, the peak-occupancy watermark and the trace match the
        # event loop.
        events = [(s, 0, idx) for s, idx in grows if s <= n]
        for idx in range(b):
            if rounds[idx] <= n:
                events.append((rounds[idx], 2, idx))
        if tracer_events is not None:
            events.extend([(s, 1, 0) for s in range(1, n + 1)])
            starts = times.tolist()
            # Pricing's kernel spans, re-recorded in front of the first
            # step of the segment that priced them.
            kernels = tracer_events[mark:]
            del tracer_events[mark:]
            segments = iter(priced)
            next_start, upto = next(segments)
            taken = mark
        events.sort()
        for s, phase, idx in events:
            request = running[idx]
            if phase == 0:
                grown = tau * s
                memory.grow(request.request_id,
                            kv0[idx] + (grown if grown < rem[idx]
                                        else rem[idx]))
            elif phase == 1:
                if s == next_start:
                    tracer_events.extend(kernels[taken - mark:upto - mark])
                    taken = upto
                    next_start, upto = next(segments, (0, 0))
                self._replay_record(s, starts[s - 1], totals[s - 1],
                                    0.0 if comm is None else comm[s - 1],
                                    rem, s in finishes)
            else:
                request.generated = request.output_len
                request.kv_tokens = kv0[idx] + rem[idx]
                scheduler.finish(request, float(times[s]))
                self._record_finish(request)
        grown = tau * n
        for idx in range(b):
            if rounds[idx] > n:
                request = running[idx]
                request.generated += grown
                request.kv_tokens = kv0[idx] + grown
        self.clock = float(times[n])
        return n

    def _replay_record(self, s, ts, dur, comm, rem, finishing) -> None:
        """Hand ``on_step`` round ``s`` of an epoch as the classic step
        records it, from the live scheduler and memory state.

        Every running request decodes; under speculation each emits
        ``tau`` tokens, except in a ``finishing`` round, where a
        request's last round emits its remainder (``rem`` holds the
        epoch-start remaining tokens).
        """
        scheduler = self.scheduler
        active = len(scheduler.running)
        emitted = verify_rows = None
        if self.spec_decode is not None:
            tau = self._spec_tokens
            if finishing and tau > 1:
                before = tau * (s - 1)
                counts = [r - before if r - before < tau else tau
                          for r in rem if r > before]
                emitted = sum(counts)
                verify_rows = sum(1 for c in counts if c > 1)
            else:
                emitted = tau * active
                verify_rows = active if tau > 1 else 0
        self.on_step(StepRecord(ts, dur, comm, active, 0, 0, active,
                                len(scheduler.waiting),
                                self.memory.used_blocks, emitted,
                                verify_rows))

    # -- accounting -----------------------------------------------------

    def outcome(self, hbm_bytes: int, requests) -> RunOutcome:
        """Snapshot this run for a report; ``requests`` is the retained
        request list, or ``None`` when the run streamed."""
        return RunOutcome(
            hbm_bytes=hbm_bytes,
            memory=self.memory.stats(),
            clock=self.clock,
            busy=self.busy,
            comm_time=self.comm_time,
            steps=self.steps,
            prefill_tokens=self.prefill_tokens,
            preemption_events=self.scheduler.preemption_events,
            finished=self.finished,
            rejected=self.rejected,
            preempted_requests=self.preempted_requests,
            generated_tokens=self.generated_tokens,
            ttft=self.ttft,
            tpot=self.tpot,
            e2e=self.e2e,
            requests=requests,
        )

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

