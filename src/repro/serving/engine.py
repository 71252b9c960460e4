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
``n`` at once.

The fast path is *bit-identical* to the event loop, not approximately
equal.  Three properties make that possible:

- A pure-decode step's cost is a function of its **batch signature**:
  the ordered (active set, KV bucket) vector.  The signature only
  changes when a request finishes or its KV length crosses a bucket
  boundary, so an epoch splits into a handful of constant-cost
  segments, each priced through one memoized
  ``StepCostModel.step_time``/``step_cost`` call — the *same* call the
  classic loop makes per step, so repeated compositions cost O(1) and
  the floats are identical by construction, not by re-derivation.
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

Tracing disengages the fast path entirely: a traced run takes the
classic per-step path so every span is emitted exactly as before.
"""

from __future__ import annotations

import numpy as np

from repro.obs.tracer import NULL_TRACER
from repro.serving.metrics import LatencyAccumulator
from repro.serving.requests import RequestStatus

__all__ = ["EpochEngine", "DEFAULT_MAX_EPOCH", "sequential_sum"]

#: Hard cap on steps folded into one epoch; bounds the per-epoch
#: working set (one float per step).
DEFAULT_MAX_EPOCH = 4096


def sequential_sum(base: float, terms) -> float:
    """``base`` after ``+=`` of every term, left to right.

    ``np.cumsum`` accumulates strictly sequentially, so this equals the
    Python loop ``for t in terms: base += t`` bit for bit — the
    property the epoch fast path's clock/busy accounting relies on.
    """
    if len(terms) == 0:
        return base
    return float(np.cumsum([base] + list(terms))[-1])


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
        Tracing callback ``(step, ts=..., dur=..., comm=...)`` invoked
        for every classic step while the tracer is enabled.  Traced
        runs never take the epoch path, so callbacks see every step.
    spec_decode:
        Optional :class:`~repro.serving.specdecode.SpecDecodeRuntime`.
        When set, decode runs in speculative rounds: the scheduler
        grows each decoding request by ``tokens_per_round``, the
        target model prices the multi-token verify pass as a
        prefill-shaped entry, and the draft model's γ decode steps are
        added on top.  ``None`` (the default) takes the historical
        single-token path untouched — reports stay byte-identical.
        Speculation forces the classic per-step loop; the epoch fast
        path assumes one token per step.
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
        self.on_step = on_step
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
        #: set when an arrival deadline is near.  Purely a performance
        #: hint: any epoch length >= 1 is correct (the loop just takes
        #: another epoch), so a stale hint can never change results.
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
        # The hint sizes the next epoch's working set only; stale
        # values cannot change results, but re-deriving it from the
        # new model keeps epoch sizing sensible after a big slowdown.
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
                max_new_steps: "int | None" = None) -> int:
        """Advance the engine; returns how many steps were taken.

        Takes one epoch (>= 1 steps) when the batch is in pure decode
        and the fast path applies, otherwise exactly one classic step;
        0 means the scheduler produced an empty step (idle).  No epoch
        step starts at or after ``limit_time`` (the event loop's next
        event), and at most ``max_new_steps`` are taken on
        the fast path.
        """
        if self.epoch and not self.tracer.enabled and self.spec_decode is None:
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
        draft = 0.0
        if self.spec_decode is None:
            decode_kv = [kv for _, kv in step.decode]
        else:
            decode_kv = []
            draft_kv = []
            for request, kv_after in step.decode:
                emitted = kv_after - request.kv_tokens
                if emitted > 1:
                    prefill.append((emitted, kv_after))
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
        if self.tracer.enabled and self.on_step is not None:
            self.on_step(step, ts=self.clock, dur=total, comm=comm)
        self.clock += total
        self.busy += total
        self.comm_time += comm
        self.steps += 1
        self._cost_hint = total
        self.prefill_tokens += sum(chunk for _, chunk, _ in step.prefill)
        for request in scheduler.complete_step(step, self.clock):
            self._record_finish(request)
        return 1

    def _advance_epoch(self, limit_time, max_new_steps) -> int:
        """Pure-decode fast path; 0 means "fall back to a classic step".

        The epoch is priced by segments: between finishes and KV-bucket
        crossings the batch signature is constant, so one memoized cost
        call covers every step of a segment.
        """
        scheduler = self.scheduler
        memory = self.memory
        cost = self.cost
        running = scheduler.running
        b = len(running)
        kv0 = [r.kv_tokens for r in running]
        rem = [r.output_len - r.generated for r in running]
        # Finish barrier: with requests waiting, stop at the first
        # finish (it frees memory and a batch slot, so admission must
        # re-run); with an empty queue, run through finishes.
        n_cap = min(rem) if scheduler.waiting else max(rem)
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
        # releases: request idx needs a fresh block at local steps
        # cross+1, cross+1+block_tokens, ...  If the sorted event list
        # outruns the headroom at epoch start, the epoch ends on the
        # last step that provably fits — so the fast path can never
        # preempt (the classic fallback handles that).
        block_tokens = memory.block_tokens
        grows = []
        for idx in range(b):
            cross = (memory.held_blocks(running[idx].request_id)
                     * block_tokens - kv0[idx])
            last = rem[idx] if rem[idx] < n_cap else n_cap
            for s in range(cross + 1, last + 1, block_tokens):
                grows.append((s, idx))
        n = n_cap
        if grows:
            grows.sort()
            free = memory.free_blocks
            if len(grows) > free:
                n = grows[free][0] - 1
                if n < 1:
                    return 0

        # Segment boundaries: the batch signature — the ordered
        # (active, KV bucket) vector the classic step prices — changes
        # only where a request finishes or its KV length crosses a
        # bucket boundary.  Each segment costs one memoized call, the
        # *same* call the per-step loop makes, so floats match exactly.
        bucket = cost.kv_bucket
        bounds = {n}
        for idx in range(b):
            last = rem[idx] if rem[idx] < n else n
            if rem[idx] <= n:
                bounds.add(rem[idx])
            for s in range(bucket - kv0[idx] % bucket + 1,
                           last + 1, bucket):
                bounds.add(s - 1)
        bounds.discard(0)

        sharded = self._step_cost is not None
        totals = []
        comm = [] if sharded else None
        start = 1
        for end in sorted(bounds):
            decode = [kv0[i] + start for i in range(b) if rem[i] >= start]
            if sharded:
                seg_total, seg_comm = cost.decode_step_cost(decode)
                comm.extend([seg_comm] * (end - start + 1))
            else:
                seg_total = cost.decode_step_time(decode)
            totals.extend([seg_total] * (end - start + 1))
            start = end + 1

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

        # Replay the epoch's memory traffic in the classic order —
        # (step, grows-before-finishes, running index) — so allocator
        # state and the peak-occupancy watermark match the event loop.
        events = [(s, 0, idx) for s, idx in grows if s <= n]
        any_finished = False
        for idx in range(b):
            if rem[idx] <= n:
                events.append((rem[idx], 1, idx))
                any_finished = True
        events.sort()
        for s, phase, idx in events:
            request = running[idx]
            if phase == 0:
                memory.grow(request.request_id, kv0[idx] + s)
            else:
                request.generated = request.output_len
                request.kv_tokens = kv0[idx] + rem[idx]
                request.status = RequestStatus.FINISHED
                request.finish_time = float(times[s])
                memory.release(request.request_id)
                self._record_finish(request)
        for idx in range(b):
            if rem[idx] > n:
                request = running[idx]
                request.generated += n
                request.kv_tokens = kv0[idx] + n
        if any_finished:
            scheduler.running = [
                request for idx, request in enumerate(running)
                if rem[idx] > n
            ]
        self.clock = float(times[n])
        return n

    # -- accounting -----------------------------------------------------

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

