"""Continuous batching with admission control and preemption.

The scheduler implements the iteration-level batching of Orca/vLLM:
every engine step carries one decode token for each running request
plus a bounded budget of prompt-prefill tokens (chunked prefill), so
long prompts never stall the decode stream and new requests join the
batch the moment memory admits them — no waiting for the whole batch
to drain.

Memory policy:

- **admission control** — a request is admitted only when the KV pool
  can hold its entire prefill target; requests whose prompt + output
  could never fit are rejected outright;
- **preemption (evict-and-recompute)** — when a decode step needs a
  new KV block and the pool is exhausted, the most recently admitted
  request is evicted: its blocks are freed and it re-queues at the
  head of the waiting line with a prefill target covering the prompt
  *plus every token it had already generated* (the recompute cost).
  Evicting the newest request first keeps FCFS completion order and
  bounds each request's preemption count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.obs.tracer import NULL_TRACER
from repro.serving.memory import KVBlockManager
from repro.serving.requests import Request, RequestStatus


@dataclass
class ScheduledStep:
    """One engine iteration: what runs and over which KV lengths."""

    #: (request, chunk tokens, KV length once the chunk lands).
    prefill: list[tuple[Request, int, int]] = field(default_factory=list)
    #: (request, KV length including the token being generated).
    decode: list[tuple[Request, int]] = field(default_factory=list)
    #: The clock the step was scheduled, and starts, at.
    started: float = 0.0

    @property
    def total_tokens(self) -> int:
        """Tokens the step pushes through the non-attention kernels."""
        return sum(chunk for _, chunk, _ in self.prefill) + len(self.decode)

    @property
    def is_empty(self) -> bool:
        """Whether the step carries no work."""
        return not self.prefill and not self.decode


class ContinuousBatchingScheduler:
    """Iteration-level scheduler over a :class:`KVBlockManager`.

    Parameters
    ----------
    memory:
        The KV block pool; the scheduler is its only writer.
    chunk_tokens:
        Prefill chunk size *and* per-step prefill token budget.  Must
        be a multiple of the memory manager's block size so chunk
        boundaries land on KV blocks.
    max_batch:
        Maximum concurrently admitted (running) requests.
    tracer:
        Optional :class:`repro.obs.Tracer`; scheduling decisions
        (admissions, rejections, preemptions) become instant events on
        the ``trace_process`` scheduler lane.  Defaults to the shared
        no-op tracer.
    trace_process:
        Trace process name the scheduler's events land on; cluster
        replicas pass their own name so lanes never collide.

    ``first_tokens`` is ``None`` by default; a caller that wants
    first-token observations without a tracer (the control plane's
    autoscaler) sets it to a list, and :meth:`prefill_done` appends
    ``(step start, ts, request_id, ttft_s)`` to it at the point the
    ``first-token`` instant is emitted, so the list follows this
    scheduler's instant order.
    """

    def __init__(
        self,
        memory: KVBlockManager,
        *,
        chunk_tokens: int = 512,
        max_batch: int = 32,
        tracer=None,
        trace_process: str = "engine",
    ) -> None:
        require_positive("chunk_tokens", chunk_tokens)
        require_positive("max_batch", max_batch)
        if chunk_tokens % memory.block_tokens != 0:
            raise ServingError(
                f"chunk_tokens {chunk_tokens} not a multiple of the KV "
                f"block size {memory.block_tokens}"
            )
        self.memory = memory
        self.chunk_tokens = chunk_tokens
        self.max_batch = max_batch
        self.waiting: deque[Request] = deque()
        #: Admitted requests, oldest first (preemption picks the tail).
        self.running: list[Request] = []
        self.preemption_events = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.trace_process = trace_process
        self.first_tokens: "list[tuple[float, float, int, float]] | None" = (
            None)

    def _sched_event(self, name: str, ts: float, request: Request) -> None:
        """One scheduling decision as an instant on the scheduler lane."""
        pid, tid = self.tracer.track(self.trace_process, "scheduler")
        self.tracer.instant(
            name, "scheduling", ts=ts, pid=pid, tid=tid,
            args={"request_id": request.request_id,
                  "waiting": len(self.waiting),
                  "running": len(self.running)},
        )

    # -- intake ---------------------------------------------------------

    def submit(self, request: Request) -> bool:
        """Queue an arriving request; rejects ones that can never fit."""
        if not self.memory.fits_at_all(request.total_tokens):
            request.status = RequestStatus.REJECTED
            if self.tracer.enabled:
                self._sched_event("reject", request.arrival_time, request)
            self.tracer.metrics.counter(
                f"{self.trace_process}.rejected").inc()
            return False
        request.status = RequestStatus.WAITING
        self.waiting.append(request)
        return True

    def _admit(self, now: float) -> None:
        while self.waiting and len(self.running) < self.max_batch:
            head = self.waiting[0]
            needed = self.memory.blocks_for_tokens(head.prefill_target)
            if not self.memory.can_allocate(needed):
                return
            self.waiting.popleft()
            self.memory.grow(head.request_id, head.prefill_target)
            head.status = RequestStatus.PREFILL
            head.admitted_time = now
            if head.first_admitted_time is None:
                head.first_admitted_time = now
            self.running.append(head)
            self.tracer.metrics.counter(
                f"{self.trace_process}.admitted").inc()
            if self.tracer.enabled:
                self._sched_event("admit", now, head)

    def admit(self, now: float) -> bool:
        """Admit every waiting request that fits, FCFS; returns whether
        any was.

        The same admission pass :meth:`schedule` runs first; exposed so
        the epoch-batched engine can refresh the running set before
        planning an epoch (admission is idempotent, so a subsequent
        :meth:`schedule` re-admits nothing).
        """
        before = len(self.running)
        self._admit(now)
        return len(self.running) > before

    # -- preemption -----------------------------------------------------

    def _preempt_tail(self, now: float) -> Request:
        victim = self.running.pop()
        self.memory.release(victim.request_id)
        victim.evict()
        victim.preemptions += 1
        self.preemption_events += 1
        self.waiting.appendleft(victim)
        if self.tracer.enabled:
            self._sched_event("preempt", now, victim)
        self.tracer.metrics.counter(
            f"{self.trace_process}.preemptions").inc()
        return victim

    # -- step construction ----------------------------------------------

    def schedule(self, now: float, *, spec_tokens: int = 1) -> ScheduledStep:
        """Admit what fits, then build the next engine step.

        Decode comes first (running requests keep their token cadence);
        the prefill budget fills with chunks of still-prefilling
        requests afterwards.  All memory growth happens here, before
        the step notionally executes, so the pool can never be
        over-committed mid-step.

        ``spec_tokens`` is the expected tokens one speculative
        decode round emits per request (1 = plain decode): each decode
        entry grows its KV by up to that many tokens, capped by the
        request's remaining output.  At 1 the step is byte-identical
        to the historical single-token schedule.
        """
        require_positive("spec_tokens", spec_tokens)
        self._admit(now)
        step = ScheduledStep(started=now)
        # The membership re-checks only matter once a preemption has
        # removed someone mid-iteration; skipping them on the common
        # path keeps this loop O(batch) instead of O(batch^2).
        preempted = False
        for request in list(self.running):
            if preempted and request not in self.running:
                continue  # preempted by an earlier iteration
            if request.prefilled < request.prefill_target:
                continue  # still prefilling
            emit = min(spec_tokens, request.output_len - request.generated)
            emit = max(1, emit)
            while True:
                try:
                    self.memory.grow(request.request_id,
                                     request.kv_tokens + emit)
                    break
                except ServingError:
                    victim = self._preempt_tail(now)
                    preempted = True
                    if victim is request:
                        break  # evicted itself; skip this step
            if not preempted or request in self.running:
                step.decode.append((request, request.kv_tokens + emit))

        budget = self.chunk_tokens
        for request in list(self.running):
            if budget <= 0:
                break
            if request.prefilled >= request.prefill_target:
                continue
            chunk = min(self.chunk_tokens,
                        request.prefill_target - request.prefilled,
                        budget)
            budget -= chunk
            step.prefill.append((request, chunk, request.prefilled + chunk))
        return step

    # -- step completion -------------------------------------------------

    def complete_step(self, step: ScheduledStep, now: float) -> list[Request]:
        """Apply a step's effects at its completion time ``now``.

        Returns the requests that finished during this step.
        """
        finished = []
        for request, chunk, kv_after in step.prefill:
            request.prefilled += chunk
            request.kv_tokens = kv_after
            if (request.prefilled >= request.prefill_target
                    and self.prefill_done(request, now, step.started)):
                finished.append(request)
        for request, kv_after in step.decode:
            # One token on the plain decode path; a speculative round
            # lands every accepted token of the round at once.
            request.generated += kv_after - request.kv_tokens
            request.kv_tokens = kv_after
            if request.generated >= request.output_len:
                self.finish(request, now)
                finished.append(request)
        return finished

    def prefill_done(self, request: Request, now: float,
                     started: float) -> bool:
        """A running request's last prefill chunk landed at ``now``, in
        a step that started at ``started``: it decodes from the next
        step on.  Unless it is recomputing tokens it already emitted,
        the chunk's forward pass emits its first token (the
        ``first-token`` instant and ``first_tokens`` entry), and a
        one-token request finishes.  Returns whether it finished; the
        epoch engine's replay calls this too."""
        request.status = RequestStatus.DECODE
        if request.generated:
            return False
        request.first_token_time = now
        request.generated = 1
        self.tracer.metrics.counter(
            f"{self.trace_process}.first_tokens").inc()
        if self.first_tokens is not None:
            self.first_tokens.append(
                (started, now, request.request_id,
                 now - request.arrival_time))
        if self.tracer.enabled:
            pid, tid = self.tracer.track(self.trace_process, "scheduler")
            self.tracer.instant(
                "first-token", "scheduling", ts=now, pid=pid, tid=tid,
                args={"request_id": request.request_id,
                      "ttft_s": now - request.arrival_time},
            )
        if request.generated >= request.output_len:
            self.finish(request, now)
            return True
        return False

    def finish(self, request: Request, now: float) -> None:
        """Retire a running request that emitted its last token at
        ``now``: free its KV blocks, drop it from the running set and
        record its ``finish`` instant.  The epoch engine's replay calls
        this too, so both paths trace a finish identically."""
        request.status = RequestStatus.FINISHED
        request.finish_time = now
        self.memory.release(request.request_id)
        # By identity: ``list.remove`` would compare the dataclasses
        # field by field.
        running = self.running
        for index, other in enumerate(running):
            if other is request:
                del running[index]
                break
        if self.tracer.enabled:
            self._sched_event("finish", now, request)

    @property
    def has_work(self) -> bool:
        """Whether any request is admitted or waiting."""
        return bool(self.running or self.waiting)
