"""Serving requests and arrival-stream generation.

A serving workload is a stream of :class:`Request` objects: an arrival
time, a prompt length, and an output length.  :class:`ServingWorkload`
generates the stream synthetically — Poisson arrivals at a configured
rate, prompt lengths drawn from the TriviaQA-like corpus distribution
(:mod:`repro.workloads.triviaqa`), output lengths from a geometric
distribution — or replays a JSONL trace file, so measured production
traces and synthetic load use the same simulator.

Prompt lengths are rounded up to the KV block size: serving systems
allocate the cache at block granularity, and the padded shape is what
the kernels actually run (exactly the bucketed-serving argument of
:mod:`repro.workloads.driver`).
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.serving.arrivals import ArrivalProcess, PoissonArrivals
from repro.workloads.triviaqa import SyntheticTriviaQA


class RequestStatus(enum.Enum):
    """Lifecycle of one serving request."""

    WAITING = "waiting"        #: arrived, not yet admitted (or preempted)
    PREFILL = "prefill"        #: admitted, prompt chunks still running
    DECODE = "decode"          #: emitting one token per engine step
    FINISHED = "finished"      #: all output tokens emitted
    REJECTED = "rejected"      #: can never fit on the device


@dataclass
class Request:
    """One request flowing through the simulated serving engine.

    The scheduler mutates the runtime state; ``prompt_len`` and
    ``output_len`` are fixed at arrival.  ``prefill_target`` normally
    equals ``prompt_len`` but grows after a preemption: evict-and-
    recompute must rebuild the KV entries of every token generated so
    far before decode can continue.
    """

    request_id: int
    arrival_time: float
    prompt_len: int
    output_len: int
    #: Shared-prefix group (conversation/template id) for affinity
    #: routing; ``None`` when the workload has no prefix structure.
    prefix_group: "int | None" = None

    # -- runtime state, owned by the scheduler --------------------------
    status: RequestStatus = RequestStatus.WAITING
    #: Tokens whose KV entries must exist before decode (re)starts.
    prefill_target: int = field(default=0)
    #: Tokens prefilled since (re-)admission.
    prefilled: int = 0
    #: Output tokens emitted so far (survives preemption).
    generated: int = 0
    #: Tokens currently resident in the KV cache.
    kv_tokens: int = 0
    #: Times this request was preempted (evict-and-recompute).
    preemptions: int = 0

    # -- timestamps -----------------------------------------------------
    #: Most recent admission (overwritten when a preempted request is
    #: re-admitted).
    admitted_time: "float | None" = None
    #: First admission ever; set once and kept across preemptions, so
    #: ``first_admitted_time - arrival_time`` is the true queueing delay.
    first_admitted_time: "float | None" = None
    first_token_time: "float | None" = None
    finish_time: "float | None" = None

    def __post_init__(self) -> None:
        require_positive("prompt_len", self.prompt_len)
        require_positive("output_len", self.output_len)
        if self.arrival_time < 0:
            raise ServingError(
                f"request {self.request_id}: negative arrival time "
                f"{self.arrival_time}"
            )
        if self.prefill_target == 0:
            self.prefill_target = self.prompt_len

    @property
    def total_tokens(self) -> int:
        """KV footprint when the request completes, in tokens."""
        return self.prompt_len + self.output_len

    @property
    def ttft(self) -> float:
        """Time to first token, seconds (arrival to first emission)."""
        if self.first_token_time is None:
            raise ServingError(
                f"request {self.request_id} has not produced a token"
            )
        return self.first_token_time - self.arrival_time

    @property
    def tpot(self) -> float:
        """Mean time per output token after the first, seconds.

        Zero for single-token requests (no decode steps).
        """
        if self.finish_time is None:
            raise ServingError(f"request {self.request_id} not finished")
        if self.output_len == 1:
            return 0.0
        return ((self.finish_time - self.first_token_time)
                / (self.output_len - 1))

    @property
    def e2e_latency(self) -> float:
        """Arrival-to-completion latency, seconds."""
        if self.finish_time is None:
            raise ServingError(f"request {self.request_id} not finished")
        return self.finish_time - self.arrival_time


def _round_up(value: int, multiple: int) -> int:
    return -(-value // multiple) * multiple


@dataclass(frozen=True)
class RequestArrays:
    """A request stream held in parallel numpy arrays.

    The columnar form of a sorted request list: request ``i`` has
    arrival time ``arrival_time[i]``, block-rounded prompt length
    ``prompt_len[i]``, and so on.  The serving simulator iterates the
    arrays and materializes one :class:`Request` per arrival, so a
    million-request workload never allocates a million dataclasses up
    front, and several plans can replay the same arrays without
    re-sampling or copying.
    """

    arrival_time: np.ndarray
    prompt_len: np.ndarray
    output_len: np.ndarray
    prefix_group: "np.ndarray | None" = None

    def __len__(self) -> int:
        return len(self.arrival_time)

    def materialize(self, index: int) -> Request:
        """A fresh :class:`Request` for stream position ``index``."""
        return Request(
            request_id=index,
            arrival_time=float(self.arrival_time[index]),
            prompt_len=int(self.prompt_len[index]),
            output_len=int(self.output_len[index]),
            prefix_group=(int(self.prefix_group[index])
                          if self.prefix_group is not None else None),
        )

    def requests(self) -> "list[Request]":
        """The whole stream as a list (small-workload convenience)."""
        return [self.materialize(index) for index in range(len(self))]


def arrivals(stream, *, start: int = 0, step: int = 1):
    """Fresh requests of ``stream`` in arrival order, made one at a time.

    ``stream`` is a :class:`RequestArrays` — rows materialize lazily,
    so a streaming run never holds the whole stream — or a time-sorted
    sequence of request templates, each yielded as a copy: schedulers
    mutate request state, and a simulator's ``run()`` must stay
    repeatable.  ``start`` and ``step`` stride the stream (a
    round-robin shard's share).
    """
    if isinstance(stream, RequestArrays):
        for index in range(start, len(stream), step):
            yield stream.materialize(index)
        return
    for r in itertools.islice(stream, start, None, step):
        yield Request(
            request_id=r.request_id, arrival_time=r.arrival_time,
            prompt_len=r.prompt_len, output_len=r.output_len,
            prefix_group=r.prefix_group,
        )


class ServingWorkload:
    """Deterministic synthetic request stream.

    Arrivals are Poisson with ``rate`` requests/second over
    ``duration`` seconds unless an explicit ``arrival`` process is
    given (:mod:`repro.serving.arrivals` has MMPP bursts and a diurnal
    day curve).  Prompt lengths reuse the TriviaQA corpus length
    distribution (truncated to ``max_prompt`` and rounded up to
    ``block_tokens``); output lengths are geometric with mean
    ``mean_output``, the heavy-one-sided spread of production decode
    lengths.

    >>> stream = ServingWorkload(rate=4.0, duration=10.0, seed=0)
    >>> reqs = stream.requests()
    >>> all(r.prompt_len % 64 == 0 for r in reqs)
    True
    """

    def __init__(
        self,
        *,
        rate: float,
        duration: float,
        seed: int = 0,
        max_prompt: int = 4096,
        mean_output: int = 64,
        max_output: int = 0,
        block_tokens: int = 64,
        prefix_groups: int = 0,
        arrival: "ArrivalProcess | None" = None,
    ) -> None:
        require_positive("rate", rate)
        require_positive("duration", duration)
        require_positive("max_prompt", max_prompt)
        require_positive("mean_output", mean_output)
        require_positive("block_tokens", block_tokens)
        if prefix_groups < 0:
            raise ServingError(
                f"prefix_groups must be >= 0, got {prefix_groups}"
            )
        if max_prompt % block_tokens != 0:
            raise ServingError(
                f"max_prompt {max_prompt} not a multiple of the KV block "
                f"size {block_tokens}"
            )
        self.rate = rate
        self.duration = duration
        self.seed = seed
        #: Arrival-time generator; the stationary Poisson stream keeps
        #: its historical rng stream, so the default is byte-identical
        #: to pre-arrival-process releases.
        self.arrival: ArrivalProcess = (
            arrival if arrival is not None else PoissonArrivals(rate=rate))
        self.max_prompt = max_prompt
        self.mean_output = mean_output
        self.max_output = max_output or 4 * mean_output
        self.block_tokens = block_tokens
        self.prefix_groups = prefix_groups
        self._arrays: "RequestArrays | None" = None

    def request_arrays(self) -> RequestArrays:
        """The request stream as shared, memoized numpy arrays.

        Sampling is fully vectorized and runs once per workload
        instance; every caller (and every plan replaying the same
        stream) sees the same arrays.  Values are identical to what
        :meth:`requests` has always produced — the arrays are the
        source the :class:`Request` objects are built from.
        """
        if self._arrays is not None:
            return self._arrays
        arrivals = self.arrival.sample(self.duration, self.seed)

        corpus = SyntheticTriviaQA(num_documents=max(1, len(arrivals)),
                                   seed=self.seed)
        prompts = np.minimum(corpus.lengths(),
                             self.max_prompt)[:len(arrivals)]
        out_rng = np.random.default_rng((self.seed, 0x0CF7))
        outputs = np.minimum(
            out_rng.geometric(1.0 / self.mean_output, size=len(arrivals)),
            self.max_output,
        )
        if self.prefix_groups:
            group_rng = np.random.default_rng((self.seed, 0x9F1C))
            groups = group_rng.integers(
                0, self.prefix_groups, size=len(arrivals))
        else:
            groups = None
        block = self.block_tokens
        self._arrays = RequestArrays(
            arrival_time=arrivals,
            prompt_len=-(-prompts.astype(np.int64) // block) * block,
            output_len=outputs.astype(np.int64),
            prefix_group=groups,
        )
        return self._arrays

    def requests(self) -> list[Request]:
        """The request stream, sorted by arrival time."""
        return self.request_arrays().requests()


def load_trace(path: str, *, block_tokens: int = 64) -> list[Request]:
    """Load a request stream from a JSONL trace file.

    Each line is an object with ``arrival_time`` (seconds),
    ``prompt_len`` and ``output_len`` (tokens).  Prompt lengths are
    rounded up to ``block_tokens``; requests are sorted by arrival
    (ties broken by prompt then output length, as a tuple sort would).
    """
    arrivals: "list[float]" = []
    prompts: "list[int]" = []
    outputs: "list[int]" = []
    with open(path) as handle:
        for lineno, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                arrivals.append(float(record["arrival_time"]))
                prompts.append(int(record["prompt_len"]))
                outputs.append(int(record["output_len"]))
            except (KeyError, ValueError, TypeError) as error:
                raise ServingError(
                    f"{path}:{lineno + 1}: bad trace record: {error}"
                ) from None
    # One pass over sort keys (lexsort's last key is primary) instead
    # of sorting materialized tuples and walking the list again.
    order = np.lexsort((outputs, prompts, arrivals))
    return [
        Request(
            request_id=i,
            arrival_time=arrivals[j],
            prompt_len=_round_up(prompts[j], block_tokens),
            output_len=outputs[j],
        )
        for i, j in enumerate(order)
    ]
