"""Per-step latency from the kernel-level cost model.

A continuous-batching engine step runs every layer once over the
step's *combined* token batch: the projections, feed-forward and
element-wise kernels see the concatenation of all tokens in the step,
while attention runs per request (each request attends to its own KV
cache).  :class:`StepCostModel` prices a step accordingly:

``step = num_layers * mlp(M) + sum_r attention(m_r, kv_r)``

where ``M`` is the step's total token count.  Both components come
from the same kernels :class:`~repro.models.generation.GenerationSession`
simulates — the serving layer adds no new timing model, only the
composition — and both are memoized, because a simulation replays the
same shapes millions of times.  Decode KV lengths are bucketed up to
the KV block size before lookup: the cache is read at block
granularity, so the padded length is what the kernel actually streams.
"""

from __future__ import annotations

import inspect

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.core.autotune import PAPER_CANDIDATES
from repro.core.plan import AttentionPlan
from repro.core.recompose import plan_graph
from repro.gpu.costmodel import time_kernel
from repro.gpu.device import Device
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.softmax import longest_row
from repro.models.config import ModelConfig, _check_tp_shards, get_model
from repro.models.generation import (
    STEP_GRAPHS,
    attended_length,
    attention_step_kernels,
    mlp_step_kernels,
    step_shape_kind,
)
from repro.serving.requests import RequestArrays
from repro.serving.specdecode import SpecDecodeConfig


#: The ``costs`` pool entry holding the pool's sub-graph price memos;
#: every other entry is a priced model (:func:`shared_cost_model`).
SHAPES = "shapes"


def check_serving_plan(plan: AttentionPlan) -> None:
    """Raise :class:`ServingError` unless ``plan`` is one of the paper's
    plans: the related-work plans (online, turbo, fused-mha, flash)
    have no rectangular prefill kernels."""
    if plan not in PAPER_CANDIDATES:
        supported = ", ".join(p.value for p in PAPER_CANDIDATES)
        raise ServingError(
            f"serving simulation supports plans {supported}; got "
            f"{plan.value!r}"
        )


class StepCostModel:
    """Memoized engine-step latency for one (model, gpu, plan).

    Each memo is keyed by the sub-graph it prices:

    - MLP on (model, gpu, dtype, tp, ep), then ``m``;
    - attention on (model, gpu, dtype, tp), the row's role graph
      (``STEP_GRAPHS``) and ``t`` only where that graph holds the
      ``ir`` role, then ``(layer, m, attended)``: the row's
      :func:`~repro.models.generation.attended_length`, the keys its
      kernels see.

    A pooled model shares these memos with its pool
    (:func:`shared_cost_model`).  The step loops read the MLP memo and
    a front memo keyed by the raw ``(layer, m, kv)``, one dict ``.get``
    per term; a term missing there is read from its graph's shape memo
    at the attended length before kernels are simulated.

    >>> cost = StepCostModel("gpt-neo-1.3b", "a100", plan="sdf")
    >>> cost.step_time(prefill=[(512, 512)], decode_kv=[700, 1400]) > 0
    True
    """

    def __init__(
        self,
        model: "ModelConfig | str",
        gpu: "GPUSpec | str",
        *,
        plan: "AttentionPlan | str" = AttentionPlan.BASELINE,
        dtype: DType = DType.FP16,
        t: int = 64,
        kv_bucket: int = 64,
        tp_shards: int = 1,
        ep_shards: int = 1,
    ) -> None:
        self.model = get_model(model)
        self.gpu = get_gpu(gpu)
        self.plan = AttentionPlan.from_name(plan)
        check_serving_plan(self.plan)
        require_positive("t", t)
        require_positive("kv_bucket", kv_bucket)
        self.dtype = dtype
        self.t = t
        self.kv_bucket = kv_bucket
        #: Tensor-parallel shards the kernels are sized for (1 = the
        #: whole model on one GPU).  Collectives are *not* priced here
        #: — :class:`repro.cluster.costmodel.ShardedStepCostModel`
        #: composes them on top.
        _check_tp_shards(self.model, tp_shards)
        self.tp_shards = tp_shards
        #: Expert-parallel shards for MoE models (1 = all experts
        #: resident).  Like TP, only the compute share is priced here;
        #: the dispatch/combine all-to-alls are composed by
        #: :class:`repro.cluster.costmodel.ShardedStepCostModel`.
        from repro.models.moe import check_ep_shards

        check_ep_shards(self.model, ep_shards)
        self.ep_shards = ep_shards
        # One representative layer index per distinct attention spec.
        self._groups = [(layer, count)
                        for layer, _, count in self.model.layer_groups()]
        self._graphs = {kind: graph_of(self.plan)
                        for kind, graph_of in STEP_GRAPHS.items()}
        self._grains: dict[int, tuple[int, int]] = {}
        self._mlp_priced = self._attn_priced = 0
        # A private model keeps one memo per term type; every price in
        # it is its own.  :meth:`_share` points a pooled model at its
        # pool's memos.  A key ``(layer, m, kv)`` prices the attended
        # length of ``kv``, which is its own attended length, so raw
        # and attended keys share a memo without clashing.
        self._mlp_cache: dict[int, float] = {}
        self._attn_cache: dict[tuple[int, int, int], float] = {}
        self._attn_tables = dict.fromkeys(STEP_GRAPHS, self._attn_cache)

    def _share(self, tables: dict) -> None:
        """Price through ``tables``, one ``{shape: price}`` memo per
        sub-graph key, each found or added there: the MLP memo (keyed
        by ``m``) and one attention memo per step shape kind (keyed by
        ``(layer, m, attended)``)."""
        fields = (self.model, self.gpu, self.dtype, self.tp_shards)
        self._mlp_cache = tables.setdefault(
            ("mlp", *fields, self.ep_shards), {})
        self._attn_tables = {}
        for kind, graph in self._graphs.items():
            # Only the decomposed roles read ``t``, and every graph
            # holding them keeps a standalone IR.
            self._attn_tables[kind] = tables.setdefault(
                ("attention", *fields, graph,
                 self.t if "ir" in graph.roles else None), {})
        # The step loops read every attention term, at its raw KV, from
        # the prefill memo: a decode or windowed price depends on its
        # shape alone, so it is the same for every model sharing that
        # memo.
        self._attn_cache = self._attn_tables["prefill"]

    def _simulate(self, kernels) -> float:
        # ``Profile.total_time`` of the kernels run on a device: the
        # same sum in the same order, without the device.
        return sum(time_kernel(self.gpu, kernel.launch_spec(self.gpu)).time
                   for kernel in kernels)

    def mlp_time(self, m_tokens: int) -> float:
        """One layer's non-attention time for ``m_tokens`` batched tokens."""
        cached = self._mlp_cache.get(m_tokens)
        if cached is None:
            pre, post = mlp_step_kernels(self.model, m_tokens=m_tokens,
                                         dtype=self.dtype, prefix="step",
                                         tp_shards=self.tp_shards,
                                         ep_shards=self.ep_shards)
            cached = self._mlp_cache[m_tokens] = self._simulate(pre + post)
            self._mlp_priced += 1
        return cached

    def attention_time(self, layer: int, m_tokens: int, kv_len: int) -> float:
        """One layer's attention time: ``m_tokens`` queries vs ``kv_len``."""
        key = (layer, m_tokens, kv_len)
        cached = self._attn_cache.get(key)
        if cached is None:
            # The shape may be priced already: at another raw KV with
            # the same attended length, or (a decode or windowed term)
            # by a model of another plan or ``t``.
            spec = self.model.layer_attention(layer)
            kind = step_shape_kind(spec, m_tokens)
            shape = (layer, m_tokens, attended_length(
                spec, self._graphs[kind], m_tokens=m_tokens, kv_len=kv_len,
                t=self.t))
            table = self._attn_tables[kind]
            cached = table.get(shape)
            if cached is None:
                cached = table[shape] = self._simulate(attention_step_kernels(
                    self.model, layer, m_tokens=m_tokens, kv_len=kv_len,
                    dtype=self.dtype, plan=self.plan, t=self.t,
                    prefix="step", tp_shards=self.tp_shards,
                ))
                self._attn_priced += 1
            self._attn_cache[key] = cached
        return cached

    def verify_grain(self, m_tokens: int) -> "tuple[int, int]":
        """``(step, below)``: where the price of an ``m_tokens``-row
        prefill-shaped entry (a verify row) can change with its KV.

        Every layer's attended length is constant between two KV
        lengths at or above ``below`` (the widest local window plus
        ``m_tokens - 1``; 0 without one) that round up to the same
        multiple of ``step`` (``t`` under a decomposed prefill graph,
        else 1).  Worked out once per width.
        """
        grain = self._grains.get(m_tokens)
        if grain is None:
            step = self.t if "ir" in self._graphs["prefill"].roles else 1
            below = max((spec.window + m_tokens - 1
                         for _, spec, _ in self.model.layer_groups()
                         if step_shape_kind(spec, m_tokens) == "windowed"),
                        default=0)
            grain = self._grains[m_tokens] = (step, below)
        return grain

    def step_time(
        self,
        *,
        prefill: "list[tuple[int, int]] | None" = None,
        decode_kv: "list[int] | None" = None,
    ) -> float:
        """Latency of one engine step, in seconds.

        ``prefill`` lists ``(chunk_tokens, kv_len_after_chunk)`` per
        prefilling request; ``decode_kv`` lists the KV length *after*
        the step (cache including the token being generated) per
        decoding request.

        The terms accumulate group-major, prefill entries before decode
        entries, each read straight from the memo table (a miss prices
        it through :meth:`attention_time`).  A speculative epoch calls
        this once per run of rounds whose verify entries price alike
        (:meth:`verify_grain`).
        """
        prefill = prefill or ()
        total_tokens = len(decode_kv) if decode_kv else 0
        for m_tokens, _ in prefill:
            total_tokens += m_tokens
        if total_tokens == 0:
            return 0.0
        bucket = self.kv_bucket
        buckets = ([-(-kv // bucket) * bucket for kv in decode_kv]
                   if decode_kv else ())
        time = self.model.num_layers * self.mlp_time(total_tokens)
        cache_get = self._attn_cache.get
        for layer, count in self._groups:
            for m_tokens, kv_len in prefill:
                value = cache_get((layer, m_tokens, kv_len))
                if value is None:
                    value = self.attention_time(layer, m_tokens, kv_len)
                time += count * value
            for bucketed in buckets:
                value = cache_get((layer, 1, bucketed))
                if value is None:
                    value = self.attention_time(layer, 1, bucketed)
                time += count * value
        return time

    def decode_step_time(self, decode_kv: "list[int]") -> float:
        """:meth:`step_time` for a pure-decode step, as a hot path.

        Bit-identical to ``step_time(decode_kv=decode_kv)``: the same
        memo walk over the same per-(layer, bucket) terms, in the same
        group-major, request-minor order, minus the keyword and prefill
        handling.  The epoch-batched serving engine prices every plain
        decode segment through here, so the per-call constant is what
        bounds simulation throughput.  That is why this loop is not
        shared with :meth:`step_time`: routing both through one loop
        gives the same floats but measurably slows the decode-heavy
        serving benchmark.
        """
        m = len(decode_kv)
        if m == 0:
            return 0.0
        bucket = self.kv_bucket
        buckets = [-(-kv // bucket) * bucket for kv in decode_kv]
        time = self.model.num_layers * self.mlp_time(m)
        cache_get = self._attn_cache.get
        for layer, count in self._groups:
            for bucketed in buckets:
                value = cache_get((layer, 1, bucketed))
                if value is None:
                    value = self.attention_time(layer, 1, bucketed)
                time += count * value
        return time

    def step_cost(
        self,
        *,
        prefill: "list[tuple[int, int]] | None" = None,
        decode_kv: "list[int] | None" = None,
    ) -> "tuple[float, float]":
        """One engine step's ``(total, comm)`` latency in seconds.

        The pricing protocol the serving engine speaks, shared with the
        sharded and straggler models; one GPU communicates nothing.
        """
        return self.step_time(prefill=prefill, decode_kv=decode_kv), 0.0

    def decode_step_cost(self, decode_kv: "list[int]") -> "tuple[float, float]":
        """:meth:`step_cost` for a pure-decode step, as a hot path."""
        return self.decode_step_time(decode_kv), 0.0

    def cache_sizes(self) -> tuple[int, int]:
        """(mlp, attention) shapes this model priced itself — for
        diagnostics.  A shape a pool-mate priced first is not counted,
        so summed over a pool's models this counts each shape once."""
        return self._mlp_priced, self._attn_priced


def check_softmax_rows(stream, config) -> None:
    """Raise :class:`ServingError` when a request of ``stream`` needs a
    softmax row longer than the monolithic row softmax holds on the
    :class:`~repro.serving.config.EngineConfig`'s GPU
    (:func:`~repro.kernels.softmax.longest_row`).

    Decode runs that kernel under every plan, over the bucketed KV at
    the start of the last round (a plain decode step is a one-token
    round; a speculative draft decodes there too); prefill and verify
    rows run it under a plan whose graph keeps the ``softmax`` node.
    Requests the KV pool rejects are never priced and pass, as do
    models whose every layer is a local window.
    """
    arrays = isinstance(stream, RequestArrays)
    if arrays:
        prompt, output = stream.prompt_len, stream.output_len
    else:
        prompt = np.array([r.prompt_len for r in stream], dtype=np.int64)
        output = np.array([r.output_len for r in stream], dtype=np.int64)
    limit, bucket = longest_row(config.gpu, config.dtype), config.block_tokens
    if not len(prompt) or -(-(prompt.max() + output.max() - 1)
                            // bucket) * bucket <= limit or all(
            step_shape_kind(spec, 1) == "windowed"
            for _, spec, _ in config.model.layer_groups()):
        return
    tau = 1 if config.draft_model is None else SpecDecodeConfig(
        config.draft_model, config.draft_len,
        config.accept_rate).tokens_per_round
    # Tokens generated when the last decode round starts.
    start = 1 + tau * ((output - 2) // tau)
    rows = np.where(output > 1, -(-(prompt + start) // bucket) * bucket, 0)
    if "softmax" in plan_graph(config.plan).roles:
        rows = np.maximum(rows, prompt + output - 1)
    over = (rows > limit) & (-(-(prompt + output) // bucket)
                             <= config.kv_pool().total_blocks)
    if over.any():
        index = int(np.argmax(over))
        raise ServingError(
            f"request {index if arrays else stream[index].request_id} "
            f"needs a {int(rows[index])}-key softmax row, but the "
            f"monolithic row softmax holds at most {limit} keys on "
            f"{config.gpu.name}: "
            f"decode runs it under every plan, and plans without the "
            f"decomposition run it for prefill and verify rows too"
        )


def shared_cost_model(costs: "dict | None", cls, model, gpu, **fields):
    """``cls(model, gpu, **fields)``, built once per pricing key.

    Step prices are a pure function of the constructor arguments, so
    every consumer of one key — the replicas of a cluster run, a
    speculative run's draft, a tuner's evaluations — shares one model
    and its memo.  The key is ``cls`` plus every constructor argument,
    defaults filled in from the signature, so a new pricing field
    joins the key by itself.  Engine knobs (chunk size, batch cap,
    routing policy) are not constructor arguments and never split it.

    Below the models, every model of a pool prices through the pool's
    sub-graph memos (``costs[SHAPES]``; see :class:`StepCostModel`), so
    models whose keys differ only in fields a term does not read —
    ``plan`` and ``t`` for MLP and decode rows, ``t`` under the
    baseline graph, ``pp``, ``kv_bucket``, interconnect and algorithm —
    price that term once between them.

    ``costs`` is a plain dict owned by one run or one tuner call; a
    miss builds the model and adds it, and ``None`` builds a private
    one.  There is deliberately no process-global pool: a traced run
    emits one ``kernel`` span per pricing call, so its trace would
    depend on what else ran earlier in the process.
    """
    if costs is None:
        return cls(model, gpu, **fields)
    bound = inspect.signature(cls).bind(model, gpu, **fields)
    bound.apply_defaults()
    key = (cls, *bound.arguments.items())
    cost = costs.get(key)
    if cost is None:
        cost = costs[key] = cls(model, gpu, **fields)
        cost._share(costs.setdefault(SHAPES, {}))
    return cost


def verification_oracles():
    """Oracle checking the memoized step-cost composition of a pooled
    model against a direct, cache-free recomposition from the layer
    kernels, plus the serving-specific invariants (memo stability,
    empty-step zero, request-order invariance, KV bucketing
    idempotence)."""
    import numpy as np

    from repro.models.config import AttentionKind, AttentionSpec
    from repro.verify.contracts import SERVING_COST
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec

    tiny = {
        name: ModelConfig(name, num_layers=2, d_model=128, num_heads=4,
                          d_ff=256, attention=specs)
        for name, specs in (
            ("tiny-dense", (AttentionSpec(AttentionKind.DENSE),)),
            ("tiny-causal", (AttentionSpec(AttentionKind.DENSE_CAUSAL),)),
            ("tiny-mixed", (AttentionSpec(AttentionKind.DENSE),
                            AttentionSpec(AttentionKind.DENSE_CAUSAL))),
            # A window shorter than almost every drawn chunk and KV
            # length, so most rows are clipped to it.
            ("tiny-local", (AttentionSpec(AttentionKind.DENSE_CAUSAL),
                            AttentionSpec(AttentionKind.LOCAL_CAUSAL,
                                          window=24))),
        )
    }

    def direct_step_time(cost, prefill, decode_kv):
        """``step_time`` recomposed without any memoization."""
        from repro.models.generation import (
            attention_step_kernels as attn_kernels,
            mlp_step_kernels as mlp_kernels,
        )

        device = Device(cost.gpu)

        def simulate(kernels):
            device.reset()
            for kernel in kernels:
                kernel.simulate(device)
            return device.profile.total_time()

        model = cost.model
        total_tokens = sum(m for m, _ in prefill) + len(decode_kv)
        if total_tokens == 0:
            return 0.0
        pre, post = mlp_kernels(model, m_tokens=total_tokens,
                                dtype=cost.dtype, prefix="step")
        time = model.num_layers * simulate(pre + post)

        def attention(layer, m_tokens, kv_len):
            return simulate(attn_kernels(
                model, layer, m_tokens=m_tokens, kv_len=kv_len,
                dtype=cost.dtype, plan=cost.plan, t=cost.t, prefix="step",
            ))

        for layer, _, count in model.layer_groups():
            for m_tokens, kv_len in prefill:
                time += count * attention(layer, m_tokens, kv_len)
            for kv_len in decode_kv:
                bucketed = -(-kv_len // cost.kv_bucket) * cost.kv_bucket
                time += count * attention(layer, 1, bucketed)
        return time

    def run(case):
        p = case.params
        prefill = [tuple(entry) for entry in p["prefill"]]
        decode_kv = list(p["decode_kv"])
        # The model under test comes from a pool that already priced
        # the same step under the next plan and under another ``t``, so
        # every term it shares is read from a pool-mate's pricing.
        costs, plans = {}, list(PAPER_CANDIDATES)
        other = plans[(plans.index(AttentionPlan.from_name(p["plan"])) + 1)
                      % len(plans)]
        for plan, t in ((other, p["t"]), (p["plan"], 2 * p["t"]),
                        (p["plan"], p["t"])):
            cost = shared_cost_model(costs, StepCostModel, tiny[p["model"]],
                                     p["gpu"], plan=plan, t=t,
                                     kv_bucket=p["kv_bucket"])
            first = cost.step_time(prefill=prefill, decode_kv=decode_kv)
        violations = []
        second = cost.step_time(prefill=prefill, decode_kv=decode_kv)
        if second != first:
            violations.append(Violation(
                "memo_stable",
                f"memoized recomputation changed: {first!r} -> {second!r}",
            ))
        if cost.step_time() != 0.0:
            violations.append(Violation(
                "empty_step_zero", "a step with no requests must cost 0"))
        permuted = cost.step_time(prefill=list(reversed(prefill)),
                                  decode_kv=list(reversed(decode_kv)))
        if not np.isclose(permuted, first, rtol=1e-9, atol=1e-15):
            violations.append(Violation(
                "order_invariance",
                f"request order changed the step cost: {first!r} vs "
                f"{permuted!r}",
            ))
        pre_bucketed = [-(-kv // cost.kv_bucket) * cost.kv_bucket
                        for kv in decode_kv]
        if cost.step_time(prefill=prefill, decode_kv=pre_bucketed) != first:
            violations.append(Violation(
                "kv_bucketing",
                "pre-bucketed decode KV lengths must price identically",
            ))
        expected = direct_step_time(cost, prefill, decode_kv)
        if not (np.isfinite(first) and first >= 0.0):
            violations.append(Violation(
                "nonnegative_finite", f"step cost {first!r}"))
        return {
            "actual": np.float64(first),
            "expected": np.float64(expected),
            "violations": violations,
        }

    return [
        OracleSpec(
            name="serving.step_cost_vs_direct",
            family="serving",
            run=run,
            contracts={DType.FP32: SERVING_COST, DType.FP16: SERVING_COST},
            description="memoized StepCostModel.step_time vs direct "
                        "cache-free kernel composition",
        ),
    ]
