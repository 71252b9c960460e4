"""Speculative decoding for the serving simulator.

A speculative round runs a small *draft* model ``draft_len`` decode
steps ahead, then verifies the drafted tokens with one target-model
forward pass over all of them at once — the verify pass is shaped like
a tiny chunked prefill (``draft_len + 1`` query rows against the KV
cache), which is exactly how the cost model prices it.  Acceptance is
modeled deterministically in expectation: with acceptance rate ``a``
every round emits

``tokens_per_round = 1 + floor(a * draft_len)``

target tokens (the verified prefix plus the bonus token), so a fixed
(stream, config) pair still yields a byte-identical report — the same
determinism contract everything else in the simulator keeps.

Disabled speculation (``draft_model=None``, the default) takes the
historical single-token path untouched, so reports are byte-identical
to earlier releases; ``accept_rate=1.0`` reproduces the
non-speculative *schedule* (same finished set, same per-request token
counts) while landing ``draft_len + 1`` tokens per round — the
``serving.spec_decode_equivalence`` oracle pins that.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.errors import ServingError
from repro.common.validation import require_positive

__all__ = ["SpecDecodeConfig", "SpecDecodeRuntime", "check_spec_knobs",
           "spec_decode_runtime"]


def check_spec_knobs(draft_len: int, accept_rate: float) -> None:
    """Reject a speculation depth below 1 (``ConfigError``) or an
    acceptance rate outside [0, 1], NaN included (``ServingError``)."""
    require_positive("draft_len", draft_len)
    if not 0.0 <= accept_rate <= 1.0:
        raise ServingError(
            f"accept_rate must be in [0, 1], got {accept_rate!r}")


@dataclass(frozen=True)
class SpecDecodeConfig:
    """Scenario-level speculative decoding knobs.

    ``draft_model`` names the proposer (any registry model or a
    :class:`~repro.models.config.ModelConfig`); ``draft_len`` is the
    speculation depth γ; ``accept_rate`` the modeled per-round
    acceptance probability in [0, 1].
    """

    draft_model: object
    draft_len: int = 4
    accept_rate: float = 1.0

    def __post_init__(self) -> None:
        if self.draft_model is None:
            raise ServingError(
                "speculative decoding needs a draft_model; leave the "
                "whole config unset to disable speculation"
            )
        check_spec_knobs(self.draft_len, self.accept_rate)

    @property
    def tokens_per_round(self) -> int:
        """Deterministic expected tokens one round emits (>= 1)."""
        return 1 + int(self.accept_rate * self.draft_len)


class SpecDecodeRuntime:
    """A :class:`SpecDecodeConfig` bound to a draft-model cost model.

    The engine consumes this: ``tokens_per_round`` drives the
    scheduler's per-round KV growth, :meth:`draft_time` prices the
    ``draft_len`` sequential draft-model decode steps of one round
    over the speculating requests' pre-round KV lengths.
    """

    def __init__(self, config: SpecDecodeConfig, draft_cost) -> None:
        self.config = config
        self.draft_cost = draft_cost
        self.draft_len = config.draft_len
        self.tokens_per_round = config.tokens_per_round

    def draft_time(self, draft_kv: "list[int]") -> float:
        """Draft-model time of one round (γ decode steps, priced at the
        round's starting KV lengths — bucketing absorbs the within-
        round growth)."""
        if not draft_kv:
            return 0.0
        return self.draft_len * self.draft_cost.decode_step_time(draft_kv)


def spec_decode_runtime(draft_model, gpu, *, draft_len: int,
                        accept_rate: float, plan, dtype, t: int,
                        kv_bucket: int, costs: "dict | None" = None):
    """The :class:`SpecDecodeRuntime` a simulator's engine runs, or
    ``None`` without a ``draft_model``.

    The draft gets its own step-cost model on the target's GPU, plan,
    dtype and KV block size (``kv_bucket``), so its γ decode steps per
    round are priced through the identical kernel stack.  It is small
    and replicates across a sharded replica's group, so it is priced
    unsharded on one GPU.  ``draft_len`` and ``accept_rate`` are
    checked even without a draft model, so a bad value never passes
    silently.
    """
    check_spec_knobs(draft_len, accept_rate)
    if draft_model is None:
        return None
    from repro.models.config import get_model
    from repro.serving.costmodel import StepCostModel, shared_cost_model

    config = SpecDecodeConfig(
        draft_model=get_model(draft_model),
        draft_len=draft_len,
        accept_rate=accept_rate,
    )
    return SpecDecodeRuntime(config, shared_cost_model(
        costs, StepCostModel, config.draft_model, gpu, plan=plan,
        dtype=dtype, t=t, kv_bucket=kv_bucket))


def verification_oracles():
    """Oracle pinning schedule and engine equivalence at
    ``accept_rate=1.0``.

    For every serving-family case a seeded synthetic request stream
    runs twice through the event-loop simulator: once plain, once
    speculating with full acceptance.  The speculative run must finish
    the same request set with the same per-request token counts —
    speculation reshapes *when* tokens land, never *which* tokens
    exist.  (Completion *order* is deliberately not compared: rounds
    compress staggered requests' timelines unevenly, so relative
    finish order is a timing property, not a schedule one.)
    actual/expected compare the per-request generated counts in
    request-id order under the EXACT contract.  The speculative stream
    also runs under the epoch engine, which must report what the event
    loop does (:func:`repro.verify.equivalence.check_equivalence`).
    """
    import numpy as np

    from repro.common.dtypes import DType
    from repro.verify.contracts import EXACT
    from repro.verify.equivalence import Cell, check_equivalence
    from repro.verify.invariants import Violation
    from repro.verify.registry import OracleSpec

    def run(case):  # noqa: C901 - linear scenario setup
        from repro.models.config import (
            AttentionKind,
            AttentionSpec,
            ModelConfig,
        )
        from repro.core.plansource import PlanSource
        from repro.serving.requests import Request
        from repro.serving.simulator import ServingSimulator

        seed = int(case.params.get("case_seed", 0))
        rng = np.random.default_rng((seed, 0x5DEC))
        tiny = ModelConfig(
            "tiny-causal", num_layers=2, d_model=128, num_heads=4,
            d_ff=256,
            attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
        )
        draft = ModelConfig(
            "tiny-draft", num_layers=1, d_model=64, num_heads=2,
            d_ff=128,
            attention=(AttentionSpec(AttentionKind.DENSE_CAUSAL),),
        )
        n = int(rng.integers(3, 9))
        requests = [
            Request(
                request_id=i,
                arrival_time=float(rng.uniform(0.0, 0.05)) * i,
                prompt_len=int(rng.integers(32, 257)),
                output_len=int(rng.integers(2, 33)),
            )
            for i in range(n)
        ]
        draft_len = int(rng.integers(1, 9))

        sims = []

        def simulate(cell, **spec_kwargs):
            sims.append(ServingSimulator(
                tiny, "A100", plan=PlanSource.of("baseline"),
                requests=requests,
                chunk_tokens=256, max_batch=4, engine=cell.engine,
                **spec_kwargs,
            ))
            return sims[-1].run()

        def outcome(sim):
            finished = {r.request_id for r in sim.retained
                        if r.finish_time is not None}
            generated = {r.request_id: r.generated
                         for r in sim.retained}
            return generated, finished

        simulate(Cell("event"))
        violations = check_equivalence(
            lambda cell: simulate(cell, draft_model=draft,
                                  draft_len=draft_len, accept_rate=1.0),
            (Cell("event"), Cell("epoch")))
        (plain_counts, plain_done), (spec_counts, spec_done) = (
            outcome(sim) for sim in sims[:2])
        if plain_done != spec_done:
            violations.append(Violation(
                "finished_set",
                f"finished sets diverged: {sorted(plain_done)} vs "
                f"{sorted(spec_done)}"))
        ids = sorted(plain_counts)
        actual = np.asarray(
            [spec_counts.get(i, -1) for i in ids], dtype=np.float64)
        expected = np.asarray(
            [plain_counts[i] for i in ids], dtype=np.float64)
        return {"actual": actual, "expected": expected,
                "violations": violations}

    return [
        OracleSpec(
            name="serving.spec_decode_equivalence",
            family="serving",
            run=run,
            contracts={DType.FP32: EXACT, DType.FP16: EXACT},
            description="accept_rate=1.0 speculative runs reproduce the "
                        "non-speculative schedule: same finished set and "
                        "per-request token counts, and the same report "
                        "under both engines",
        ),
    ]
