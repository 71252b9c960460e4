"""Automatic execution-plan selection.

Given a model / device / shape, simulate each candidate plan and pick
the fastest — what a deployment engine would do ahead of time.  Plans
that cannot run at the configuration (TurboTransformers beyond
L = 1024, the fully fused MHA kernel beyond its shared-memory limit,
dense-only plans on sparse models) are skipped rather than failed.

:data:`PAPER_CANDIDATES` (the ``plan="auto"`` candidates and the plans
serving prices) and :data:`ALL_CANDIDATES` (the full comparison) are
the only definitions of the two plan sets.  Pass
``candidates=ALL_CANDIDATES`` to :func:`select_plan` to also consider
the related-work and forward-looking kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

from repro.common.errors import KernelError, PlanError
from repro.core.plan import AttentionPlan


class _Infeasible:
    """Sentinel latency for a plan that cannot run at a configuration.

    Earlier releases used ``None``, which callers were tempted to
    truthiness-test — misreading a legitimate 0.0-second latency (a
    free cached plan) as infeasible.  The sentinel forces the explicit
    ``is INFEASIBLE`` test: it refuses to be used as a number or a
    boolean.
    """

    _instance: "_Infeasible | None" = None

    def __new__(cls) -> "_Infeasible":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "INFEASIBLE"

    def __bool__(self) -> bool:
        raise PlanError(
            "INFEASIBLE has no truth value; test `latency is INFEASIBLE` "
            "(or use PlanChoice.feasible)"
        )


#: Marker stored in :attr:`PlanChoice.latencies` for plans that cannot
#: run at the requested configuration.
INFEASIBLE = _Infeasible()

#: The paper's own plans (numerically identical, always applicable).
PAPER_CANDIDATES = (
    AttentionPlan.BASELINE,
    AttentionPlan.DECOMPOSED,
    AttentionPlan.RECOMPOSED,
)

#: The paper's plans and the related-work/forward-looking ones.
ALL_CANDIDATES = PAPER_CANDIDATES + (
    AttentionPlan.ONLINE,
    AttentionPlan.TURBO,
    AttentionPlan.FULLY_FUSED,
    AttentionPlan.FLASH,
)


@dataclass(frozen=True)
class PlanChoice:
    """Outcome of plan selection."""

    plan: AttentionPlan
    #: Candidate -> simulated latency (seconds); :data:`INFEASIBLE`
    #: for plans that cannot run at the configuration.
    latencies: "dict[AttentionPlan, Union[float, _Infeasible]]"

    @property
    def feasible(self) -> dict[AttentionPlan, float]:
        """Only the candidates that could run."""
        return {p: t for p, t in self.latencies.items()
                if t is not INFEASIBLE}

    def speedup_over(self, plan: AttentionPlan) -> float:
        """How much the chosen plan beats ``plan`` (must be feasible)."""
        return self.latencies[plan] / self.latencies[self.plan]


def select_plan(
    model,
    *,
    gpu="A100",
    seq_len: int = 4096,
    batch: int = 1,
    t: int = 64,
    candidates: Sequence[AttentionPlan] = PAPER_CANDIDATES,
) -> PlanChoice:
    """Simulate every candidate and return the fastest feasible plan."""
    from repro.models.runtime import InferenceSession

    latencies: "dict[AttentionPlan, Union[float, _Infeasible]]" = {}
    for plan in candidates:
        try:
            result = InferenceSession(
                model, gpu=gpu, plan=plan, seq_len=seq_len, batch=batch, t=t
            ).simulate()
        except (PlanError, KernelError):
            latencies[plan] = INFEASIBLE
            continue
        latencies[plan] = result.total_time
    feasible = {p: t for p, t in latencies.items() if t is not INFEASIBLE}
    if not feasible:
        raise PlanError(
            f"no candidate plan is feasible for {model!r} at "
            f"seq_len={seq_len}"
        )
    best = min(feasible, key=feasible.get)
    return PlanChoice(plan=best, latencies=latencies)
