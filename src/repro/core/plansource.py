"""Where an execution plan comes from.

Historically every layer re-parsed its own ``plan=`` argument: the
inference session special-cased the string ``"auto"``, the dataset
driver and the serving/cluster simulators each called
:meth:`~repro.core.plan.AttentionPlan.from_name` on whatever they were
handed.  This module is the one place that plumbing now lives:

- ``PlanSource.of("sdf")``   — a fixed plan by name or enum;
- ``PlanSource.of("auto")``  — measured selection via
  :func:`repro.core.autotune.select_plan` at resolve time.

Simulators accept a :class:`PlanSource` (or anything ``of`` accepts)
and call :meth:`PlanSource.resolve` exactly once.  A tuned-plan
artifact is not a plan: it pins the plan *and* the knobs it tuned, so
it enters a run only as a scenario's ``plan_file``
(:func:`repro.common.scenario.apply_tuned_plan`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.common.errors import PlanError
from repro.core.plan import AttentionPlan


class PlanSourceKind(enum.Enum):
    """How a :class:`PlanSource` produces its plan."""

    #: A plan fixed up front (name or enum).
    FIXED = "fixed"
    #: Measured selection among candidates at resolve time.
    AUTO = "auto"


@dataclass(frozen=True)
class PlanSource:
    """A reference to an execution plan, resolved on demand.

    >>> PlanSource.of("sdf").resolve()
    <AttentionPlan.RECOMPOSED: 'sdf'>
    >>> PlanSource.of("auto").kind
    <PlanSourceKind.AUTO: 'auto'>
    """

    kind: PlanSourceKind
    #: The fixed plan (``FIXED`` only).
    plan: "AttentionPlan | None" = None

    @classmethod
    def of(cls, value: "PlanSource | AttentionPlan | str") -> "PlanSource":
        """Coerce any accepted spelling into a :class:`PlanSource`."""
        if isinstance(value, cls):
            return value
        if isinstance(value, AttentionPlan):
            return cls(kind=PlanSourceKind.FIXED, plan=value)
        if not isinstance(value, str):
            raise PlanError(
                f"cannot build a PlanSource from {value!r}; pass a plan "
                f"name, 'auto', or an AttentionPlan"
            )
        if value.lower() == "auto":
            return cls(kind=PlanSourceKind.AUTO)
        return cls(kind=PlanSourceKind.FIXED,
                   plan=AttentionPlan.from_name(value))

    def resolve(
        self,
        *,
        model=None,
        gpu="A100",
        seq_len: int = 4096,
        batch: int = 1,
        t: int = 64,
    ) -> AttentionPlan:
        """The concrete :class:`~repro.core.plan.AttentionPlan`.

        ``FIXED`` ignores the context.  ``AUTO`` simulates the paper's
        plans at the given shape and picks the fastest feasible one —
        it needs ``model``.
        """
        if self.kind is PlanSourceKind.FIXED:
            return self.plan
        if model is None:
            raise PlanError(
                "plan='auto' needs a model/shape context to resolve"
            )
        from repro.core.autotune import select_plan

        return select_plan(
            model, gpu=gpu, seq_len=seq_len, batch=batch, t=t,
        ).plan


def resolve_plan(
    value: "PlanSource | AttentionPlan | str",
    *,
    model=None,
    gpu="A100",
    seq_len: int = 4096,
    batch: int = 1,
    t: int = 64,
) -> AttentionPlan:
    """Resolve any plan spelling in one call — the single choke point."""
    return PlanSource.of(value).resolve(
        model=model, gpu=gpu, seq_len=seq_len, batch=batch, t=t,
    )
