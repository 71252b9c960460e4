"""Where an execution plan comes from.

Historically every layer re-parsed its own ``plan=`` argument: the
inference session special-cased the string ``"auto"``, the dataset
driver and the serving/cluster simulators each called
:meth:`~repro.core.plan.AttentionPlan.from_name` on whatever they were
handed, and a tuned-plan artifact had no way in at all.  This module
is the one place that plumbing now lives:

- ``PlanSource.of("sdf")``        — a fixed plan by name or enum;
- ``PlanSource.of("auto")``       — measured selection via
  :func:`repro.core.autotune.select_plan` at resolve time;
- ``PlanSource.of("plan.json")``  — the winner recorded in a
  ``repro.tuned_plan/v1`` artifact (any argument that looks like a
  path: contains a separator or ends in ``.json``).

Simulators accept a :class:`PlanSource` (or anything ``of`` accepts)
and call :meth:`PlanSource.resolve` exactly once.
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
    #: The winner of a ``repro.tuned_plan/v1`` artifact.
    ARTIFACT = "artifact"


def _looks_like_path(name: str) -> bool:
    return "/" in name or "\\" in name or name.endswith(".json")


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
    #: The artifact path (``ARTIFACT`` only).
    path: "str | None" = None

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
                f"name, 'auto', an artifact path, or an AttentionPlan"
            )
        if value.lower() == "auto":
            return cls(kind=PlanSourceKind.AUTO)
        if _looks_like_path(value):
            return cls(kind=PlanSourceKind.ARTIFACT, path=value)
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
        candidates=None,
    ) -> AttentionPlan:
        """The concrete :class:`~repro.core.plan.AttentionPlan`.

        ``FIXED`` ignores the context.  ``AUTO`` simulates the
        ``candidates`` (default: the paper's plans) at the given shape
        and picks the fastest feasible one — it needs ``model``.
        ``ARTIFACT`` loads the tuned-plan document and returns its
        winner; corrupted or version-mismatched files raise
        :class:`~repro.common.errors.ArtifactError`.
        """
        if self.kind is PlanSourceKind.FIXED:
            return self.plan
        if self.kind is PlanSourceKind.AUTO:
            if model is None:
                raise PlanError(
                    "plan='auto' needs a model/shape context to resolve"
                )
            from repro.core.autotune import PAPER_CANDIDATES, select_plan

            return select_plan(
                model, gpu=gpu, seq_len=seq_len, batch=batch, t=t,
                candidates=candidates or PAPER_CANDIDATES,
            ).plan
        # ARTIFACT
        from repro.tune.artifact import load_tuned_plan

        return AttentionPlan.from_name(
            load_tuned_plan(self.path).winner_config["plan"])

    def describe(self) -> str:
        """Short provenance string for reports."""
        if self.kind is PlanSourceKind.FIXED:
            return self.plan.value
        if self.kind is PlanSourceKind.AUTO:
            return "auto"
        return f"artifact:{self.path}"


def resolve_plan(
    value: "PlanSource | AttentionPlan | str",
    *,
    model=None,
    gpu="A100",
    seq_len: int = 4096,
    batch: int = 1,
    t: int = 64,
    candidates=None,
) -> AttentionPlan:
    """Resolve any plan spelling in one call — the single choke point."""
    return PlanSource.of(value).resolve(
        model=model, gpu=gpu, seq_len=seq_len, batch=batch, t=t,
        candidates=candidates,
    )
