"""Softmax recomposition — the paper's primary contribution.

- :mod:`repro.core.decomposition` — the pure math of Eq. 2 and a
  high-level :func:`~repro.core.decomposition.decomposed_softmax`;
- :mod:`repro.core.plan` — the execution plans the evaluation compares
  (baseline / SD / SDF and the ablation variants), each a
  :class:`~repro.core.plan.PlanRecord` of graph rewrites;
- :mod:`repro.core.recompose` — those rewrites as passes over the
  :mod:`repro.core.graph` role IR, :func:`plan_graph` and the
  attention-matrix sweep counts it yields (Fig. 6);
- :mod:`repro.core.online` — online (single-pass) softmax [21], the
  closest prior software optimisation, for comparison;
- :mod:`repro.core.backward` — the softmax derivative from outputs
  only (Eq. 3), showing recomposition applies to training (Section 6).
"""

from repro.core.autotune import INFEASIBLE, PlanChoice, select_plan
from repro.core.backward import softmax_backward
from repro.core.decomposition import (
    SoftmaxDecomposition,
    decomposed_softmax,
)
from repro.core.graph import Buffer, KernelGraph, Node
from repro.core.online import online_softmax
from repro.core.plan import AttentionPlan, PlanRecord
from repro.core.plansource import (
    PlanSource,
    PlanSourceKind,
    resolve_plan,
)
from repro.core.recompose import (
    attention_matrix_sweeps,
    build_kernels,
    decompose_softmax_pass,
    fuse_softmax_pass,
    plan_graph,
    recompose,
    sda_graph,
)

__all__ = [
    "AttentionPlan",
    "PlanRecord",
    "attention_matrix_sweeps",
    "PlanSource",
    "PlanSourceKind",
    "resolve_plan",
    "PlanChoice",
    "select_plan",
    "INFEASIBLE",
    "SoftmaxDecomposition",
    "decomposed_softmax",
    "online_softmax",
    "softmax_backward",
    "KernelGraph",
    "Node",
    "Buffer",
    "sda_graph",
    "plan_graph",
    "build_kernels",
    "decompose_softmax_pass",
    "fuse_softmax_pass",
    "recompose",
]
