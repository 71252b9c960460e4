"""Softmax recomposition as kernel-graph rewrite passes.

Every plan is a rewrite of one baseline graph (:func:`sda_graph`,
``qk -> softmax -> av``) over kernel roles:

- :func:`decompose_softmax_pass` — replaces each row-softmax node with
  ``ls -> ir -> gs`` plus the m'/d'/r' statistic buffers (Section 3.2);
- :func:`fuse_ls_pass` / :func:`fuse_gs_pass` — merge LS into the
  ``qk`` MatMul producing its input (``qk_ls``) and GS into the ``av``
  MatMul consuming its output (``gs_av``) (Section 3.3);
- a whole-block plan replaces the graph with one ``fused-mha`` or
  ``flash`` node.

:func:`plan_graph` applies the passes a
:class:`~repro.core.plan.PlanRecord` selects, once per process.  Each
shape kind (dense block, block-sparse block, serving-step prefill,
decode or windowed row) then maps roles to kernels with one table
(:func:`build_kernels`); the graph is shared by all of them, so dense
and block-sparse attention run the same rewrites.
"""

from __future__ import annotations

import functools
from typing import Callable, Mapping

from repro.common.errors import PlanError
from repro.core.graph import KernelGraph, Node
from repro.core.plan import AttentionPlan, PlanRecord

#: Node role of each monolithic softmax variant.
SOFTMAX_ROLES = {"row": "softmax", "online": "online_softmax",
                 "batched": "batched_softmax"}


def sda_graph(softmax: str = "row") -> KernelGraph:
    """The unfused SDA block: ``qk -> <softmax> -> av``.

    Buffers: ``Q``/``K_T``/``V`` in, ``X`` (raw attention matrix),
    ``Y`` (softmaxed attention matrix), ``O`` out.
    """
    graph = KernelGraph()
    graph.add_buffer("X", matrix=True)
    graph.add_buffer("Y", matrix=True)
    graph.add_node("qk", ("Q", "K_T"), ("X",))
    graph.add_node(SOFTMAX_ROLES[softmax], ("X",), ("Y",))
    graph.add_node("av", ("Y", "V"), ("O",))
    return graph


def decompose_softmax_pass(graph: KernelGraph) -> int:
    """Replace every row-softmax node with LS -> IR -> GS.

    Returns the number of softmax nodes decomposed.  The statistic
    buffers are named after the softmax's input buffer
    (``<X>.m_prime`` etc.) so repeated decompositions stay distinct.
    Online and batched softmax nodes have different internals and are
    left alone.
    """
    rewritten = 0
    for node in graph.nodes:
        if node.role != "softmax":
            continue
        (x_name,) = node.inputs
        (y_name,) = node.outputs
        x_prime, m_prime, d_prime, r_prime = (
            f"{x_name}.{stat}"
            for stat in ("x_prime", "m_prime", "d_prime", "r_prime"))
        graph.add_buffer(x_prime, matrix=graph.buffers[x_name].matrix)
        graph.replace_nodes([node], [
            Node("ls", (x_name,), (x_prime, m_prime, d_prime)),
            Node("ir", (m_prime, d_prime), (r_prime,)),
            Node("gs", (x_prime, r_prime), (y_name,)),
        ])
        rewritten += 1
    return rewritten


def fuse_ls_pass(graph: KernelGraph) -> int:
    """Merge ``qk -> ls`` pairs into ``qk_ls`` nodes."""
    fused = 0
    for node in graph.nodes:
        if node.role != "ls":
            continue
        (x_name,) = node.inputs
        producer = graph.producer(x_name)
        if producer is None or producer.role != "qk":
            continue
        if len(graph.consumers(x_name)) != 1:
            continue  # X is still needed elsewhere; cannot fuse it away.
        graph.replace_nodes([producer, node],
                            [Node("qk_ls", producer.inputs, node.outputs)])
        fused += 1
    return fused


def fuse_gs_pass(graph: KernelGraph) -> int:
    """Merge ``gs -> av`` pairs into ``gs_av`` nodes."""
    fused = 0
    for node in graph.nodes:
        if node.role != "gs":
            continue
        (y_name,) = node.outputs
        consumers = graph.consumers(y_name)
        if len(consumers) != 1 or consumers[0].role != "av":
            continue
        av = consumers[0]
        if av.inputs[0] != y_name:
            continue  # GS output must be the LHS of the MatMul.
        graph.replace_nodes(
            [node, av],
            [Node("gs_av", (*node.inputs, *av.inputs[1:]), av.outputs)])
        fused += 1
    return fused


def fuse_softmax_pass(graph: KernelGraph) -> int:
    """Apply both fusions (Section 3.3); returns the number performed."""
    return fuse_ls_pass(graph) + fuse_gs_pass(graph)


def recompose(graph: KernelGraph) -> KernelGraph:
    """Full softmax recomposition: decompose, then fuse (in place).

    Returns the graph for chaining.
    """
    if decompose_softmax_pass(graph) == 0:
        raise PlanError("graph contains no softmax node to recompose")
    fuse_softmax_pass(graph)
    return graph


@functools.lru_cache(maxsize=None)
def _rewrite(record: PlanRecord) -> KernelGraph:
    if record.block is not None:
        graph = KernelGraph()
        graph.add_node(record.block, ("Q", "K", "V"), ("O",))
        return graph.freeze()
    graph = sda_graph(record.softmax)
    if record.decompose:
        decompose_softmax_pass(graph)
    if record.fuse_ls:
        fuse_ls_pass(graph)
    if record.fuse_gs:
        fuse_gs_pass(graph)
    return graph.freeze()


def plan_graph(plan: "AttentionPlan | PlanRecord | str") -> KernelGraph:
    """The (frozen, memoized) role graph of ``plan``."""
    if isinstance(plan, str):
        plan = AttentionPlan.from_name(plan)
    return _rewrite(getattr(plan, "record", plan))


def attention_matrix_sweeps(plan: "AttentionPlan | PlanRecord | str") -> int:
    """Off-chip sweeps of the attention matrix across the whole SDA
    block (write + read each count once) — the Fig. 6 audit.

    Baseline: QK^T writes it, softmax reads + writes, AV reads => 4.
    SD: QK^T write, LS read/write, GS read/write, AV read => 6.
    SDF: fused QK^T+LS write, fused GS+AV read => 2.
    Whole-block kernels: the matrix never leaves the SM => 0.
    """
    graph = plan_graph(plan)
    return sum(graph.access_count(name) for name in graph.matrix_buffers())


def build_kernels(
    plan: AttentionPlan,
    table: Mapping[str, Callable[[], object]],
    shape: str = "this shape",
    graph: "KernelGraph | None" = None,
) -> list:
    """One kernel per node of ``graph`` (default ``plan_graph(plan)``),
    in launch order, from a shape kind's role -> kernel-factory
    ``table``."""
    kernels = []
    for node in (plan_graph(plan) if graph is None else graph).nodes:
        factory = table.get(node.role)
        if factory is None:
            raise missing_kernel(plan, node.role, shape)
        kernels.append(factory())
    return kernels


def missing_kernel(plan: AttentionPlan, role: str, shape: str) -> PlanError:
    """The error for a ``plan`` whose ``role`` has no kernel at ``shape``."""
    return PlanError(
        f"the {plan.value!r} plan is not implemented for {shape} "
        f"(no {role!r} kernel)"
    )
