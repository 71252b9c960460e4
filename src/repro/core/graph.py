"""Kernel-graph IR.

A :class:`KernelGraph` is a small dataflow IR over kernel *roles*:
nodes are launches named by what they compute (``qk``, ``softmax``,
``ls``, ``qk_ls``, ...), edges are named DRAM buffers.  The graph holds
no kernel objects — each shape kind maps roles to kernels with its own
table — so one rewrite of a plan serves every shape.  The
recomposition of Section 3 is implemented as graph passes
(:mod:`repro.core.recompose`): *decompose* replaces a softmax node
with LS/IR/GS nodes, *fuse* merges LS into its producing MatMul and GS
into its consuming MatMul.

The IR also provides the Fig. 6 audit directly: counting the nodes
that read or write a buffer gives the off-chip sweep count of that
buffer (each graph edge is a DRAM round trip, because fused work never
appears as an edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.common.errors import PlanError


@dataclass(frozen=True)
class Buffer:
    """A DRAM-resident tensor flowing between kernels.

    ``matrix`` marks attention-matrix-sized buffers (the ones the
    Fig. 6 audit and the footprint model count).
    """

    name: str
    matrix: bool = False


@dataclass(frozen=True)
class Node:
    """One kernel launch, by role, with named inputs and outputs."""

    role: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]


class KernelGraph:
    """An ordered dataflow graph of kernel launches.

    Nodes execute in insertion order (the launch stream); the edge
    structure is used by the rewrite passes and the traffic audit.
    A frozen graph (see :meth:`freeze`) rejects further rewrites.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, Buffer] = {}
        self._nodes: list[Node] = []
        self._frozen = False

    # -- construction ----------------------------------------------------

    def _check_mutable(self) -> None:
        if self._frozen:
            raise PlanError("graph is frozen; rewrite a fresh copy")

    def add_buffer(self, name: str, matrix: bool = False) -> Buffer:
        """Declare a buffer (idempotent for identical declarations)."""
        if name in self._buffers:
            existing = self._buffers[name]
            if matrix and not existing.matrix:
                raise PlanError(
                    f"buffer {name!r} redeclared as attention-matrix-sized"
                )
            return existing
        self._check_mutable()
        buffer = Buffer(name=name, matrix=matrix)
        self._buffers[name] = buffer
        return buffer

    def add_node(
        self,
        role: str,
        inputs: Iterable[str],
        outputs: Iterable[str],
    ) -> Node:
        """Append a kernel launch; auto-declares unknown buffers."""
        self._check_mutable()
        inputs = tuple(inputs)
        outputs = tuple(outputs)
        for name in (*inputs, *outputs):
            self.add_buffer(name)
        for name in outputs:
            if self.producer(name) is not None:
                raise PlanError(f"buffer {name!r} already has a producer")
        node = Node(role=role, inputs=inputs, outputs=outputs)
        self._nodes.append(node)
        return node

    def freeze(self) -> "KernelGraph":
        """Make the graph read-only (shared, memoized graphs)."""
        self._frozen = True
        return self

    # -- queries ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[Node, ...]:
        """Nodes in launch order."""
        return tuple(self._nodes)

    @property
    def roles(self) -> tuple[str, ...]:
        """Node roles in launch order."""
        return tuple(node.role for node in self._nodes)

    @property
    def buffers(self) -> dict[str, Buffer]:
        """Declared buffers by name."""
        return dict(self._buffers)

    def matrix_buffers(self) -> tuple[str, ...]:
        """Names of the attention-matrix-sized buffers."""
        return tuple(b.name for b in self._buffers.values() if b.matrix)

    def producer(self, buffer: str) -> Optional[Node]:
        """The node writing ``buffer``, or None for graph inputs."""
        for node in self._nodes:
            if buffer in node.outputs:
                return node
        return None

    def consumers(self, buffer: str) -> tuple[Node, ...]:
        """All nodes reading ``buffer``."""
        return tuple(n for n in self._nodes if buffer in n.inputs)

    def inputs(self) -> tuple[str, ...]:
        """Buffers no node produces (the graph's external inputs)."""
        produced = {name for node in self._nodes for name in node.outputs}
        consumed = [name for node in self._nodes for name in node.inputs]
        seen: list[str] = []
        for name in consumed:
            if name not in produced and name not in seen:
                seen.append(name)
        return tuple(seen)

    def outputs(self) -> tuple[str, ...]:
        """Buffers produced but never consumed (the graph's results)."""
        consumed = {name for node in self._nodes for name in node.inputs}
        out: list[str] = []
        for node in self._nodes:
            for name in node.outputs:
                if name not in consumed and name not in out:
                    out.append(name)
        return tuple(out)

    def access_count(self, buffer: str) -> int:
        """Off-chip accesses of ``buffer``: one write per producer plus
        one read per consumer (the Fig. 6 circles and hexagons)."""
        return (0 if self.producer(buffer) is None else 1) + len(
            self.consumers(buffer)
        )

    def peak_live(self, buffers: Iterable[str]) -> int:
        """Most of ``buffers`` resident at once: each is live from its
        first to its last touching node, inclusive."""
        spans = []
        for name in buffers:
            touched = [i for i, node in enumerate(self._nodes)
                       if name in node.inputs or name in node.outputs]
            if touched:
                spans.append((touched[0], touched[-1]))
        return max((sum(lo <= i <= hi for lo, hi in spans)
                    for i in range(len(self._nodes))), default=0)

    def validate(self) -> None:
        """Check the graph is executable in its launch order."""
        ready = set(self.inputs())
        for node in self._nodes:
            missing = [b for b in node.inputs if b not in ready]
            if missing:
                raise PlanError(
                    f"node {node.role!r} reads {missing} before production"
                )
            ready.update(node.outputs)

    # -- rewriting ---------------------------------------------------------

    def replace_nodes(
        self, old: Iterable[Node], new: Iterable[Node]
    ) -> None:
        """Splice ``new`` nodes where the first of ``old`` stood."""
        self._check_mutable()
        old = list(old)
        new = list(new)
        indices = [self._nodes.index(node) for node in old]
        insert_at = min(indices)
        for node in old:
            self._nodes.remove(node)
        self._nodes[insert_at:insert_at] = new
        for node in new:
            for name in (*node.inputs, *node.outputs):
                self.add_buffer(name)
        self.validate()

    def __len__(self) -> int:
        return len(self._nodes)

    def __repr__(self) -> str:
        return f"KernelGraph({' -> '.join(self.roles)})"
