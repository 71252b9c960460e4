#!/usr/bin/env python
"""Softmax recomposition as a compiler pass over a kernel graph.

Shows the library's kernel-graph IR: build the baseline SDA dataflow
of kernel roles, run the decompose and fuse passes of Section 3 as
graph rewrites, audit the attention-matrix accesses at each step (the
Fig. 6 circles and hexagons), then show that every plan is one record
whose rewritten graph both a dense and a block-sparse block turn into
kernels — and finish with a custom JSON-defined model.

Run:  python examples/graph_recomposition.py
"""

from repro.analysis import render_table
from repro.common import PlanError
from repro.core import (
    AttentionPlan,
    attention_matrix_sweeps,
    decompose_softmax_pass,
    fuse_softmax_pass,
    plan_graph,
    sda_graph,
)
from repro.gpu import Device
from repro.models import AttentionKind, AttentionSpec, SDABlock

BH, L, D, T = 16, 4096, 64, 64


def matrix_accesses(graph):
    """Attention-matrix-sized accesses (the Fig. 6 audit)."""
    return sum(graph.access_count(name) for name in graph.matrix_buffers())


def traffic(plan, kind):
    """Simulated SDA-block DRAM traffic of ``plan`` on an A100."""
    device = Device("A100")
    SDABlock(batch=1, num_heads=BH, seq_len=L, d_head=D,
             spec=AttentionSpec(kind=kind), plan=plan, t=T).simulate(device)
    return f"{device.profile.total_dram_bytes() / 1e9:.2f} GB"


def demo_passes():
    print("=" * 72)
    print("1. The baseline SDA graph through the recomposition passes")
    print("=" * 72)
    graph = sda_graph()
    rows = [["baseline", repr(graph), matrix_accesses(graph),
             traffic("baseline", AttentionKind.DENSE)]]
    decompose_softmax_pass(graph)
    rows.append(["decomposed", repr(graph), matrix_accesses(graph),
                 traffic("sd", AttentionKind.DENSE)])
    fused = fuse_softmax_pass(graph)
    rows.append([f"recomposed ({fused} fusions)", repr(graph),
                 matrix_accesses(graph), traffic("sdf", AttentionKind.DENSE)])
    print(render_table(["pass", "graph", "matrix accesses (Fig. 6)",
                        "dense SDA traffic"], rows))
    print()


def demo_plans():
    print("=" * 72)
    print("2. Every plan is one record; dense and BigBird share its graph")
    print("=" * 72)
    rows = []
    for plan in AttentionPlan:
        try:
            sparse = traffic(plan, AttentionKind.BIGBIRD)
        except PlanError:  # no block-sparse kernel for one of its roles
            sparse = "-"
        rows.append([plan.value, " -> ".join(plan_graph(plan).roles),
                     attention_matrix_sweeps(plan), sparse])
    print(render_table(["plan", "roles", "sweeps", "BigBird SDA traffic"],
                       rows))
    print()


def demo_custom_model():
    print("=" * 72)
    print("3. A custom JSON-defined model through the whole stack")
    print("=" * 72)
    from repro.models import InferenceSession
    from repro.models.serialization import config_from_json, config_to_json

    config = config_from_json("""
    {"name": "my-long-encoder", "num_layers": 8, "d_model": 512,
     "num_heads": 8, "d_ff": 2048,
     "attention": [{"kind": "longformer", "window": 512,
                    "global_blocks": 1}]}
    """)
    print(config_to_json(config))
    rows = []
    base = None
    for plan in ("baseline", "sdf"):
        result = InferenceSession(config, seq_len=8192, plan=plan).simulate()
        base = base or result
        rows.append([plan, f"{result.total_time * 1e3:.2f} ms",
                     f"{base.total_time / result.total_time:.2f}x"])
    print(render_table(["plan", "latency", "speedup"], rows))


if __name__ == "__main__":
    demo_passes()
    demo_plans()
    demo_custom_model()
