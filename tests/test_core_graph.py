"""Tests for the kernel-graph IR, the recomposition passes, and the
plan graphs every shape kind builds its kernels from."""

import pytest

from repro.common import PlanError
from repro.core import (
    AttentionPlan,
    KernelGraph,
    decompose_softmax_pass,
    fuse_softmax_pass,
    plan_graph,
    recompose,
    sda_graph,
)
from repro.gpu import Device
from repro.kernels import (
    FusedGSMatMulKernel,
    FusedMatMulLSKernel,
    InterReductionKernel,
)
from repro.models import AttentionKind, AttentionSpec, SDABlock

BH, L, D, T = 16, 4096, 64, 64


def dense_block(plan, seq_len=L):
    return SDABlock(batch=1, num_heads=BH, seq_len=seq_len, d_head=D,
                    spec=AttentionSpec(kind=AttentionKind.DENSE),
                    plan=plan, t=T)


def dram_bytes(block):
    device = Device("A100")
    block.simulate(device)
    return device.profile.total_dram_bytes()


class TestGraphBasics:
    def test_build_and_query(self):
        graph = sda_graph()
        assert len(graph) == 3
        assert graph.inputs() == ("Q", "K_T", "V")
        assert graph.outputs() == ("O",)
        assert graph.producer("X").role == "qk"
        assert [n.role for n in graph.consumers("X")] == ["softmax"]

    def test_access_count_is_fig6_audit(self):
        graph = sda_graph()
        # Attention matrix: X written + read, Y written + read = 4.
        assert graph.access_count("X") + graph.access_count("Y") == 4

    def test_validate_rejects_use_before_def(self):
        graph = KernelGraph()
        graph.add_node("qk", inputs=("a", "b"), outputs=("c",))
        graph.add_node("av", inputs=("c", "d"), outputs=("e",))
        graph._nodes.reverse()
        with pytest.raises(PlanError, match="before production"):
            graph.validate()

    def test_double_producer_rejected(self):
        graph = KernelGraph()
        graph.add_node("qk", inputs=("a", "b"), outputs=("c",))
        with pytest.raises(PlanError, match="already has a producer"):
            graph.add_node("qk", inputs=("a", "b"), outputs=("c",))

    def test_buffer_size_conflict_rejected(self):
        graph = KernelGraph()
        graph.add_buffer("x", matrix=True)
        graph.add_buffer("x", matrix=True)  # idempotent OK
        graph.add_buffer("y")
        with pytest.raises(PlanError, match="redeclared"):
            graph.add_buffer("y", matrix=True)

    def test_simulate_launches_all_nodes(self):
        """Every node of a plan graph becomes exactly one launch."""
        for plan in ("baseline", "sd", "sdf", "sdf-ls-only", "flash"):
            device = Device("A100")
            dense_block(plan, seq_len=512).simulate(device)
            assert len(device.profile) == len(plan_graph(plan))

    def test_plan_graphs_are_memoized_and_frozen(self):
        graph = plan_graph(AttentionPlan.RECOMPOSED)
        assert plan_graph("sdf") is graph
        with pytest.raises(PlanError, match="frozen"):
            decompose_softmax_pass(plan_graph("baseline"))
        assert plan_graph("baseline").roles == ("qk", "softmax", "av")


class TestDecomposePass:
    def test_rewrites_softmax_node(self):
        graph = sda_graph()
        assert decompose_softmax_pass(graph) == 1
        assert graph.roles == ("qk", "ls", "ir", "gs", "av")

    def test_stat_buffers_created(self):
        graph = sda_graph()
        decompose_softmax_pass(graph)
        for name in ("X.x_prime", "X.m_prime", "X.d_prime", "X.r_prime"):
            assert name in graph.buffers
        # X' is attention-matrix-sized like X; the statistics are not.
        assert graph.buffers["X.x_prime"].matrix
        assert not graph.buffers["X.m_prime"].matrix

    def test_decomposition_increases_matrix_accesses(self):
        """SD: 4 -> 6 matrix-sized accesses (X, X', Y edges)."""
        graph = sda_graph()
        decompose_softmax_pass(graph)
        accesses = (graph.access_count("X") + graph.access_count("X.x_prime")
                    + graph.access_count("Y"))
        assert accesses == 6

    def test_online_softmax_not_decomposed(self):
        graph = sda_graph("online")
        assert decompose_softmax_pass(graph) == 0
        assert graph.roles == ("qk", "online_softmax", "av")

    def test_indivisible_t_rejected(self):
        """The role graph is shape-free; the dense kernel table rejects
        a row length that is not a whole number of sub-vectors."""
        from repro.common import ShapeError

        with pytest.raises(ShapeError, match="not divisible"):
            SDABlock(batch=1, num_heads=BH, seq_len=L, d_head=D,
                     spec=AttentionSpec(kind=AttentionKind.DENSE),
                     plan="sd", t=100)


class TestFusePass:
    def test_full_recomposition_structure(self):
        graph = recompose(sda_graph())
        assert graph.roles == ("qk_ls", "ir", "gs_av")
        # The raw matrix X and the softmax output Y are fused away:
        # only X' crosses DRAM, written once and read once (Fig. 6).
        assert graph.access_count("X") == 0
        assert graph.access_count("Y") == 0
        assert graph.access_count("X.x_prime") == 2

    def test_recompose_requires_softmax(self):
        graph = KernelGraph()
        graph.add_node("qk", inputs=("a", "b"), outputs=("c",))
        with pytest.raises(PlanError, match="no softmax"):
            recompose(graph)

    def test_fusion_skipped_when_x_has_other_consumers(self):
        """If the raw attention matrix is consumed elsewhere (e.g. for
        attention-weight extraction), the MatMul+LS fusion must not
        eliminate it."""
        graph = sda_graph()
        graph.add_node("scale_mask", inputs=("X",), outputs=("X_copy",))
        decompose_softmax_pass(graph)
        fused = fuse_softmax_pass(graph)
        # Only the GS-side fusion applies.
        assert fused == 1
        assert graph.access_count("X") >= 2

    def test_graph_traffic_matches_sda_block_pipeline(self):
        """SDABlock builds the RECOMPOSED pipeline from the rewritten
        graph: one kernel per role, in launch order."""
        block = dense_block(AttentionPlan.RECOMPOSED)
        assert plan_graph("sdf").roles == ("qk_ls", "ir", "gs_av")
        assert [type(k) for k in block.kernels] == [
            FusedMatMulLSKernel, InterReductionKernel, FusedGSMatMulKernel]

    def test_baseline_vs_recomposed_traffic_halved(self):
        baseline = dram_bytes(dense_block("baseline"))
        recomposed = dram_bytes(dense_block("sdf"))
        assert recomposed < 0.6 * baseline


class TestSparseGraphRecomposition:
    """The same plan graphs drive block-sparse pipelines too."""

    def make_block(self, plan):
        return SDABlock(batch=1, num_heads=BH, seq_len=4096, d_head=D,
                        spec=AttentionSpec(kind=AttentionKind.BIGBIRD),
                        plan=plan)

    def test_baseline_structure(self):
        assert len(self.make_block("baseline").kernels) == 3
        graph = plan_graph("baseline")
        assert graph.access_count("X") + graph.access_count("Y") == 4

    def test_full_recomposition(self):
        from repro.sparse.bsmatmul import (
            FusedBSGSMatMulDSD,
            FusedBSMatMulLSSDD,
        )
        from repro.sparse.bssoftmax import BlockSparseIR

        kinds = [type(k) for k in self.make_block("sdf").kernels]
        assert kinds == [FusedBSMatMulLSSDD, BlockSparseIR,
                         FusedBSGSMatMulDSD]

    def test_matches_sda_block_pipeline(self):
        """Dense and block-sparse blocks launch one kernel per node of
        the same plan graph."""
        for plan in ("baseline", "sd", "sdf", "sdf-ls-only",
                     "sdf-gs-only", "flash"):
            assert (len(self.make_block(plan).kernels)
                    == len(dense_block(plan).kernels)
                    == len(plan_graph(plan)))

    def test_traffic_reduced(self):
        baseline = dram_bytes(self.make_block("baseline"))
        recomposed = dram_bytes(self.make_block("sdf"))
        assert recomposed < 0.75 * baseline

    def test_dense_only_plans_rejected(self):
        for plan in ("online", "turbo", "fused-mha"):
            with pytest.raises(PlanError, match="block-sparse"):
                self.make_block(plan)
