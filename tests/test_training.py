"""Tests for the training-step simulation and backward kernel (§6)."""

import numpy as np
import pytest

from repro.common import DType, PlanError
from repro.core.backward import softmax_backward
from repro.gpu import A100
from repro.kernels.backward import SoftmaxBackwardKernel
from repro.kernels.softmax import safe_softmax
from repro.models.training import TrainingSDAStep

BH, L, D = 16, 4096, 64


class TestBackwardKernel:
    def test_numerics_match_eq3(self):
        rng = np.random.default_rng(0)
        y = safe_softmax(rng.standard_normal((8, 64)).astype(np.float32))
        dy = rng.standard_normal((8, 64)).astype(np.float32)
        kernel = SoftmaxBackwardKernel(rows=8, length=64, dtype=DType.FP32)
        np.testing.assert_allclose(
            kernel.compute(y, dy), softmax_backward(y, dy), atol=1e-6
        )

    def test_fp16_storage(self):
        rng = np.random.default_rng(1)
        y = safe_softmax(rng.standard_normal((4, 32)).astype(np.float32))
        dy = rng.standard_normal((4, 32)).astype(np.float32)
        kernel = SoftmaxBackwardKernel(rows=4, length=32)
        out = kernel.compute(y, dy)
        assert out.dtype == np.float32  # fp16-rounded values in fp32 storage
        np.testing.assert_allclose(out, softmax_backward(y, dy), atol=5e-3)

    def test_three_sweeps(self):
        kernel = SoftmaxBackwardKernel(rows=BH * L, length=L)
        launch = kernel.launch_spec(A100)
        sweep = BH * L * L * 2
        assert launch.dram_read_bytes == 2 * sweep
        assert launch.dram_write_bytes == sweep

    def test_memory_bound(self):
        from repro.gpu.costmodel import time_kernel

        kernel = SoftmaxBackwardKernel(rows=BH * L, length=L)
        assert time_kernel(A100, kernel.launch_spec(A100)).bound == "memory"

    def test_rejects_wrong_length(self):
        kernel = SoftmaxBackwardKernel(rows=4, length=32)
        with pytest.raises(Exception):
            kernel.compute(np.zeros((4, 16)), np.zeros((4, 16)))


class TestTrainingStep:
    def make(self, plan):
        return TrainingSDAStep(batch=1, num_heads=BH, seq_len=L, d_head=D,
                               plan=plan)

    def test_recomposition_speeds_training_forward(self):
        """Section 6: the forward-pass savings carry over to training."""
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        assert sdf.forward.total_time() < 0.7 * base.forward.total_time()

    def test_backward_cost_nearly_identical(self):
        """The backward consumes only the softmax output; under SDF it
        reconstructs Y from X' and r' at negligible extra cost."""
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        ratio = sdf.backward.total_time() / base.backward.total_time()
        assert ratio == pytest.approx(1.0, abs=0.05)
        # The only extra traffic is the 1/T-sized r' read.
        extra = (sdf.backward.total_dram_bytes()
                 - base.backward.total_dram_bytes())
        assert 0 <= extra < 0.02 * base.backward.total_dram_bytes()

    def test_whole_step_speedup(self):
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        speedup = base.total_time / sdf.total_time
        # Backward (unchanged) dilutes the forward gain, but the step
        # still improves.
        assert 1.05 < speedup < base.forward.total_time() / sdf.forward.total_time()

    def test_backward_dominated_by_attention_traffic(self):
        """Backward sweeps the attention matrix ~7x (dV read, dA
        write+read, dX write+2 reads, softmax-backward reads) — more
        than the forward's 4."""
        base = self.make("baseline").simulate()
        assert (base.backward.total_dram_bytes()
                > 1.5 * base.forward.total_dram_bytes())

    def test_unsupported_plans_rejected(self):
        with pytest.raises(PlanError):
            self.make("online")
        with pytest.raises(PlanError):
            self.make("fused-mha")

    @pytest.mark.parametrize("plan", ["flash", "turbo"])
    def test_plans_without_a_stored_row_softmax_rejected(self, plan):
        """FlashAttention never writes the attention matrix the backward
        reads; turbo's batched softmax is outside the model."""
        with pytest.raises(PlanError, match="baseline/SD/SDF"):
            self.make(plan)

    def test_gs_fused_forward_reconstructs_y(self):
        """Fusing GS into the AV MatMul means Y is never stored, so the
        backward pays the r' read exactly as under SDF."""
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        gs_only = self.make("sdf-gs-only").simulate()
        ls_only = self.make("sdf-ls-only").simulate()
        assert (gs_only.backward.total_dram_bytes()
                == sdf.backward.total_dram_bytes())
        assert (ls_only.backward.total_dram_bytes()
                == base.backward.total_dram_bytes())

    def test_kernel_counts(self):
        base = self.make("baseline").simulate()
        assert len(base.forward) == 3
        assert len(base.backward) == 5


class TestSparseTraining:
    def make(self, plan):
        from repro.models import AttentionKind, AttentionSpec

        return TrainingSDAStep(
            batch=1, num_heads=BH, seq_len=L, d_head=D, plan=plan,
            spec=AttentionSpec(kind=AttentionKind.BIGBIRD),
        )

    def test_sparse_forward_speedup_larger_than_dense(self):
        """Sparse training forward gains even more than dense (the
        baseline sparse softmax utilisation problem, Section 5.1)."""
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        sparse_gain = base.forward.total_time() / sdf.forward.total_time()

        dense_base = TrainingSDAStep(batch=1, num_heads=BH, seq_len=L,
                                     d_head=D, plan="baseline").simulate()
        dense_sdf = TrainingSDAStep(batch=1, num_heads=BH, seq_len=L,
                                    d_head=D, plan="sdf").simulate()
        dense_gain = (dense_base.forward.total_time()
                      / dense_sdf.forward.total_time())
        assert sparse_gain > dense_gain

    def test_sparse_backward_plan_independent(self):
        base = self.make("baseline").simulate()
        sdf = self.make("sdf").simulate()
        assert sdf.backward.total_time() == pytest.approx(
            base.backward.total_time()
        )

    def test_sparse_backward_touches_only_nonzeros(self):
        """Backward gradient traffic scales with nnz, not L^2."""
        from repro.models import AttentionKind, AttentionSpec

        spec = AttentionSpec(kind=AttentionKind.BIGBIRD)
        layout = spec.layout(L)
        sparse = self.make("baseline").simulate()
        dense = TrainingSDAStep(batch=1, num_heads=BH, seq_len=L,
                                d_head=D, plan="baseline").simulate()
        ratio = (sparse.backward.total_dram_bytes()
                 / dense.backward.total_dram_bytes())
        assert ratio < 3 * layout.density

    def test_transposed_layout_statistics(self):
        from repro.sparse import bigbird_layout

        layout = bigbird_layout(4096, 64)
        t = layout.transposed()
        assert t.nnz_blocks == layout.nnz_blocks
        assert t.mask[3, 0] == layout.mask[0, 3]

    def test_sparse_softmax_backward_numerics(self):
        import numpy as np
        from repro.common import DType
        from repro.core.backward import softmax_backward
        from repro.kernels.backward import BlockSparseSoftmaxBackward
        from repro.sparse import BlockSparseMatrix, sliding_window_layout

        layout = sliding_window_layout(64, 16, window_blocks=3)
        rng = np.random.default_rng(0)
        y = BlockSparseMatrix(
            layout,
            rng.random((2, layout.nnz_blocks, 16, 16)).astype(np.float32),
        )
        dy = BlockSparseMatrix(
            layout,
            rng.standard_normal(
                (2, layout.nnz_blocks, 16, 16)).astype(np.float32),
        )
        kernel = BlockSparseSoftmaxBackward(layout, 2, dtype=DType.FP32)
        out = kernel.compute(y, dy)
        expected = softmax_backward(y.to_dense(), dy.to_dense())
        mask = layout.element_mask()
        np.testing.assert_allclose(
            out.to_dense()[:, mask], expected[:, mask], atol=1e-5
        )
