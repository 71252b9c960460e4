"""Tests for the core recomposition API: plans, math, online softmax,
and the training backward pass."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common import PlanError, ShapeError
from repro.core import (
    AttentionPlan,
    SoftmaxDecomposition,
    attention_matrix_sweeps,
    decomposed_softmax,
    online_softmax,
    softmax_backward,
)
from repro.core.backward import softmax_jacobian
from repro.core.online import online_softmax_statistics
from repro.kernels.softmax import safe_softmax


class TestPlans:
    @pytest.mark.parametrize("name,plan", [
        ("baseline", AttentionPlan.BASELINE),
        ("sd", AttentionPlan.DECOMPOSED),
        ("SDF", AttentionPlan.RECOMPOSED),
        ("online", AttentionPlan.ONLINE),
    ])
    def test_from_name(self, name, plan):
        assert AttentionPlan.from_name(name) is plan

    def test_from_name_passthrough(self):
        assert AttentionPlan.from_name(AttentionPlan.DECOMPOSED) is (
            AttentionPlan.DECOMPOSED
        )

    def test_unknown_plan(self):
        with pytest.raises(PlanError, match="unknown plan"):
            AttentionPlan.from_name("ring-attention")

    def test_sweep_audit_fig6(self):
        """Fig. 6: 4 sweeps baseline, 6 decomposed, 2 recomposed."""
        assert attention_matrix_sweeps(AttentionPlan.BASELINE) == 4
        assert attention_matrix_sweeps(AttentionPlan.DECOMPOSED) == 6
        assert attention_matrix_sweeps(AttentionPlan.RECOMPOSED) == 2

    @pytest.mark.parametrize("plan,paper", [
        ("baseline", 4), ("sd", 6), ("sdf", 2), ("sdf-ls-only", 4),
        ("sdf-gs-only", 4), ("online", 4), ("turbo", 4), ("fused-mha", 0),
        ("flash", 0),
    ])
    def test_sweep_audit_every_plan(self, plan, paper):
        """The plan graph's access counts are the Fig. 6 sweeps, and
        the simulated matrix-sized DRAM traffic agrees: exactly for
        the monolithic plans, plus at most the 12/T m'/d'/r' overhead
        for the decomposed ones."""
        from repro.gpu import Device
        from repro.models import AttentionKind, AttentionSpec, SDABlock

        assert attention_matrix_sweeps(plan) == paper
        bh, d, t = 16, 64, 64
        # Turbo's batched softmax and fused MHA only run short rows.
        length = 1024 if plan in ("turbo", "fused-mha") else 4096
        device = Device("A100")
        SDABlock(batch=1, num_heads=bh, seq_len=length, d_head=d,
                 spec=AttentionSpec(kind=AttentionKind.DENSE), plan=plan,
                 t=t).simulate(device)
        operands = 4 * bh * length * d * 2  # Q, K, V in; O out
        measured = ((device.profile.total_dram_bytes() - operands)
                    / (bh * length * length * 2))
        decomposed = AttentionPlan.from_name(plan).uses_decomposition
        overhead = 12 / t if decomposed else 0.0
        assert measured == pytest.approx(paper + overhead)

    def test_recomposition_halves_sweeps(self):
        baseline = attention_matrix_sweeps(AttentionPlan.BASELINE)
        sdf = attention_matrix_sweeps(AttentionPlan.RECOMPOSED)
        assert sdf * 2 == baseline

    def test_uses_decomposition(self):
        assert AttentionPlan.DECOMPOSED.uses_decomposition
        assert AttentionPlan.RECOMPOSED.uses_decomposition
        assert not AttentionPlan.BASELINE.uses_decomposition
        assert not AttentionPlan.ONLINE.uses_decomposition


class TestDecompositionAPI:
    def test_callable_matches_function(self):
        x = np.random.default_rng(0).standard_normal((4, 64))
        dec = SoftmaxDecomposition(t=16)
        np.testing.assert_array_equal(dec(x), decomposed_softmax(x, 16))

    def test_staged_api_matches(self):
        x = np.random.default_rng(1).standard_normal((4, 64))
        dec = SoftmaxDecomposition(t=8)
        x_prime, m_prime, d_prime = dec.local(x)
        r_prime = dec.reduce(m_prime, d_prime)
        np.testing.assert_allclose(
            dec.scale(x_prime, r_prime), safe_softmax(x), rtol=1e-5
        )

    def test_n_subvectors(self):
        assert SoftmaxDecomposition(t=64).n_subvectors(4096) == 64

    def test_n_subvectors_rejects_indivisible(self):
        with pytest.raises(ShapeError):
            SoftmaxDecomposition(t=64).n_subvectors(100)

    def test_rejects_bad_t(self):
        with pytest.raises(Exception):
            SoftmaxDecomposition(t=0)


class TestOnlineSoftmax:
    def test_matches_safe_softmax(self):
        x = np.random.default_rng(2).standard_normal((5, 48)).astype(np.float32)
        np.testing.assert_allclose(
            online_softmax(x), safe_softmax(x), rtol=1e-5, atol=1e-7
        )

    def test_statistics_match_eq1(self):
        x = np.random.default_rng(3).standard_normal((7, 32)).astype(np.float32)
        m, d = online_softmax_statistics(x)
        np.testing.assert_allclose(m, x.max(axis=-1), rtol=1e-6)
        np.testing.assert_allclose(
            d, np.exp(x - x.max(axis=-1, keepdims=True)).sum(axis=-1), rtol=1e-5
        )

    def test_handles_masked_rows(self):
        x = np.array([[0.0, -np.inf, 1.0], [-np.inf, -np.inf, -np.inf]],
                     dtype=np.float32)
        out = online_softmax(x)
        np.testing.assert_allclose(out[0].sum(), 1.0, rtol=1e-6)
        np.testing.assert_array_equal(out[1], 0.0)

    def test_running_max_rescaling(self):
        """Ascending inputs force the running max to grow at every step —
        the rescaling path must stay exact."""
        x = np.arange(32, dtype=np.float32)[None, :] * 3.0
        np.testing.assert_allclose(
            online_softmax(x), safe_softmax(x), rtol=1e-5
        )

    @given(seed=st.integers(0, 2**31 - 1), scale=st.floats(0.1, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_safe(self, seed, scale):
        x = (np.random.default_rng(seed).standard_normal((3, 24)) * scale
             ).astype(np.float32)
        np.testing.assert_allclose(
            online_softmax(x), safe_softmax(x), rtol=1e-4, atol=1e-6
        )


class TestBackward:
    def test_matches_jacobian(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(16).astype(np.float32)
        y = safe_softmax(x)
        grad_y = rng.standard_normal(16).astype(np.float32)
        np.testing.assert_allclose(
            softmax_backward(y, grad_y), softmax_jacobian(y) @ grad_y,
            rtol=1e-4, atol=1e-6,
        )

    def test_matches_numerical_gradient(self):
        """Finite-difference check of Eq. 3 through a scalar loss.

        The differences are taken in float64 (the library softmax works
        in float32, whose rounding would swamp a 1e-5 step).
        """
        rng = np.random.default_rng(5)
        x = rng.standard_normal(12)
        w = rng.standard_normal(12)

        def softmax64(x_):
            e = np.exp(x_ - x_.max())
            return e / e.sum()

        def loss(x_):
            return float(np.dot(w, softmax64(x_)))

        y = softmax64(x)
        analytic = softmax_backward(y, w)
        eps = 1e-6
        numeric = np.array([
            (loss(x + eps * np.eye(12)[i]) - loss(x - eps * np.eye(12)[i]))
            / (2 * eps)
            for i in range(12)
        ])
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-7)

    def test_gradient_rows_sum_to_zero(self):
        """Softmax output is shift-invariant, so dL/dx sums to zero."""
        rng = np.random.default_rng(6)
        y = safe_softmax(rng.standard_normal((4, 32)))
        g = softmax_backward(y, rng.standard_normal((4, 32)).astype(np.float32))
        np.testing.assert_allclose(g.sum(axis=-1), 0.0, atol=1e-5)

    def test_decomposed_forward_feeds_same_backward(self):
        """Section 6: recomposition changes the forward *schedule*, not
        the output, so training gradients are unchanged."""
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 64)).astype(np.float32)
        grad_y = rng.standard_normal((3, 64)).astype(np.float32)
        y_mono = safe_softmax(x)
        y_dec = decomposed_softmax(x, 16)
        np.testing.assert_allclose(
            softmax_backward(y_dec, grad_y),
            softmax_backward(y_mono, grad_y),
            rtol=1e-4, atol=1e-6,
        )

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            softmax_backward(np.zeros((2, 4)), np.zeros((2, 5)))
        with pytest.raises(ShapeError):
            softmax_jacobian(np.zeros((2, 4)))
