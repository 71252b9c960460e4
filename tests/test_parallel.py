"""Tests for the interconnect model and tensor-parallel inference."""

import pytest

from repro.common import ConfigError
from repro.gpu.interconnect import NVLINK3, PCIE4, allreduce_time
from repro.models import BERT_LARGE, InferenceSession
from repro.models.parallel import TensorParallelSession


class TestAllReduce:
    def test_single_gpu_free(self):
        assert allreduce_time(NVLINK3, 1e9, 1) == 0.0

    def test_zero_bytes_free(self):
        assert allreduce_time(NVLINK3, 0, 8) == 0.0

    def test_ring_volume(self):
        """2 (n-1)/n of the buffer per GPU."""
        t2 = allreduce_time(NVLINK3, 1e9, 2)
        expected = (2 * 0.5 * 1e9) / NVLINK3.link_bandwidth \
            + 2 * NVLINK3.hop_latency
        assert t2 == pytest.approx(expected)

    def test_more_gpus_more_volume(self):
        assert allreduce_time(NVLINK3, 1e9, 8) > allreduce_time(NVLINK3, 1e9, 2)

    def test_pcie_slower(self):
        assert allreduce_time(PCIE4, 1e8, 4) > allreduce_time(NVLINK3, 1e8, 4)

    def test_invalid_n(self):
        with pytest.raises(ConfigError):
            allreduce_time(NVLINK3, 1e9, 0)


class TestTensorParallel:
    def test_scaling_reduces_latency(self):
        single = InferenceSession(BERT_LARGE, plan="baseline").simulate()
        tp2 = TensorParallelSession(BERT_LARGE, n_gpus=2).simulate()
        tp4 = TensorParallelSession(BERT_LARGE, n_gpus=4).simulate()
        assert tp2.total_time < single.total_time
        assert tp4.total_time < tp2.total_time
        # Sub-linear: communication and un-sharded work cap the gain.
        assert tp4.total_time > single.total_time / 4.5

    def test_comm_share_grows_with_gpus(self):
        tp2 = TensorParallelSession(BERT_LARGE, n_gpus=2).simulate()
        tp8 = TensorParallelSession(BERT_LARGE, n_gpus=8).simulate()
        assert tp8.comm_fraction > tp2.comm_fraction
        assert 0 < tp2.comm_fraction < 0.5

    def test_recomposition_survives_tp(self):
        """Each shard runs the same SDA pipeline over H/n heads."""
        base = TensorParallelSession(BERT_LARGE, n_gpus=4,
                                     plan="baseline").simulate()
        sdf = TensorParallelSession(BERT_LARGE, n_gpus=4,
                                    plan="sdf").simulate()
        speedup = base.total_time / sdf.total_time
        assert speedup > 1.12

    def test_pcie_hurts(self):
        from repro.gpu.interconnect import PCIE4

        nvlink = TensorParallelSession(BERT_LARGE, n_gpus=4).simulate()
        pcie = TensorParallelSession(BERT_LARGE, n_gpus=4,
                                     interconnect=PCIE4).simulate()
        assert pcie.total_time > nvlink.total_time
        assert pcie.comm_fraction > 2 * nvlink.comm_fraction

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError, match="heads"):
            TensorParallelSession(BERT_LARGE, n_gpus=3)

    def test_shard_errors_match_generation_messages(self):
        import dataclasses

        from repro.models.generation import _check_tp_shards

        odd_ffn = dataclasses.replace(BERT_LARGE, d_ff=4098)
        for model, n_gpus in ((BERT_LARGE, 3), (odd_ffn, 4)):
            with pytest.raises(ConfigError) as session_error:
                TensorParallelSession(model, n_gpus=n_gpus)
            with pytest.raises(ConfigError) as check_error:
                _check_tp_shards(model, n_gpus)
            assert str(session_error.value) == str(check_error.value)
        with pytest.raises(ConfigError, match="n_gpus"):
            TensorParallelSession(BERT_LARGE, n_gpus=0)

    def test_two_allreduces_per_layer(self):
        tp = TensorParallelSession(BERT_LARGE, n_gpus=2).simulate()
        comm_records = [r for r in tp.result.profile
                        if r.category == "comm"]
        assert len(comm_records) == 2 * BERT_LARGE.num_layers


class TestOneShardedLayer:
    """``repro parallel`` prices the standard layer, sharded, with the
    collectives the cluster cost model charges."""

    @pytest.mark.parametrize("model", ["bert-large", "gpt-neo-1.3b",
                                       "bigbird-large", "longformer-large"])
    @pytest.mark.parametrize("plan", ["baseline", "sd", "sdf", "flash"])
    def test_one_gpu_equals_inference_session(self, model, plan):
        single = InferenceSession(model, plan=plan, seq_len=1024,
                                  batch=2).simulate()
        tp1 = TensorParallelSession(model, n_gpus=1, plan=plan,
                                    seq_len=1024, batch=2).simulate()
        compute = [r for r in tp1.result.profile if r.category != "comm"]
        assert compute == list(single.profile)
        assert tp1.comm_time == 0.0

    @pytest.mark.parametrize("n_gpus", [2, 4, 8])
    @pytest.mark.parametrize("interconnect", [NVLINK3, PCIE4])
    @pytest.mark.parametrize("algorithm", ["ring", "tree"])
    def test_comm_time_equals_cluster_cost_model(self, n_gpus, interconnect,
                                                 algorithm):
        from repro.cluster.costmodel import ShardedStepCostModel

        tp = TensorParallelSession(
            BERT_LARGE, n_gpus=n_gpus, interconnect=interconnect,
            algorithm=algorithm, seq_len=512, batch=2).simulate()
        step = ShardedStepCostModel(
            BERT_LARGE, "A100", tp=n_gpus, interconnect=interconnect,
            algorithm=algorithm)
        assert tp.comm_time == pytest.approx(step.comm_time(2 * 512),
                                             rel=1e-12)

    def test_stage_transfer_equals_cluster_cost_model(self):
        from repro.cluster.costmodel import ShardedStepCostModel
        from repro.models.parallel import PipelineParallelSession

        piped = PipelineParallelSession(
            BERT_LARGE, n_stages=2, microbatches=2, batch=4,
            seq_len=512, interconnect=PCIE4).simulate()
        step = ShardedStepCostModel(BERT_LARGE, "A100", pp=2,
                                    interconnect=PCIE4)
        assert piped.comm_per_boundary == step.comm_time(2 * 512)

    def test_auto_plan_rejected(self):
        from repro.common.errors import PlanError

        with pytest.raises(PlanError, match="auto"):
            TensorParallelSession(BERT_LARGE, n_gpus=2, plan="auto")

    def test_moe_model_rejected(self):
        from repro.models.moe import MoEConfig

        moe = MoEConfig.from_dense(BERT_LARGE, n_experts=4, top_k=2)
        with pytest.raises(ConfigError, match="mixture-of-experts"):
            TensorParallelSession(moe, n_gpus=2, seq_len=512).simulate()

    def test_inference_session_checks_inherited(self):
        with pytest.raises(ConfigError, match="seq_len"):
            TensorParallelSession(BERT_LARGE, n_gpus=2, seq_len=0)
        with pytest.raises(ConfigError, match="batch"):
            TensorParallelSession(BERT_LARGE, n_gpus=2, batch=0)

    def test_forward_on_a_shard_rejected(self):
        import numpy as np

        from repro.models.layers import FFBlock, MHABlock, TransformerLayer
        from repro.models.weights import ModelWeights

        hidden = np.zeros((1, 8, BERT_LARGE.d_model), dtype=np.float32)
        weights = ModelWeights(BERT_LARGE).layer(0)
        shape = dict(batch=1, seq_len=8, tp_shards=2)
        for block in (MHABlock(BERT_LARGE, 0, **shape),
                      FFBlock(BERT_LARGE, **shape),
                      TransformerLayer(BERT_LARGE, 0, **shape)):
            with pytest.raises(ConfigError, match="tensor-parallel shard"):
                block.forward(hidden, weights)
        session = TensorParallelSession(BERT_LARGE, n_gpus=2, seq_len=8)
        with pytest.raises(ConfigError, match="tensor-parallel shard"):
            session.forward(hidden)

    def test_shard_shapes(self):
        from repro.models.layers import TransformerLayer

        layer = TransformerLayer(BERT_LARGE, 0, batch=1, seq_len=64,
                                 tp_shards=4)
        d, dff = BERT_LARGE.d_model, BERT_LARGE.d_ff
        assert (layer.mha.q_proj.n, layer.mha.q_proj.k) == (d // 4, d)
        assert (layer.mha.out_proj.n, layer.mha.out_proj.k) == (d, d // 4)
        assert (layer.ff.fc1.n, layer.ff.fc2.k) == (dff // 4, dff // 4)
        assert layer.mha.sda.num_heads == BERT_LARGE.num_heads // 4


class TestPipelineParallel:
    from repro.models.parallel import PipelineParallelSession

    def make(self, **kw):
        from repro.models.parallel import PipelineParallelSession

        defaults = dict(n_stages=4, microbatches=4, batch=4, seq_len=2048)
        defaults.update(kw)
        return PipelineParallelSession(BERT_LARGE, **defaults)

    def test_bubble_fraction(self):
        result = self.make(n_stages=4, microbatches=4).simulate()
        assert result.bubble_fraction == pytest.approx(3 / 7)
        assert result.throughput_efficiency == pytest.approx(4 / 7)

    def test_more_microbatches_shrink_bubble(self):
        few = self.make(microbatches=2, batch=4).simulate()
        many = self.make(microbatches=4, batch=4).simulate()
        assert many.bubble_fraction < few.bubble_fraction

    def test_single_stage_no_bubble(self):
        result = self.make(n_stages=1, microbatches=1, batch=4).simulate()
        assert result.bubble_fraction == 0.0

    def test_layers_must_split(self):
        from repro.common import ConfigError

        with pytest.raises(ConfigError, match="layers"):
            self.make(n_stages=5)

    def test_batch_must_split(self):
        from repro.common import ConfigError

        with pytest.raises(ConfigError, match="microbatches"):
            self.make(microbatches=3, batch=4)

    def test_pipelining_beats_sequential_throughput(self):
        """4 stages with 8 microbatches finish the batch faster than
        one GPU running it alone (but slower than 4x)."""
        single = InferenceSession(BERT_LARGE, seq_len=2048,
                                  batch=8).simulate()
        piped = self.make(n_stages=4, microbatches=8, batch=8).simulate()
        assert piped.total_time < single.total_time
        assert piped.total_time > single.total_time / 4

    def test_recomposition_composes_with_pipelining(self):
        base = self.make(plan="baseline").simulate()
        sdf = self.make(plan="sdf").simulate()
        assert sdf.total_time < base.total_time
