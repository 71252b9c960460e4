"""Tests for model configurations and weights."""

import dataclasses

import numpy as np
import pytest

from repro.common import ConfigError
from repro.models import (
    AttentionKind,
    AttentionSpec,
    BERT_LARGE,
    BIGBIRD_LARGE,
    GPT_NEO_1_3B,
    LONGFORMER_LARGE,
    ModelConfig,
    ModelWeights,
    all_models,
    get_model,
)
from repro.models.weights import make_layer_weights


class TestPresets:
    def test_bert_large(self):
        assert BERT_LARGE.num_layers == 24
        assert BERT_LARGE.d_model == 1024
        assert BERT_LARGE.num_heads == 16
        assert BERT_LARGE.d_ff == 4096
        assert BERT_LARGE.d_head == 64
        assert not BERT_LARGE.is_sparse

    def test_gpt_neo(self):
        assert GPT_NEO_1_3B.d_model == 2048
        assert GPT_NEO_1_3B.d_head == 128
        assert GPT_NEO_1_3B.d_ff == 8192
        # Alternating dense-causal / local-causal layers.
        assert GPT_NEO_1_3B.layer_attention(0).kind is AttentionKind.DENSE_CAUSAL
        assert GPT_NEO_1_3B.layer_attention(1).kind is AttentionKind.LOCAL_CAUSAL
        assert GPT_NEO_1_3B.layer_attention(2).kind is AttentionKind.DENSE_CAUSAL
        assert GPT_NEO_1_3B.is_sparse

    def test_bigbird_and_longformer_sparse(self):
        for config in (BIGBIRD_LARGE, LONGFORMER_LARGE):
            assert config.is_sparse
            spec = config.layer_attention(0)
            layout = spec.layout(4096)
            assert layout is not None
            assert layout.density < 0.3

    def test_unique_layer_specs(self):
        assert len(BERT_LARGE.unique_layer_specs()) == 1
        specs = GPT_NEO_1_3B.unique_layer_specs()
        assert len(specs) == 2
        assert all(count == 12 for _, count in specs)
        assert sum(count for _, count in specs) == 24

    def test_get_model(self):
        assert get_model("bert") is BERT_LARGE
        assert get_model("BigBird-Large") is BIGBIRD_LARGE
        with pytest.raises(ConfigError):
            get_model("t5")

    def test_get_model_returns_a_config_unchanged(self):
        custom = dataclasses.replace(BERT_LARGE, name="custom-bert")
        assert get_model(custom) is custom
        assert get_model(BERT_LARGE) is BERT_LARGE
        with pytest.raises(ConfigError, match="unknown model"):
            get_model("custom-bert")

    def test_all_models_order(self):
        names = [m.name for m in all_models()]
        assert names == ["BERT-large", "GPT-Neo-1.3B", "BigBird-large",
                         "Longformer-large"]

    def test_causal_flags(self):
        assert GPT_NEO_1_3B.layer_attention(0).is_causal
        assert GPT_NEO_1_3B.layer_attention(1).is_causal
        assert not BERT_LARGE.layer_attention(0).is_causal
        assert not BIGBIRD_LARGE.layer_attention(0).is_causal

    def test_dense_spec_has_no_layout(self):
        assert BERT_LARGE.layer_attention(0).layout(4096) is None


class TestValidation:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(Exception):
            ModelConfig(name="bad", num_layers=2, d_model=100, num_heads=16,
                        d_ff=400, attention=(AttentionSpec(AttentionKind.DENSE),))

    def test_empty_attention_cycle(self):
        with pytest.raises(ConfigError):
            ModelConfig(name="bad", num_layers=2, d_model=64, num_heads=4,
                        d_ff=256, attention=())

    def test_layer_out_of_range(self):
        with pytest.raises(ConfigError):
            BERT_LARGE.layer_attention(24)


class TestWeights:
    def test_shapes(self):
        w = make_layer_weights(GPT_NEO_1_3B, 0)
        assert w.wq.shape == (2048, 2048)
        assert w.w_ff1.shape == (2048, 8192)
        assert w.b_ff2.shape == (2048,)

    def test_deterministic(self):
        a = make_layer_weights(BERT_LARGE, 3, seed=1)
        b = make_layer_weights(BERT_LARGE, 3, seed=1)
        np.testing.assert_array_equal(a.wq, b.wq)

    def test_layers_differ(self):
        a = make_layer_weights(BERT_LARGE, 0)
        b = make_layer_weights(BERT_LARGE, 1)
        assert not np.array_equal(a.wq, b.wq)

    def test_cache(self):
        weights = ModelWeights(BERT_LARGE)
        assert weights.layer(0) is weights.layer(0)
