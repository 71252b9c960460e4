"""Shared pytest fixtures."""

import dataclasses
import functools

import pytest

from repro.common.dtypes import DType
from repro.gpu.specs import get_gpu
from repro.models.config import get_model
from repro.models.footprint import weight_bytes


@pytest.fixture
def built(monkeypatch):
    """``built(cls)`` -> a list of every ``cls`` instance created from
    then on (subclass instances included)."""

    def track(cls):
        instances = []
        init = cls.__init__

        @functools.wraps(init)
        def tracked(self, *args, **kwargs):
            init(self, *args, **kwargs)
            instances.append(self)

        monkeypatch.setattr(cls, "__init__", tracked)
        return instances

    return track


@pytest.fixture
def engines(built):
    """Every :class:`~repro.serving.engine.EpochEngine` the test builds."""
    from repro.serving.engine import EpochEngine

    return built(EpochEngine)


def pytest_addoption(parser):
    parser.addoption(
        "--all-cells", action="store_true",
        help="run every tests/test_equivalence.py row in every engine x "
             "tracing x jobs cell, not only its tier-1 cells")


def tiny_gpu(model_name="bert-large", blocks=24, block_tokens=64,
             reserve_fraction=0.1):
    """An A100 variant whose HBM holds the weights plus ~``blocks``
    KV blocks — small enough to force admission queuing/preemption."""
    model = get_model(model_name)
    bytes_per_token = 2 * model.num_layers * model.d_model * 2
    pool = blocks * block_tokens * bytes_per_token
    weights = weight_bytes(model, DType.FP16)
    hbm = int((pool + weights) / (1 - reserve_fraction)) + 1
    return dataclasses.replace(get_gpu("a100"), hbm_bytes=hbm)
