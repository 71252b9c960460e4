"""Shared pytest fixtures."""

import functools

import pytest


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
