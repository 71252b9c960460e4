"""Shared pytest fixtures."""

import pytest


@pytest.fixture
def engines(monkeypatch):
    """Every :class:`~repro.serving.engine.EpochEngine` the test builds."""
    from repro.serving.engine import EpochEngine

    built = []
    init = EpochEngine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(EpochEngine, "__init__", tracked)
    return built
