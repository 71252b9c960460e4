"""Run the doctests embedded in the public API docstrings.

Keeps the documentation honest: every ``>>>`` example in the library
must execute and produce the stated output.
"""

import doctest

import pytest

import repro.analysis.reporting
import repro.core.decomposition
import repro.gpu.specs
import repro.models.generation
import repro.models.runtime
import repro.models.seq2seq
import repro.serving
import repro.workloads.triviaqa

MODULES = [
    repro.core.decomposition,
    repro.gpu.specs,
    repro.analysis.reporting,
    repro.workloads.triviaqa,
    repro.models.runtime,
    repro.models.generation,
    repro.models.seq2seq,
    repro.serving,
]


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0, f"{module.__name__}: {result.failed} failures"
