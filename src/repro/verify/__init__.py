"""Differential verification harness (see ``docs/verification.md``).

One oracle per implementation pair, one invariant catalog, one seeded
fuzz driver:

- :mod:`repro.verify.registry` — oracle specs and the registry;
- :mod:`repro.verify.contracts` — per-dtype tolerance contracts
  (including the bit-identical golden contract);
- :mod:`repro.verify.invariants` — the metamorphic softmax identities;
- :mod:`repro.verify.cases` — seeded, shrinkable case generation;
- :mod:`repro.verify.fuzz` — the fuzz/shrink/artifact driver;
- :mod:`repro.verify.equivalence` — the engine x tracing x jobs
  equivalence check the simulators' fast paths answer to;
- :mod:`repro.verify.oracles` — registry assembly from the
  ``verification_oracles()`` hooks in the implementation modules.

Only the dependency-light pieces are imported eagerly; the fuzz driver
and registry assembly load on first use so that implementation modules
(whose hooks import this package lazily) never see a half-initialised
``repro.verify``.
"""

from __future__ import annotations

from repro.verify.contracts import (
    EXACT,
    Comparison,
    ToleranceContract,
    compare_arrays,
    ulp_distance,
)
from repro.verify.profiles import (
    ErrorProfile,
    ErrorProfileContract,
    measure_error_profile,
)
from repro.verify.registry import OracleRegistry, OracleSpec

__all__ = [
    "EXACT",
    "Comparison",
    "ErrorProfile",
    "ErrorProfileContract",
    "OracleRegistry",
    "OracleSpec",
    "ToleranceContract",
    "compare_arrays",
    "measure_error_profile",
    "ulp_distance",
    "build_registry",
    "default_registry",
    "fuzz_family",
    "replay_artifact",
]


def __getattr__(name: str):
    if name in ("build_registry", "default_registry"):
        from repro.verify import oracles

        return getattr(oracles, name)
    if name in ("fuzz_family", "replay_artifact"):
        from repro.verify import fuzz

        return getattr(fuzz, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
