"""Search spaces for the closed-loop plan autotuner.

A :class:`SearchSpace` is an ordered set of axes (name -> candidate
values) plus the *default* configuration — the one the scenario would
run without tuning.  The default anchors the never-worse guarantee:
:func:`repro.tune.search.tune` always scores it at full fidelity and
only ever moves away from it on a strict improvement.  Every axis is
a knob of :data:`repro.common.scenario.TUNABLE_AXES`, and the default
is read through that table (:func:`~repro.common.scenario.read_config`),
the same one a configuration is applied back through.

Three builders cover the three evaluation backends:

- :func:`inference_space` — single-inference latency: every plan in
  ``ALL_CANDIDATES`` plus the decomposition tile width;
- :func:`serving_space`   — single-node serving: the plans serving
  prices (``PAPER_CANDIDATES``) plus tile width and the engine knobs
  (prefill chunk size, batch cap);
- :func:`cluster_space`   — the serving axes plus fleet shape
  (TP x PP) and routing policy.

Axis order is part of the contract: grids enumerate in axis order and
coordinate descent walks axes in axis order, so a space is as
deterministic as its definition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.common.errors import TuneError
from repro.common.scenario import read_config
from repro.core.autotune import ALL_CANDIDATES, PAPER_CANDIDATES

#: Softmax decomposition tile widths worth searching.
TILE_WIDTHS = (32, 64, 128)


@dataclass(frozen=True)
class SearchSpace:
    """An ordered product grid plus the untuned default config."""

    #: ``(axis name, candidate values)`` in search order.
    axes: "tuple[tuple[str, tuple], ...]"
    #: The configuration the scenario runs without tuning.
    default: "dict[str, object]"

    def __post_init__(self) -> None:
        names = [name for name, _ in self.axes]
        if len(set(names)) != len(names):
            raise TuneError(f"duplicate axes in search space: {names}")
        missing = [name for name in names if name not in self.default]
        if missing:
            raise TuneError(
                f"default config is missing axes {missing}; the "
                f"never-worse guarantee needs a complete default")

    @property
    def size(self) -> int:
        """Number of configurations in the full grid."""
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def configs(self) -> "list[dict[str, object]]":
        """Every configuration, enumerated in axis order."""
        names = [name for name, _ in self.axes]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(
                *(values for _, values in self.axes))
        ]

    def to_dict(self) -> "dict[str, object]":
        """JSON-ready description (recorded in tuned-plan artifacts)."""
        return {
            "axes": {name: list(values) for name, values in self.axes},
            "default": dict(self.default),
        }


def _space(spec, axes) -> SearchSpace:
    """``axes`` with the scenario's own configuration as the default."""
    return SearchSpace(
        axes=axes, default=read_config(spec, [name for name, _ in axes]))


def _serving_axes(spec):
    """Plan x tile x engine knobs, plus the axes that exist only when
    the scenario enables their subsystem.

    MoE scenarios search the routing fan-out (``top_k``: candidate
    values capped at the expert count, always including the scenario's
    own); speculative scenarios search the draft depth (``draft_len``).
    Dense, non-speculative scenarios get neither axis, so their grids
    — and tuned-plan artifacts — are unchanged.
    """
    axes = (
        ("plan", tuple(plan.value for plan in PAPER_CANDIDATES)),
        ("t", TILE_WIDTHS),
        ("chunk_tokens", (256, 512, 1024)),
        ("max_batch", (8, 16, 32, 64)),
    )
    if spec.moe.n_experts > 1:
        top_k = tuple(sorted({k for k in (1, 2, 4)
                              if k <= spec.moe.n_experts}
                             | {spec.moe.top_k}))
        axes += (("top_k", top_k),)
    if spec.workload.draft_model is not None:
        draft_len = tuple(sorted({1, 2, 4, 8}
                                 | {spec.workload.draft_len}))
        axes += (("draft_len", draft_len),)
    return axes


def inference_space(spec) -> SearchSpace:
    """Plan x tile width, scored by single-inference latency."""
    plans = tuple(plan.value for plan in ALL_CANDIDATES)
    return _space(spec, (("plan", plans), ("t", TILE_WIDTHS)))


def serving_space(spec) -> SearchSpace:
    """Plan x tile x engine knobs, scored through the serving simulator.

    MoE scenarios additionally search ``top_k``; speculative scenarios
    search ``draft_len`` (see :func:`_serving_axes`)."""
    return _space(spec, _serving_axes(spec))


def cluster_space(spec) -> SearchSpace:
    """The serving axes plus fleet shape and routing policy."""
    return _space(spec, _serving_axes(spec) + (
        ("tp", (1, 2, 4)),
        ("pp", (1, 2)),
        ("policy", ("round-robin", "least-outstanding",
                    "prefix-affinity")),
    ))


def build_space(spec, mode: str) -> SearchSpace:
    """The search space for an evaluation ``mode`` (see
    :class:`repro.tune.evaluate.ScenarioEvaluator`)."""
    builders = {
        "inference": inference_space,
        "serving": serving_space,
        "cluster": cluster_space,
    }
    try:
        builder = builders[mode]
    except KeyError:
        raise TuneError(
            f"unknown tuning mode {mode!r}; choose from "
            f"{', '.join(sorted(builders))}") from None
    return builder(spec)
