"""SLO-driven autoscaling: cold-start model and scaling policy.

The autoscaler closes the loop between the replicas' published
signals and the fleet.  Its inputs are exactly the signals a
production control plane would scrape from its metrics pipeline —
windowed per-tier TTFT attainment (from the schedulers' first-token
observations), backlog per replica (from each replica's published
outstanding tokens), and the load shedder's drop count — never the
simulator's internal state.  A traced run mirrors the same signals as
``first-token`` instants, ``outstanding_tokens`` gauges and the
``gateway.shed`` counter.

Scale-up is not free: a new replica must stream its weight shard over
the host interconnect and initialize its KV pool before it can serve.
:func:`cold_start_time` derives that delay from the model's parameter
footprint, the interconnect model, and ``GPUSpec.hbm_bytes`` /
``mem_bandwidth``, so bigger models on slower links pay realistically
more for elasticity.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ServingError
from repro.common.validation import require_positive
from repro.gpu.interconnect import NVLINK3, InterconnectSpec, \
    point_to_point_time
from repro.gpu.specs import GPUSpec
from repro.models.config import ModelConfig
from repro.models.footprint import weight_bytes

__all__ = ["AutoscalerConfig", "Autoscaler", "ScalingDecision",
           "cold_start_time"]


def cold_start_time(
    model: ModelConfig,
    gpu: GPUSpec,
    *,
    dtype: DType = DType.FP16,
    tp: int = 1,
    pp: int = 1,
    interconnect: InterconnectSpec = NVLINK3,
) -> float:
    """Seconds before a freshly booted replica can serve.

    Two phases, both derived from the hardware model rather than a
    magic constant:

    - **weight load** — each GPU streams its parameter shard
      (``weight_bytes / (tp * pp)``) over one host link, shards in
      parallel, priced by the interconnect's point-to-point model;
    - **KV-pool init** — the runtime touches the rest of HBM once
      (allocation, zeroing, paging structures), priced as one pass of
      the non-weight bytes at effective memory bandwidth.
    """
    n_gpus = tp * pp
    shard = weight_bytes(model, dtype) / n_gpus
    load = point_to_point_time(interconnect, shard)
    pool = max(0.0, gpu.hbm_bytes - shard)
    init = pool / (gpu.mem_bandwidth * gpu.streaming_efficiency)
    return load + init


@dataclass(frozen=True)
class ScalingDecision:
    """One controller verdict: add (``delta > 0``) or drain replicas."""

    delta: int
    reason: str


@dataclass(frozen=True)
class AutoscalerConfig:
    """Tuning knobs of the scaling policy."""

    min_replicas: int = 1
    max_replicas: int = 8
    #: Seconds between controller ticks.
    control_interval: float = 0.25
    #: Sliding window (seconds) over which attainment is evaluated.
    window: float = 2.0
    #: First-token samples the window needs before attainment is
    #: trusted; below it only the backlog signal can trigger scaling.
    min_samples: int = 5
    #: Outstanding tokens per active replica above which the fleet
    #: scales up (backlog builds faster than attainment degrades, so
    #: this is the early-warning signal during a burst).
    high_watermark: float = 3000.0
    #: Backlog per replica below which (with every tier attaining) the
    #: fleet scales down.
    low_watermark: float = 400.0
    #: Replicas added per scale-up trigger.
    scale_step: int = 1
    #: Minimum seconds between scale-ups / scale-downs.
    up_cooldown: float = 0.25
    down_cooldown: float = 2.0
    #: Cold-start override, seconds; ``None`` derives it from the
    #: model, GPU, and interconnect via :func:`cold_start_time`.
    cold_start_s: "float | None" = None

    def __post_init__(self) -> None:
        require_positive("min_replicas", self.min_replicas)
        require_positive("control_interval", self.control_interval)
        require_positive("window", self.window)
        require_positive("scale_step", self.scale_step)
        if self.max_replicas < self.min_replicas:
            raise ServingError(
                f"max_replicas {self.max_replicas} < min_replicas "
                f"{self.min_replicas}"
            )
        if self.low_watermark >= self.high_watermark:
            raise ServingError(
                f"low_watermark {self.low_watermark} must be below "
                f"high_watermark {self.high_watermark}"
            )
        if self.cold_start_s is not None and self.cold_start_s < 0:
            raise ServingError(
                f"cold_start_s must be >= 0, got {self.cold_start_s}"
            )

    def describe(self) -> "dict[str, object]":
        """JSON-ready parameter summary."""
        return {
            "min_replicas": self.min_replicas,
            "max_replicas": self.max_replicas,
            "control_interval_s": self.control_interval,
            "window_s": self.window,
            "high_watermark": self.high_watermark,
            "low_watermark": self.low_watermark,
            "scale_step": self.scale_step,
            "up_cooldown_s": self.up_cooldown,
            "down_cooldown_s": self.down_cooldown,
        }


class Autoscaler:
    """The scaling policy, fed purely by published signals.

    The controller pushes windowed first-token observations in via
    :meth:`observe_first_token` and asks for a verdict once per tick
    via :meth:`decide`; the policy itself never touches a replica or a
    scheduler, so its feedback path is exactly what a metrics-scraping
    deployment controller would see.
    """

    def __init__(self, config: AutoscalerConfig,
                 tiers: "tuple" = ()) -> None:
        self.config = config
        self.tiers = tiers
        #: (timestamp, tier index, met-SLO) first-token observations.
        self._window: "deque[tuple[float, int, bool]]" = deque()
        self._last_up = float("-inf")
        self._last_down = float("-inf")

    def observe_first_token(self, ts: float, tier_index: int,
                            ok: bool) -> None:
        """Fold one first-token observation into the sliding window.

        The controller feeds these in a traced run's ``first-token``
        instant order; the window pops from the left, so that order is
        part of the signal.
        """
        self._window.append((ts, tier_index, ok))

    def window_attainment(self, now: float) -> "dict[int, tuple[int, int]]":
        """Per-tier ``(met, total)`` over the trailing window."""
        horizon = now - self.config.window
        while self._window and self._window[0][0] < horizon:
            self._window.popleft()
        stats: "dict[int, list[int]]" = {}
        for _, tier, ok in self._window:
            entry = stats.setdefault(tier, [0, 0])
            entry[0] += int(ok)
            entry[1] += 1
        return {tier: (met, total) for tier, (met, total) in stats.items()}

    def decide(
        self,
        now: float,
        *,
        active: int,
        booting: int,
        backlog_per_replica: float,
        shed_delta: float,
    ) -> "ScalingDecision | None":
        """The verdict for this tick, or ``None`` to hold steady."""
        config = self.config
        fleet = active + booting
        if fleet < config.min_replicas:
            return ScalingDecision(config.min_replicas - fleet,
                                   "below-min")

        attainment = self.window_attainment(now)
        breached = []
        all_attaining = True
        for index, tier in enumerate(self.tiers):
            met, total = attainment.get(index, (0, 0))
            if total < config.min_samples:
                continue
            if met / total < tier.attainment_target:
                breached.append(tier.name)
                all_attaining = False

        wants_up = (bool(breached)
                    or backlog_per_replica > config.high_watermark
                    or shed_delta > 0)
        if wants_up:
            if fleet >= config.max_replicas:
                return None
            if now - self._last_up < config.up_cooldown:
                return None
            self._last_up = now
            delta = min(config.scale_step, config.max_replicas - fleet)
            if breached:
                reason = f"slo-breach:{','.join(breached)}"
            elif shed_delta > 0:
                reason = "shedding"
            else:
                reason = "backlog"
            return ScalingDecision(delta, reason)

        if (all_attaining
                and booting == 0
                and active > config.min_replicas
                and backlog_per_replica < config.low_watermark
                and now - self._last_down >= config.down_cooldown):
            self._last_down = now
            return ScalingDecision(-1, "idle-capacity")
        return None
