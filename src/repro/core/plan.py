"""Execution plans for the SDA block.

The evaluation (Section 5) compares three ways of running
``MatMul -> scale -> mask -> softmax -> MatMul``:

- ``BASELINE``   — monolithic softmax kernel between the two MatMuls
  (scale/mask fused into the first MatMul's epilogue, as TensorRT and
  DeepSpeed already do);
- ``DECOMPOSED`` — softmax decomposition only (SD): LS, IR and GS run
  as separate kernels.  Attention-matrix traffic of the softmax layer
  *doubles* (2 -> 4 sweeps) but the access pattern becomes streaming;
- ``RECOMPOSED`` — decomposition plus fusion (SDF): LS fused into the
  preceding MatMul, GS into the following MatMul, only IR standalone.
  Attention-matrix traffic halves overall (4 -> 2 sweeps, Fig. 6).

Two ablation plans isolate each fusion, and the related-work plans
swap the softmax variant or run the whole block as one kernel.

Every plan is a :class:`PlanRecord`: which rewrites of
:mod:`repro.core.recompose` it applies to the baseline graph.  Adding
a plan is one record (plus a kernel for any new role).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.common.errors import PlanError

#: Softmax variants of the unfused graph.
SOFTMAX_VARIANTS = ("row", "online", "batched")
#: Whole-block kernels that replace the entire SDA graph.
BLOCK_KERNELS = ("fused-mha", "flash")


@dataclass(frozen=True)
class PlanRecord:
    """What a plan does to the SDA block, as graph rewrites.

    ``softmax`` picks the monolithic softmax kernel; ``decompose``
    splits it into LS -> IR -> GS; ``fuse_ls``/``fuse_gs`` fold LS into
    the QK^T MatMul and GS into the AV MatMul; ``block`` replaces the
    whole block with one kernel.
    """

    softmax: str = "row"
    decompose: bool = False
    fuse_ls: bool = False
    fuse_gs: bool = False
    block: Optional[str] = None

    def __post_init__(self) -> None:
        if self.softmax not in SOFTMAX_VARIANTS:
            raise PlanError(f"unknown softmax variant {self.softmax!r}")
        if self.block is not None and self.block not in BLOCK_KERNELS:
            raise PlanError(f"unknown whole-block kernel {self.block!r}")
        if (self.fuse_ls or self.fuse_gs) and not self.decompose:
            raise PlanError("fusing LS/GS needs the decomposition")
        if self.decompose and (self.softmax != "row" or self.block):
            raise PlanError("only the unfused row softmax decomposes")


class AttentionPlan(enum.Enum):
    """How the softmax layer of the SDA block is executed.

    Each member's value is its short name; ``member.record`` is its
    :class:`PlanRecord`.
    """

    BASELINE = "baseline", PlanRecord()
    DECOMPOSED = "sd", PlanRecord(decompose=True)
    RECOMPOSED = "sdf", PlanRecord(decompose=True, fuse_ls=True,
                                   fuse_gs=True)
    #: Ablation: fuse only LS into the preceding MatMul; GS standalone.
    FUSED_LS_ONLY = "sdf-ls-only", PlanRecord(decompose=True, fuse_ls=True)
    #: Ablation: fuse only GS into the following MatMul; LS standalone.
    FUSED_GS_ONLY = "sdf-gs-only", PlanRecord(decompose=True, fuse_gs=True)
    #: Related work: single-pass online softmax, unfused.
    ONLINE = "online", PlanRecord(softmax="online")
    #: Related work: TurboTransformers batched softmax [9], unfused;
    #: only supports short rows (<= 1024).
    TURBO = "turbo", PlanRecord(softmax="batched")
    #: Related work: the whole MHA block as one kernel
    #: (FasterTransformer style) — zero attention-matrix traffic, but
    #: only feasible for short sequences (Section 7).
    FULLY_FUSED = "fused-mha", PlanRecord(block="fused-mha")
    #: Forward-looking: FlashAttention-style tiled online-softmax
    #: attention — zero attention-matrix traffic at any length.
    FLASH = "flash", PlanRecord(softmax="online", block="flash")

    def __new__(cls, value: str, record: PlanRecord) -> "AttentionPlan":
        member = object.__new__(cls)
        member._value_ = value
        member.record = record
        return member

    @classmethod
    def from_name(cls, name: "str | AttentionPlan") -> "AttentionPlan":
        """Parse a plan from its short name (``"baseline"``, ``"sd"``,
        ``"sdf"``, ...)."""
        if isinstance(name, cls):
            return name
        plan = _BY_NAME.get(str(name).lower())
        if plan is None:
            known = ", ".join(_BY_NAME)
            raise PlanError(f"unknown plan {name!r}; known plans: {known}")
        return plan

    @property
    def uses_decomposition(self) -> bool:
        """Whether the plan splits softmax into LS/IR/GS."""
        return self.record.decompose


_BY_NAME = {plan.value: plan for plan in AttentionPlan}
