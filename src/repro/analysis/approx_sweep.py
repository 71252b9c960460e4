"""Accuracy-vs-speed Pareto sweep of the approximate softmax family.

``repro approx-sweep`` answers the question the approximate kernels
exist to pose: how much softmax execution time does each approximation
buy, and what does it cost in distance from the exact answer?  Each
variant is one row of :data:`VARIANTS` — a plan graph plus a role
override over the one dense table — and both stages read the rows.

**Accuracy.**  The softmax variants (baseline, SDF, LUT-exp, BAPS) run
on identical seeded inputs across several numeric regimes and are
measured against the float64 exact softmax with the fuzz harness's own
measurement and contract check; FLASH-D is measured against exact
*attention* (its output has no probability axis).

**Speed.**  Each variant prices every node of its graph except the two
MatMuls, per layer of the paper's four models over a sequence-length
grid: SDF is its LS + IR + GS pipeline, FLASH-D the whole fused kernel
against the stock FlashAttention kernel (its division savings exist
only inside the fusion; a zero marginal cost on a memory-bound launch
is a result, not an artifact).  A grid point whose kernels do not fit
the GPU is recorded as infeasible and left out of every aggregate.

The ``repro.approx_sweep/v1`` report carries, per variant, the
measured profile, the declared contract with its verdict, the priced
points and instruction/traffic counters, then the Pareto frontier and
the variants that strictly dominate the baseline.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from repro.common.dtypes import DType
from repro.common.errors import KernelError, ShapeError
from repro.common.results import APPROX_SWEEP_SCHEMA
from repro.common.validation import require_positive
from repro.core.decomposition import decomposed_softmax
from repro.core.plan import AttentionPlan
from repro.core.recompose import plan_graph
from repro.gpu.costmodel import time_kernel
from repro.gpu.specs import GPUSpec
from repro.kernels.approx import (
    ApproxRowSoftmaxKernel,
    BAPSSoftmaxKernel,
    FlashDAttentionKernel,
    baseline_softmax_counters,
)
from repro.kernels.base import Kernel
from repro.models.attention import BLOCK_TILES, dense_attention_table
from repro.models.config import ModelConfig, all_models
from repro.verify.profiles import (
    ErrorProfile,
    aggregate_profiles,
    measure_error_profile,
)
from repro.verify.refs import exact_attention, exact_softmax

#: Input-magnitude regimes the accuracy stage samples — the same three
#: scales the fuzz generator stresses (attention-logit-like, near
#: exp-overflow, near underflow).
REGIMES: "dict[str, float]" = {
    "normal": 1.0,
    "large": 64.0,
    "tiny": 1e-3,
}

#: Accuracy-stage shape: rows x length per case.  Length is a multiple
#: of the SDF sub-vector size so every variant accepts the same input.
_ACC_ROWS = 16
_ACC_LENGTH = 1024

#: SDF sub-vector length (the paper's T).
_SDF_T = 64

#: Rows and row length the instruction/traffic counters are taken at.
_COUNTER_SHAPE = 4096

#: ``Variant.kernels`` shape per variant kind for the counters: 4096
#: rows of 4096 scores, or a 64-head self-attention block over 4096
#: tokens (a whole-block kernel takes no cross-attention shape).
_COUNTER_KERNELS = {
    "softmax": {"batch_heads": _COUNTER_SHAPE, "m": 1,
                "kv_len": _COUNTER_SHAPE},
    "attention": {"batch_heads": _COUNTER_SHAPE // 64, "m": _COUNTER_SHAPE,
                  "kv_len": _COUNTER_SHAPE},
}


def _sdf_counters(dtype: DType) -> "dict[str, float]":
    elements = float(_COUNTER_SHAPE * _COUNTER_SHAPE)
    stats = float(_COUNTER_SHAPE * (_COUNTER_SHAPE // _SDF_T))
    return {
        # LS exponentiates and divides every element; IR divides
        # once per sub-vector statistic; GS multiplies every
        # element by its broadcast r'.
        "exp_ops": elements,
        "lut_lookups": 0.0,
        "mul_ops": elements,
        "div_ops": elements + stats,
        # LS reads+writes the matrix and writes (m', d'); IR
        # reads both and writes r'; GS reads the matrix and r'
        # and writes the result (see the LS/IR/GS launch specs).
        "dram_bytes": 4.0 * elements * dtype.nbytes + 24.0 * stats,
    }


def _row_softmax(cls) -> "Callable[[Kernel], Kernel]":
    """Override: ``cls`` over the stock row softmax's rows."""
    return lambda stock: cls(stock.rows, stock.length, dtype=stock.dtype)


def _flashd(stock: Kernel) -> Kernel:
    return FlashDAttentionKernel(
        stock.batch_heads, stock.seq_len, stock.d_head, dtype=stock.dtype,
        scale=stock.scale, causal=stock.causal,
    )


@dataclass(frozen=True)
class Variant:
    """One sweep row: the plan graph a variant runs, the role whose
    stock kernel ``override`` replaces (built from that kernel) and the
    oracle declaring its contract.  ``counters`` reports the row's
    instruction/traffic counters; without it they are the override
    kernel's own."""

    name: str
    plan: AttentionPlan
    oracle: "str | None" = None
    role: "str | None" = None
    override: "Callable[[Kernel], Kernel] | None" = None
    counters: "Callable[[DType], dict[str, float]] | None" = None

    @property
    def kind(self) -> str:
        return "softmax" if self.plan.record.block is None else "attention"

    @property
    def reference(self) -> "Variant":
        """The stock kernels the speedup is measured against: the
        baseline graph for the softmax family, this very whole-block
        plan for attention."""
        return Variant("stock", self.plan if self.kind == "attention"
                       else AttentionPlan.BASELINE)

    def kernels(self, dtype: DType, *, batch_heads: int, m: int,
                kv_len: int, d_head: int = 64) -> "dict[str, Kernel]":
        """``role -> kernel`` for every node but the two MatMuls, in
        launch order."""
        table = dense_attention_table(
            batch_heads=batch_heads, m=m, kv_len=kv_len, d_head=d_head,
            t=_SDF_T, dtype=dtype, tiles=BLOCK_TILES,
        )
        built = {}
        for node in plan_graph(self.plan).nodes:
            if node.role not in ("qk", "av"):
                kernel = table[node.role]()
                built[node.role] = (self.override(kernel)
                                    if node.role == self.role else kernel)
        return built

    def report(self, dtype: DType,
               accuracy: "dict[str, object]") -> "VariantReport":
        """An empty-grid report: ``accuracy`` judged against the
        oracle registry's declared budget, plus the counters."""
        contract = satisfied = None
        if self.oracle is not None:
            from repro.verify.oracles import default_registry

            contract = default_registry().get(self.oracle).profile_for(dtype)
            satisfied = not ErrorProfile(**{
                f.name: accuracy[f.name] for f in fields(ErrorProfile)
            }).exceedances(contract)
        counters = (self.counters(dtype) if self.counters is not None
                    else self.kernels(dtype, **_COUNTER_KERNELS[self.kind])
                    [self.role].counters())
        return VariantReport(
            name=self.name, kind=self.kind, accuracy=accuracy,
            contract=None if contract is None else asdict(contract),
            contract_satisfied=satisfied, counters=counters,
        )


#: The sweep's rows, in report order.
VARIANTS = (
    Variant("baseline", AttentionPlan.BASELINE,
            counters=lambda dtype: baseline_softmax_counters(
                _COUNTER_SHAPE, _COUNTER_SHAPE, dtype)),
    Variant("sdf", AttentionPlan.DECOMPOSED, counters=_sdf_counters),
    Variant("lut", AttentionPlan.BASELINE, "softmax.lut_kernel",
            "softmax", _row_softmax(ApproxRowSoftmaxKernel)),
    Variant("baps", AttentionPlan.BASELINE, "softmax.baps_kernel",
            "softmax", _row_softmax(BAPSSoftmaxKernel)),
    Variant("flashd", AttentionPlan.FLASH, "attention.flashd_vs_exact",
            "flash", _flashd),
)
_ROWS = {v.name: v for v in VARIANTS}

#: Softmax-family sweep variants, in report order.
SOFTMAX_VARIANTS = tuple(v.name for v in VARIANTS if v.kind == "softmax")


@dataclass(frozen=True)
class SweepPoint:
    """One priced grid point: a variant's softmax work for one layer."""

    model: str
    seq_len: int
    rows: int
    time_s: float
    dram_bytes: float
    baseline_time_s: float

    @property
    def speedup(self) -> float:
        return self.baseline_time_s / self.time_s if self.time_s else 0.0

    def to_dict(self) -> "dict[str, object]":
        return {**asdict(self), "speedup_vs_baseline": self.speedup}


@dataclass
class VariantReport:
    """One variant's measured accuracy plus priced speed."""

    name: str
    kind: str  # "softmax" or "attention"
    accuracy: "dict[str, object]"
    contract: "dict[str, object] | None"
    contract_satisfied: "bool | None"
    counters: "dict[str, float]"
    points: "list[SweepPoint]" = field(default_factory=list)
    #: Grid points whose kernels do not fit the GPU: model, seq_len
    #: and the error text.
    infeasible: "list[dict[str, object]]" = field(default_factory=list)

    @property
    def mean_speedup(self) -> "float | None":
        """Geometric-mean speedup over the grid; ``None`` when no grid
        point priced."""
        if not self.points:
            return None
        logs = [np.log(p.speedup) for p in self.points if p.speedup > 0]
        return float(np.exp(np.mean(logs))) if logs else 0.0

    @property
    def p99_row_err(self) -> float:
        return float(self.accuracy.get("p99_row_err", 0.0))

    def to_dict(self) -> "dict[str, object]":
        out = {
            "kind": self.kind,
            "accuracy": self.accuracy,
            "contract": self.contract,
            "contract_satisfied": self.contract_satisfied,
            "counters": self.counters,
            "points": [p.to_dict() for p in self.points],
        }
        if self.infeasible:
            out["infeasible"] = self.infeasible
        out["mean_speedup"] = self.mean_speedup
        return out


def _case_inputs(regime: str, scale: float, case: int, seed: int,
                 length: int) -> np.ndarray:
    """Deterministic scores for one accuracy case (pure function of
    the sweep parameters — re-running the sweep reproduces it)."""
    rng = np.random.default_rng(
        [seed, sorted(REGIMES).index(regime), case]
    )
    return (rng.standard_normal((_ACC_ROWS, length)) * scale).astype(
        np.float32
    )


def _softmax_fns(dtype: DType, length: int):
    """``name -> row-softmax callable`` for the accuracy stage: each
    row's softmax kernel at the accuracy shape; SD, which has none,
    runs the decomposition's numerics."""

    def sdf(x: np.ndarray) -> np.ndarray:
        return dtype.quantize(decomposed_softmax(dtype.quantize(x), _SDF_T))

    fns = {}
    for name in SOFTMAX_VARIANTS:
        kernels = _ROWS[name].kernels(dtype, batch_heads=_ACC_ROWS, m=1,
                                      kv_len=length)
        fns[name] = (kernels["softmax"].compute if "softmax" in kernels
                     else sdf)
    return fns


def measure_softmax_accuracy(
    *, dtype: DType, cases: int, seed: int, length: int = _ACC_LENGTH
) -> "dict[str, dict[str, object]]":
    """Aggregated error profile per softmax variant vs float64 exact."""
    fns = _softmax_fns(dtype, length)
    profiles: "dict[str, list[ErrorProfile]]" = {n: [] for n in fns}
    for regime, scale in sorted(REGIMES.items()):
        for case in range(cases):
            x = _case_inputs(regime, scale, case, seed, length)
            expected = exact_softmax(dtype.quantize(x))
            for name, fn in fns.items():
                profiles[name].append(
                    measure_error_profile(fn(x), expected, dtype)
                )
    return {name: aggregate_profiles(ps) for name, ps in profiles.items()}


def measure_flashd_accuracy(
    *, dtype: DType, cases: int, seed: int, seq_len: int = 256,
    d_head: int = 64
) -> "dict[str, object]":
    """Aggregated FLASH-D error profile vs float64 exact attention."""
    profiles: "list[ErrorProfile]" = []
    kernel = _ROWS["flashd"].kernels(
        dtype, batch_heads=2, m=seq_len, kv_len=seq_len, d_head=d_head
    )["flash"]
    for regime, mag in sorted(REGIMES.items()):
        for case in range(cases):
            rng = np.random.default_rng(
                [seed, 101, sorted(REGIMES).index(regime), case]
            )
            # Only Q carries the regime magnitude: the regimes stress
            # the softmax *score* scale, while K and V stay at unit
            # scale so the output (and its absolute error) remains
            # comparable across regimes.
            q = (rng.standard_normal((2, seq_len, d_head)) * mag).astype(
                np.float32
            )
            k, v = (
                rng.standard_normal((2, seq_len, d_head)).astype(np.float32)
                for _ in range(2)
            )
            expected, _, _ = exact_attention(q, k, v, dtype,
                                             scale=kernel.scale)
            profiles.append(
                measure_error_profile(
                    kernel.compute(q, k, v), expected, dtype, row_kl=False
                )
            )
    return aggregate_profiles(profiles)


def _price(variant: Variant, model: ModelConfig, seq_len: int, dtype: DType,
           spec: GPUSpec) -> "tuple[float, float]":
    """``(time_s, dram_bytes)`` of one layer's work under ``variant``."""
    kernels = variant.kernels(
        dtype, batch_heads=model.num_heads, m=seq_len, kv_len=seq_len,
        d_head=model.d_head,
    ).values()
    launches = [kernel.launch_spec(spec) for kernel in kernels]
    time_s = sum(time_kernel(spec, launch).time for launch in launches)
    dram = sum(launch.dram_bytes for launch in launches)
    # The softmax family reports its sub-layers' traffic as a float sum;
    # a whole-block plan reports its one launch's byte count as is.
    return time_s, float(dram) if variant.kind == "softmax" else dram


def _pareto_frontier(softmax: "list[VariantReport]") -> "list[str]":
    """Names on the accuracy-speed frontier of ``softmax``.

    A variant is dominated when another is at least as good on both
    axes (p99 row error down, mean speedup up) and strictly better on
    one.
    """
    return [v.name for v in softmax if not any(
        o.p99_row_err <= v.p99_row_err and o.mean_speedup >= v.mean_speedup
        and (o.p99_row_err < v.p99_row_err
             or o.mean_speedup > v.mean_speedup)
        for o in softmax
    )]


def run_sweep(
    *,
    gpu: GPUSpec,
    models: "list[ModelConfig] | None" = None,
    seq_lens: "tuple[int, ...]" = (256, 512, 1024, 2048, 4096),
    dtype: DType = DType.FP16,
    cases: int = 8,
    seed: int = 0,
) -> "dict[str, object]":
    """The full sweep: a ``repro.approx_sweep/v1`` report document."""
    require_positive("cases", cases)
    if models is None:
        models = list(all_models())
    accuracy = measure_softmax_accuracy(dtype=dtype, cases=cases, seed=seed)
    accuracy["flashd"] = measure_flashd_accuracy(
        dtype=dtype, cases=cases, seed=seed
    )

    variants: "dict[str, VariantReport]" = {}
    for row in VARIANTS:
        report = variants[row.name] = row.report(dtype, accuracy[row.name])
        for model in models:
            for seq_len in seq_lens:
                try:
                    base_time, _ = _price(row.reference, model, seq_len,
                                          dtype, gpu)
                    time_s, dram = _price(row, model, seq_len, dtype, gpu)
                except (KernelError, ShapeError) as err:
                    report.infeasible.append({
                        "model": model.name, "seq_len": seq_len,
                        "error": str(err),
                    })
                    continue
                report.points.append(SweepPoint(
                    model=model.name, seq_len=seq_len,
                    rows=model.num_heads * seq_len,
                    time_s=time_s, dram_bytes=dram,
                    baseline_time_s=base_time,
                ))

    # A variant with no priced point has no speedup to compare.
    priced = [variants[n] for n in SOFTMAX_VARIANTS if variants[n].points]
    baseline = variants["baseline"]
    dominates = [
        v.name for v in priced
        if v.name != "baseline"
        and v.mean_speedup > 1.0
        and all(p.speedup > 1.0 for p in v.points)
        and v.p99_row_err <= baseline.p99_row_err
    ]
    return {
        "schema": APPROX_SWEEP_SCHEMA,
        "kind": "approx-sweep",
        "gpu": gpu.name,
        "dtype": dtype.value,
        "seed": seed,
        "cases_per_regime": cases,
        "regimes": sorted(REGIMES),
        "models": [m.name for m in models],
        "seq_lens": list(seq_lens),
        "sdf_t": _SDF_T,
        "variants": {n: v.to_dict() for n, v in variants.items()},
        "pareto_frontier": _pareto_frontier(priced),
        "dominates_baseline": dominates,
    }


def render_sweep(report: "dict[str, object]") -> str:
    """Human-readable rendering of a sweep report."""
    lines = [
        f"approx-sweep on {report['gpu']} ({report['dtype']}, "
        f"{report['cases_per_regime']} cases x "
        f"{len(report['regimes'])} regimes, seed={report['seed']})",
        f"  models: {', '.join(report['models'])}; "
        f"seq_lens: {report['seq_lens']}",
    ]
    for name, v in report["variants"].items():
        acc = v["accuracy"]
        verdict = {True: "within budget", False: "EXCEEDS BUDGET",
                   None: "exact (no budget)"}[v["contract_satisfied"]]
        kl = (f" row_kl={acc['max_row_kl']:.2e}"
              if acc.get("max_row_kl") is not None else "")
        speed = ("no feasible points" if v["mean_speedup"] is None
                 else f"x{v['mean_speedup']:.2f} mean speedup")
        lines.append(
            f"  {name:<9} ({v['kind']}): {speed}, "
            f"p99_row_err={acc['p99_row_err']:.2e}{kl}, {verdict}"
        )
        lines.extend(
            f"    infeasible at {p['model']} L={p['seq_len']}: {p['error']}"
            for p in v.get("infeasible", ())
        )
    lines.append(
        f"  pareto frontier: {', '.join(report['pareto_frontier'])}"
    )
    dominates = report["dominates_baseline"]
    lines.append(
        "  dominates baseline: "
        + (", ".join(dominates) if dominates else "none")
    )
    return "\n".join(lines)
