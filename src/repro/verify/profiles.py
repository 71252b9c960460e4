"""Error-profile contracts: accuracy as a *measurement*, not a verdict.

The tolerance contracts of :mod:`repro.verify.contracts` encode a
binary question — do two implementations agree to within reassociation
noise?  An *approximate* kernel (LUT exp, low-precision accumulation)
fails that question by design; the right question is "how far from the
exact answer is it, and is that distance within its declared budget?".

An :class:`ErrorProfileContract` declares the budget along three axes
(the axes Vasyltsov & Chang use to characterise their softmax
approximation):

``max_ulp``
    Element-wise ULP ceiling measured in the storage dtype — the
    scale-free bound that works from denormals to the exp-overflow
    regime.
``mean_rel_err``
    Mean relative error over all finite positions — the "typical"
    accuracy a consumer of the approximation sees.
``max_row_kl``
    Worst-row KL divergence ``KL(p_ref || p_approx)`` — the
    distribution-level distortion of the softmax output, the quantity
    that actually matters for attention quality.  ``None`` for outputs
    with no probability interpretation (e.g. attention outputs).
``max_abs_err``
    Element-wise absolute ceiling; also seeds the tolerance the
    metamorphic invariant layer widens by.

:func:`measure_error_profile` produces the matching measurement, an
:class:`ErrorProfile`, from a candidate/reference pair; the fuzz
driver records the profile on every case and aggregates per oracle, so
``repro verify fuzz`` reports *how* accurate each variant is rather
than only whether it matched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.dtypes import DType
from repro.verify.contracts import ToleranceContract, ulp_distance

#: Relative-error denominators are floored at the storage dtype's
#: smallest normal: below it, "relative" error is quantisation noise.
_REL_FLOOR = {
    DType.FP16: float(np.finfo(np.float16).tiny),
    DType.FP32: float(np.finfo(np.float32).tiny),
}

#: KL clamps the candidate at the storage dtype's smallest subnormal,
#: so reference mass that underflows the storage format contributes a
#: finite (and negligible) penalty instead of ``inf``.
_KL_FLOOR = {
    DType.FP16: float(np.finfo(np.float16).smallest_subnormal),
    DType.FP32: float(np.finfo(np.float32).smallest_subnormal),
}


@dataclass(frozen=True)
class ErrorProfileContract:
    """Declared accuracy budget of one approximate implementation."""

    max_ulp: int
    mean_rel_err: float
    max_abs_err: float
    max_row_kl: "float | None" = None

    def tolerance(self) -> ToleranceContract:
        """The element-wise tolerance the invariant layer widens by.

        Metamorphic identities (row sums, masked zeros) can only hold
        to the approximation's own error level, so the derived
        tolerance carries the declared absolute/ULP budget.
        """
        return ToleranceContract(
            atol=self.max_abs_err,
            rtol=self.mean_rel_err,
            max_ulp=self.max_ulp,
        )

    def describe(self) -> str:
        parts = [
            f"ulp<={self.max_ulp}",
            f"mean_rel<={self.mean_rel_err:g}",
            f"abs<={self.max_abs_err:g}",
        ]
        if self.max_row_kl is not None:
            parts.append(f"row_kl<={self.max_row_kl:g}")
        return ", ".join(parts)


@dataclass(frozen=True)
class ErrorProfile:
    """Measured accuracy of a candidate against the exact reference."""

    max_ulp: int
    mean_rel_err: float
    max_abs_err: float
    #: Worst per-row KL divergence; ``None`` when the output has no
    #: probability interpretation.
    max_row_kl: "float | None"
    #: 99th percentile of the per-row max absolute error — the "row
    #: error" axis of the accuracy-vs-speed Pareto report.
    p99_row_err: float
    rows: int
    elements: int

    def exceedances(
        self, contract: ErrorProfileContract
    ) -> "list[tuple[str, float, float]]":
        """``(metric, measured, bound)`` for every violated budget."""
        out: "list[tuple[str, float, float]]" = []
        if self.max_ulp > contract.max_ulp:
            out.append(("max_ulp", float(self.max_ulp),
                        float(contract.max_ulp)))
        if self.mean_rel_err > contract.mean_rel_err:
            out.append(("mean_rel_err", self.mean_rel_err,
                        contract.mean_rel_err))
        if self.max_abs_err > contract.max_abs_err:
            out.append(("max_abs_err", self.max_abs_err,
                        contract.max_abs_err))
        if (contract.max_row_kl is not None and self.max_row_kl is not None
                and self.max_row_kl > contract.max_row_kl):
            out.append(("max_row_kl", self.max_row_kl,
                        contract.max_row_kl))
        return out

    def describe(self) -> str:
        parts = [
            f"ulp={self.max_ulp}",
            f"mean_rel={self.mean_rel_err:.3e}",
            f"abs={self.max_abs_err:.3e}",
        ]
        if self.max_row_kl is not None:
            parts.append(f"row_kl={self.max_row_kl:.3e}")
        parts.append(f"p99_row={self.p99_row_err:.3e}")
        return " ".join(parts)

    def to_dict(self) -> "dict[str, object]":
        return {
            "max_ulp": int(self.max_ulp),
            "mean_rel_err": self.mean_rel_err,
            "max_abs_err": self.max_abs_err,
            "max_row_kl": self.max_row_kl,
            "p99_row_err": self.p99_row_err,
            "rows": self.rows,
            "elements": self.elements,
        }


def row_kl_divergence(
    reference: np.ndarray, candidate: np.ndarray, dtype: DType
) -> np.ndarray:
    """Per-row ``KL(p_ref || p_cand)`` along the last axis.

    Rows whose reference mass is zero (fully masked) report 0.  The
    candidate is clamped at the storage dtype's smallest subnormal so
    reference mass that legitimately underflows the format costs
    ``p * log(p / subnormal)`` — negligible for the denormal tails the
    fuzz regimes produce — instead of ``inf``.  Negative sums (possible
    when the candidate is not exactly normalised) clamp to 0.
    """
    p = np.asarray(reference, dtype=np.float64)
    q = np.maximum(np.asarray(candidate, dtype=np.float64), _KL_FLOOR[dtype])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0.0, p * (np.log(p) - np.log(q)), 0.0)
    return np.maximum(terms.sum(axis=-1), 0.0)


def measure_error_profile(
    actual: np.ndarray,
    expected: np.ndarray,
    dtype: DType,
    *,
    row_kl: bool = True,
) -> ErrorProfile:
    """Measure ``actual`` against the exact ``expected`` reference.

    ``expected`` is a *higher-precision* reference (float64 math), not
    a peer implementation — the profile characterises distance from
    the true answer, which is what makes baseline and approximate
    kernels comparable on one accuracy axis.
    """
    actual = np.asarray(actual, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if actual.shape != expected.shape:
        raise ValueError(
            f"profile shape mismatch: {actual.shape} vs {expected.shape}"
        )
    ulp = ulp_distance(actual, expected, dtype)
    abs_err = np.abs(actual - expected)
    abs_err = np.where(np.isnan(abs_err) & (ulp == 0), 0.0, abs_err)
    abs_err = np.where(np.isfinite(abs_err), abs_err, np.inf)
    rel_err = abs_err / np.maximum(np.abs(expected), _REL_FLOOR[dtype])
    flat_rows = abs_err.reshape(-1, abs_err.shape[-1]) if abs_err.ndim else \
        abs_err.reshape(1, 1)
    row_err = flat_rows.max(axis=-1)
    kl = None
    if row_kl:
        kl = float(row_kl_divergence(expected, actual, dtype).max(initial=0.0))
    return ErrorProfile(
        max_ulp=int(ulp.max(initial=0)),
        mean_rel_err=float(rel_err.mean()) if rel_err.size else 0.0,
        max_abs_err=float(abs_err.max(initial=0.0)),
        max_row_kl=kl,
        p99_row_err=float(np.percentile(row_err, 99.0)) if row_err.size
        else 0.0,
        rows=int(row_err.size),
        elements=int(abs_err.size),
    )


def aggregate_profiles(profiles: "list[ErrorProfile]") -> "dict[str, object]":
    """Fold per-case profiles into one oracle-level measurement.

    Max metrics take the worst case; ``mean_rel_err`` is
    element-weighted; ``p99_row_err`` conservatively reports the worst
    per-case p99 (recomputing a true pooled percentile would need the
    raw row errors, which the driver does not retain).
    """
    if not profiles:
        return {}
    elements = sum(p.elements for p in profiles)
    kls = [p.max_row_kl for p in profiles if p.max_row_kl is not None]
    return {
        "cases": len(profiles),
        "rows": sum(p.rows for p in profiles),
        "elements": elements,
        "max_ulp": max(p.max_ulp for p in profiles),
        "mean_rel_err": (
            sum(p.mean_rel_err * p.elements for p in profiles) / elements
            if elements else 0.0
        ),
        "max_abs_err": max(p.max_abs_err for p in profiles),
        "max_row_kl": max(kls) if kls else None,
        "p99_row_err": max(p.p99_row_err for p in profiles),
    }
