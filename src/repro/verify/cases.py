"""Seeded, shrinkable test-case generation for the fuzz driver.

A *case* is a JSON-serializable parameter dict plus the arrays
deterministically regenerated from it — the arrays are a pure function
of ``params`` (including ``case_seed``), which is what makes failure
artifacts replayable and shrinking sound: the shrinker only ever edits
``params`` and rebuilds.

Each family draws from the regimes the paper's equivalence claim must
survive (Section 3.2 / Eq. 2): ordinary magnitudes, large magnitudes
(exp overflow territory), tiny and denormal values, randomly masked
(``-inf``) positions, and fully masked rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.dtypes import DType
from repro.core.autotune import PAPER_CANDIDATES

FAMILIES = ("softmax", "attention", "block_sparse", "serving")

#: Magnitude/masking regimes for score-like inputs.
REGIMES = ("normal", "large", "tiny", "denormal", "masked", "rowmask")

_ENTROPY = 0x5EED_CA5E


@dataclass
class Case:
    """One fuzz input: replayable params plus the derived arrays."""

    family: str
    params: "dict[str, Any]"
    arrays: "dict[str, np.ndarray]" = field(default_factory=dict)
    aux: "dict[str, Any]" = field(default_factory=dict)

    @property
    def dtype(self) -> DType:
        return DType(self.params.get("dtype", "fp32"))

    @property
    def seed(self) -> int:
        return int(self.params["case_seed"])

    def describe(self) -> str:
        items = ", ".join(
            f"{k}={v}" for k, v in sorted(self.params.items())
            if k != "case_seed"
        )
        return f"{self.family}(seed={self.seed}, {items})"


def _rng(params: "dict[str, Any]") -> np.random.Generator:
    return np.random.default_rng((_ENTROPY, int(params["case_seed"])))


def _apply_regime(x: np.ndarray, regime: str,
                  rng: np.random.Generator) -> np.ndarray:
    """Scale/mask a standard-normal score tensor per the regime."""
    x = x.astype(np.float32)
    if regime == "large":
        x = x * np.float32(256.0)
    elif regime == "tiny":
        x = x * np.float32(1e-3)
    elif regime == "denormal":
        x = x * np.float32(1e-40)  # fp32 denormal range
    elif regime == "masked":
        x = np.where(rng.random(x.shape) < 0.35, -np.inf, x)
    elif regime == "rowmask":
        x = np.where(rng.random(x.shape) < 0.25, -np.inf, x)
        # Force at least one fully masked row (the d = 0 path).
        flat = x.reshape(-1, x.shape[-1])
        flat[rng.integers(flat.shape[0])] = -np.inf
    return x


# --------------------------------------------------------------------
# Parameter drawing
# --------------------------------------------------------------------

def draw_params(family: str, rng: np.random.Generator) -> "dict[str, Any]":
    """Draw one case's parameter dict for ``family``."""
    if family not in FAMILIES:
        raise ValueError(f"unknown verify family {family!r}; "
                         f"expected one of {FAMILIES}")
    case_seed = int(rng.integers(2**31 - 1))
    regime = str(rng.choice(REGIMES))
    dtype = str(rng.choice(("fp32", "fp16")))
    if family == "softmax":
        return {
            "case_seed": case_seed,
            "batch": int(rng.integers(1, 4)),
            "rows": int(rng.integers(1, 7)),
            "t": int(rng.choice((1, 2, 4, 8, 16, 32))),
            "n_sv": int(rng.integers(1, 9)),
            "dtype": dtype,
            "regime": regime,
        }
    if family == "attention":
        return {
            "case_seed": case_seed,
            "bh": int(rng.integers(1, 4)),
            "d": int(rng.choice((4, 8, 16, 32))),
            "t": int(rng.choice((2, 4, 8, 16))),
            "n_sv": int(rng.integers(1, 7)),
            "l_q": int(rng.integers(1, 49)),
            "causal": bool(rng.random() < 0.4),
            "scale": round(float(rng.uniform(0.1, 2.0)), 3),
            "dtype": dtype,
            "regime": regime,
        }
    if family == "block_sparse":
        pattern = str(rng.choice(("bigbird", "longformer", "window",
                                  "random")))
        return {
            "case_seed": case_seed,
            "pattern": pattern,
            "n_blocks": int(rng.integers(4, 9)),
            "block_size": int(rng.choice((4, 8, 16))),
            "bh": int(rng.integers(1, 3)),
            "d": int(rng.choice((8, 16, 32))),
            "causal": bool(rng.random() < 0.3),
            "layout_seed": int(rng.integers(1000)),
            "dtype": dtype,
            "regime": regime,
        }
    # serving
    n_prefill = int(rng.integers(0, 4))
    n_decode = int(rng.integers(0 if n_prefill else 1, 5))
    prefill = []
    for _ in range(n_prefill):
        chunk = int(rng.integers(1, 513))
        prefill.append([chunk, chunk + int(rng.integers(0, 1024))])
    return {
        "case_seed": case_seed,
        "model": str(rng.choice(("tiny-dense", "tiny-causal",
                                 "tiny-mixed", "tiny-local"))),
        "gpu": str(rng.choice(("A100", "T4"))),
        "plan": str(rng.choice([p.value for p in PAPER_CANDIDATES])),
        "t": int(rng.choice((32, 64))),
        "kv_bucket": int(rng.choice((32, 64))),
        "prefill": prefill,
        "decode_kv": [int(rng.integers(1, 2049)) for _ in range(n_decode)],
    }


# --------------------------------------------------------------------
# Array construction
# --------------------------------------------------------------------

def _build_softmax(params, rng) -> Case:
    length = params["t"] * params["n_sv"]
    x = rng.standard_normal((params["batch"], params["rows"], length))
    x = _apply_regime(x, params["regime"], rng)
    return Case("softmax", params, arrays={"x": x})


def _build_attention(params, rng) -> Case:
    bh, d = params["bh"], params["d"]
    l_q = params["l_q"]
    l_k = params["t"] * params["n_sv"]
    scale = 0.25  # keep scores in a regime-controlled range
    q = (rng.standard_normal((bh, l_q, d)) * scale).astype(np.float32)
    q_sq = (rng.standard_normal((bh, l_k, d)) * scale).astype(np.float32)
    k = (rng.standard_normal((bh, l_k, d)) * scale).astype(np.float32)
    v = rng.standard_normal((bh, l_k, d)).astype(np.float32)
    if params["regime"] == "large":
        q, q_sq = q * np.float32(16.0), q_sq * np.float32(16.0)
        k = k * np.float32(16.0)
    elif params["regime"] in ("tiny", "denormal"):
        q, q_sq = q * np.float32(1e-3), q_sq * np.float32(1e-3)
    mask = np.ones((bh, l_q, l_k), dtype=bool)
    if params["regime"] in ("masked", "rowmask"):
        mask = rng.random((bh, l_q, l_k)) >= 0.3
        if params["regime"] == "rowmask":
            mask[rng.integers(bh), rng.integers(l_q)] = False
    return Case("attention", params,
                arrays={"q": q, "q_sq": q_sq, "k": k, "v": v, "mask": mask})


def _build_layout(params):
    from repro.sparse.layout import BlockSparseLayout
    from repro.sparse.patterns import (
        bigbird_layout,
        longformer_layout,
        sliding_window_layout,
    )

    n, bs = params["n_blocks"], params["block_size"]
    seq_len = n * bs
    pattern = params["pattern"]
    # Keep the builder total over the whole (shrinkable) param space:
    # patterns that need more block rows than the case has degrade to a
    # sliding window deterministically.
    if pattern == "bigbird" and n >= 5:
        return bigbird_layout(seq_len, bs, seed=params["layout_seed"])
    if pattern == "longformer" and n >= 3:
        return longformer_layout(seq_len, bs, window=4 * bs)
    if pattern in ("bigbird", "longformer", "window"):
        return sliding_window_layout(seq_len, bs,
                                     window_blocks=min(3, n))
    layout_rng = np.random.default_rng(params["layout_seed"])
    mask = layout_rng.random((n, n)) < 0.45
    if n > 2:
        mask[layout_rng.integers(n)] = False  # keep an empty block row
    mask[0, 0] = True  # never fully empty
    return BlockSparseLayout(mask, bs)


def _build_block_sparse(params, rng) -> Case:
    layout = _build_layout(params)
    bh, d, bs = params["bh"], params["d"], layout.block_size
    shape = (bh, layout.seq_len, d)
    q, k, v = (rng.standard_normal(shape).astype(np.float32)
               for _ in range(3))
    if params["regime"] == "large":
        q, k = q * np.float32(16.0), k * np.float32(16.0)
    blocks = rng.standard_normal(
        (bh, layout.nnz_blocks, bs, bs))
    blocks = _apply_regime(blocks, params["regime"], rng)
    m_prime = rng.standard_normal(
        (bh, layout.nnz_blocks, bs)).astype(np.float32)
    d_prime = (rng.random((bh, layout.nnz_blocks, bs)) + 0.05).astype(
        np.float32)
    if params["regime"] in ("masked", "rowmask"):
        # d' = 0 marks fully masked sub-vectors (the empty-reduction path).
        zero = rng.random(d_prime.shape) < 0.3
        d_prime = np.where(zero, 0.0, d_prime).astype(np.float32)
        m_prime = np.where(zero, -np.inf, m_prime).astype(np.float32)
    return Case("block_sparse", params,
                arrays={"q": q, "k": k, "v": v, "blocks": blocks,
                        "m_prime": m_prime, "d_prime": d_prime},
                aux={"layout": layout})


def build_case(family: str, params: "dict[str, Any]") -> Case:
    """Rebuild the full case (arrays included) from its params."""
    rng = _rng(params)
    if family == "softmax":
        return _build_softmax(params, rng)
    if family == "attention":
        return _build_attention(params, rng)
    if family == "block_sparse":
        return _build_block_sparse(params, rng)
    if family == "serving":
        return Case("serving", params)
    raise ValueError(f"unknown verify family {family!r}")


# --------------------------------------------------------------------
# Shrinking
# --------------------------------------------------------------------

def _with(params, **updates):
    new = dict(params)
    new.update(updates)
    return new


def shrink_candidates(family: str, params: "dict[str, Any]"):
    """Yield strictly simpler parameter dicts, most aggressive first.

    The fuzz driver keeps a candidate only if the failure reproduces on
    it, so these are *proposals*; soundness comes from re-running.
    """
    out = []

    def halve(key, floor=1):
        if params.get(key, floor) > floor:
            out.append(_with(params, **{key: max(floor, params[key] // 2)}))

    if family == "softmax":
        halve("batch"), halve("rows"), halve("n_sv"), halve("t")
        if params["regime"] != "normal":
            out.append(_with(params, regime="normal"))
        if params["dtype"] != "fp32":
            out.append(_with(params, dtype="fp32"))
    elif family == "attention":
        halve("bh"), halve("l_q"), halve("n_sv"), halve("t", 2)
        halve("d", 4)
        if params["causal"]:
            out.append(_with(params, causal=False))
        if params["regime"] != "normal":
            out.append(_with(params, regime="normal"))
        if params["dtype"] != "fp32":
            out.append(_with(params, dtype="fp32"))
    elif family == "block_sparse":
        halve("bh"), halve("n_blocks", 2), halve("block_size", 2)
        halve("d", 4)
        if params["causal"]:
            out.append(_with(params, causal=False))
        if params["regime"] != "normal":
            out.append(_with(params, regime="normal"))
        if params["pattern"] != "window":
            out.append(_with(params, pattern="window"))
        if params["dtype"] != "fp32":
            out.append(_with(params, dtype="fp32"))
    elif family == "serving":
        if params["prefill"]:
            out.append(_with(params, prefill=params["prefill"][:-1]))
            shrunk = [[max(1, c // 2), max(1, kv // 2)]
                      for c, kv in params["prefill"]]
            if shrunk != params["prefill"]:
                out.append(_with(params, prefill=shrunk))
        if params["decode_kv"]:
            out.append(_with(params, decode_kv=params["decode_kv"][:-1]))
            shrunk = [max(1, kv // 2) for kv in params["decode_kv"]]
            if shrunk != params["decode_kv"]:
                out.append(_with(params, decode_kv=shrunk))
        if params["plan"] != "baseline":
            out.append(_with(params, plan="baseline"))
        if params["model"] != "tiny-dense":
            out.append(_with(params, model="tiny-dense"))
    return out


def complexity(family: str, params: "dict[str, Any]") -> float:
    """Scalar size metric the shrinker must strictly decrease."""
    if family == "softmax":
        return (params["batch"] * params["rows"] * params["t"]
                * params["n_sv"]
                + (0 if params["regime"] == "normal" else 0.5)
                + (0 if params["dtype"] == "fp32" else 0.25))
    if family == "attention":
        return (params["bh"] * params["d"]
                * (params["l_q"] + params["t"] * params["n_sv"])
                + params["causal"]
                + (0 if params["regime"] == "normal" else 0.5)
                + (0 if params["dtype"] == "fp32" else 0.25))
    if family == "block_sparse":
        return (params["bh"] * params["d"]
                * (params["n_blocks"] * params["block_size"]) ** 2
                + params["causal"]
                + (0 if params["regime"] == "normal" else 0.5)
                + (0 if params["pattern"] == "window" else 0.25)
                + (0 if params["dtype"] == "fp32" else 0.125))
    total = sum(c + kv for c, kv in params["prefill"])
    total += sum(params["decode_kv"])
    total += len(params["prefill"]) + len(params["decode_kv"])
    return (total + (0 if params["plan"] == "baseline" else 0.5)
            + (0 if params["model"] == "tiny-dense" else 0.25))
