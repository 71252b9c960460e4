#!/usr/bin/env python
"""Quickstart: softmax recomposition in five minutes.

1. The math: decomposing softmax into LS / IR / GS sub-layers (Eq. 2)
   is exact — no approximation is involved.
2. The system: running BERT-large at sequence length 4096 on a
   simulated A100 under the baseline and recomposed (SDF) plans
   reproduces the paper's headline 1.25x speedup.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    InferenceSession,
    SoftmaxDecomposition,
    attention_matrix_sweeps,
    decomposed_softmax,
)
from repro.analysis import render_table
from repro.core.autotune import PAPER_CANDIDATES
from repro.kernels.softmax import safe_softmax


def demo_math():
    print("=" * 64)
    print("1. Softmax decomposition is exact (Eq. 2)")
    print("=" * 64)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 256)).astype(np.float32) * 5

    y_monolithic = safe_softmax(x)
    y_decomposed = decomposed_softmax(x, t=64)
    error = np.abs(y_monolithic - y_decomposed).max()
    print(f"rows: {x.shape[0]}, length: {x.shape[1]}, sub-vector T=64")
    print(f"max |softmax - decomposed softmax| = {error:.2e}")

    # The staged API exposes the three sub-layers individually.
    dec = SoftmaxDecomposition(t=64)
    x_prime, m_prime, d_prime = dec.local(x)
    r_prime = dec.reduce(m_prime, d_prime)
    y_staged = dec.scale(x_prime, r_prime)
    print(f"staged LS -> IR -> GS max error   = "
          f"{np.abs(y_monolithic - y_staged).max():.2e}")
    print(f"reconstruction factors per row sum to "
          f"{r_prime.sum(axis=-1).mean():.6f} (convex recombination)")
    print()


def demo_sweeps():
    print("=" * 64)
    print("2. Off-chip sweeps of the attention matrix (Fig. 6)")
    print("=" * 64)
    for plan in PAPER_CANDIDATES:
        print(f"{plan.value:10s} -> {attention_matrix_sweeps(plan)} sweeps")
    print()


def demo_speedup():
    print("=" * 64)
    print("3. BERT-large, L=4096, simulated A100 (paper: 1.25x)")
    print("=" * 64)
    rows = []
    baseline = None
    for plan in (p.value for p in PAPER_CANDIDATES):
        result = InferenceSession("bert-large", gpu="A100", plan=plan,
                                  seq_len=4096).simulate()
        if baseline is None:
            baseline = result
        rows.append([
            plan,
            f"{result.total_time * 1e3:.1f} ms",
            f"{result.total_dram_bytes / 1e9:.1f} GB",
            f"{baseline.total_time / result.total_time:.2f}x",
            f"{result.softmax_time_fraction() * 100:.0f}%",
        ])
    print(render_table(
        ["plan", "latency", "off-chip traffic", "speedup", "softmax share"],
        rows,
    ))


if __name__ == "__main__":
    demo_math()
    demo_sweeps()
    demo_speedup()
