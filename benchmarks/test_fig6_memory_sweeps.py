"""Fig. 6: off-chip memory sweeps of the attention matrix per plan.

Paper (BERT-large, L=4096, T=64, half precision): the baseline SDA
block accesses the attention matrix four times (QK^T write, softmax
read+write, AV read); after softmax recomposition only two accesses
remain (fused QK^T+LS write, fused GS+AV read), and the m'/d'/r'
intermediates add only 1/T-scale traffic.
"""

import pytest

from repro.analysis import render_table
from repro.core import AttentionPlan, attention_matrix_sweeps
from repro.core.autotune import PAPER_CANDIDATES
from repro.gpu import Device
from repro.models import AttentionKind, AttentionSpec, SDABlock

BH, L, D, T = 16, 4096, 64, 64
MATRIX_BYTES = BH * L * L * 2  # fp16 attention matrix, all heads
QKV_BYTES = 3 * BH * L * D * 2
OUTPUT_BYTES = BH * L * D * 2


def measure_sda_traffic():
    spec = AttentionSpec(kind=AttentionKind.DENSE)
    traffic = {}
    for plan in (p.value for p in PAPER_CANDIDATES):
        device = Device("A100")
        SDABlock(batch=1, num_heads=BH, seq_len=L, d_head=D,
                 spec=spec, plan=plan, t=T).simulate(device)
        traffic[plan] = device.profile.total_dram_bytes()
    return traffic


def test_fig6_memory_sweeps(benchmark, report):
    traffic = benchmark(measure_sda_traffic)

    rows = []
    for plan_name, measured in traffic.items():
        plan = AttentionPlan.from_name(plan_name)
        expected_sweeps = attention_matrix_sweeps(plan)
        matrix_traffic = measured - QKV_BYTES - OUTPUT_BYTES
        rows.append([
            plan_name,
            expected_sweeps,
            f"{matrix_traffic / MATRIX_BYTES:.2f}",
            f"{measured / 1e9:.2f} GB",
        ])
    report("fig6_memory_sweeps", render_table(
        ["plan", "paper sweeps", "measured sweeps (matrix-sized)",
         "total SDA traffic"], rows,
    ))

    def sweeps(plan):
        return (traffic[plan] - QKV_BYTES - OUTPUT_BYTES) / MATRIX_BYTES

    # Baseline: 4 sweeps.  SD: 6.  SDF: 2 plus 1/T-scale intermediates.
    assert sweeps("baseline") == pytest.approx(4.0, rel=0.02)
    assert sweeps("sd") == pytest.approx(6.0, rel=0.05)
    assert sweeps("sdf") == pytest.approx(2.0, rel=0.15)
    # Halved matrix accesses; the small Q/K/V and intermediate traffic
    # keeps the total just above exactly half.
    assert traffic["sdf"] < 0.6 * traffic["baseline"]

    # The m'/d'/r' overhead beyond the two sweeps is exactly 1/T-scale:
    # the fused QK writes m'+d' (8 B), IR re-reads them and writes r'
    # (12 B), and the fused AV reads r' (4 B) — 24 bytes per T fp16
    # elements across the two matrix sweeps, i.e. 12/T of one matrix.
    overhead = sweeps("sdf") - 2.0
    assert 0 < overhead <= 12 / T + 1e-9
