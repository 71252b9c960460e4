"""Extension benchmark: a full SDA training step under recomposition.

Section 6 argues recomposition applies to the training forward pass
because the softmax backward needs only the output (Eq. 3).  This
benchmark simulates forward + backward of the BERT-large SDA block and
shows the forward savings survive intact while the backward is
unchanged (it reconstructs Y from X' and r' at 1/T-scale extra cost).
"""

import pytest

from repro.analysis import render_table
from repro.core.autotune import PAPER_CANDIDATES
from repro.models.training import TrainingSDAStep


def run():
    out = {}
    for plan in (p.value for p in PAPER_CANDIDATES):
        step = TrainingSDAStep(batch=1, num_heads=16, seq_len=4096,
                               d_head=64, plan=plan)
        out[plan] = step.simulate("A100")
    return out


def test_ablation_training_step(benchmark, report):
    results = benchmark(run)

    rows = []
    for plan, profiles in results.items():
        rows.append([
            plan,
            f"{profiles.forward.total_time() * 1e3:.2f} ms",
            f"{profiles.backward.total_time() * 1e3:.2f} ms",
            f"{profiles.total_time * 1e3:.2f} ms",
            f"{profiles.total_dram_bytes / 1e9:.2f} GB",
        ])
    base, sdf = results["baseline"], results["sdf"]
    report("ablation_training_step", render_table(
        ["plan", "forward", "backward", "step", "traffic"], rows,
    ) + f"\n\nforward speedup {base.forward.total_time() / sdf.forward.total_time():.2f}x, "
        f"whole-step speedup {base.total_time / sdf.total_time:.2f}x")

    # Forward gains match the inference-side result.
    assert base.forward.total_time() / sdf.forward.total_time() > 1.3
    # Backward is plan-independent (Eq. 3 consumes outputs only).
    assert sdf.backward.total_time() == pytest.approx(
        base.backward.total_time(), rel=0.05
    )
    # The whole step still improves despite the heavy backward.
    assert base.total_time / sdf.total_time > 1.1
