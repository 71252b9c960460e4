"""The approx-sweep speed grid, pinned exactly to a golden.

Every variant's priced ``time_s`` and ``dram_bytes`` (as ``repr``, so
the comparison is bit-exact) over BERT-large and GPT-Neo-1.3B at
L = 256 and 4096, fp16, on an A100, must equal
``tests/golden/approx_speed_grid.json``.  ``make approx-smoke``
compares a whole report at rtol 1e-9; this golden is exact.

Regenerate only when a pricing change is intended::

    PYTHONPATH=src python tests/test_approx_speed_golden.py
"""

import json
import pathlib

from repro.analysis.approx_sweep import run_sweep
from repro.common.dtypes import DType
from repro.gpu.specs import get_gpu
from repro.models import get_model

GOLDEN = pathlib.Path(__file__).parent / "golden" / "approx_speed_grid.json"


def speed_grid() -> dict:
    report = run_sweep(
        gpu=get_gpu("A100"),
        models=[get_model("bert-large"), get_model("gpt-neo-1.3b")],
        seq_lens=(256, 4096), dtype=DType.FP16, cases=1, seed=0,
    )
    return {
        name: [
            {"model": p["model"], "seq_len": p["seq_len"],
             "time_s": repr(p["time_s"]),
             "dram_bytes": repr(p["dram_bytes"])}
            for p in variant["points"]
        ]
        for name, variant in report["variants"].items()
    }


def test_speed_grid_matches_golden():
    assert speed_grid() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(speed_grid(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
