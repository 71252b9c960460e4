"""The plan -> kernel mapping of every shape kind, pinned to a golden.

Every plan is built for each shape below at two sub-vector sizes, and
each kernel's class, name, dimensions, tiles and simulated cost on an
A100 must equal ``tests/golden/plan_kernels.json`` exactly (or the
combination must fail with the recorded error type).

Regenerate only when a mapping change is intended::

    PYTHONPATH=src python tests/test_plan_kernels_golden.py
"""

import json
import pathlib

import pytest

from repro.common.dtypes import DType
from repro.common.errors import ReproError
from repro.core import AttentionPlan
from repro.gpu import Device
from repro.models import AttentionKind, AttentionSpec, SDABlock
from repro.models.config import get_model
from repro.models.generation import attention_step_kernels

GOLDEN = pathlib.Path(__file__).parent / "golden" / "plan_kernels.json"
T_VALUES = (32, 64)


def _block(kind, **shape):
    def build(plan, t):
        kwargs = dict(batch=1, num_heads=4, seq_len=256, d_head=64)
        kwargs.update(shape)
        return SDABlock(spec=AttentionSpec(kind=kind), plan=plan, t=t,
                        **kwargs).kernels
    return build


def _step(layer, m_tokens, kv_len):
    def build(plan, t):
        return attention_step_kernels(
            get_model("gpt-neo-1.3b"), layer, m_tokens=m_tokens,
            kv_len=kv_len, plan=plan, t=t, prefix="step", tp_shards=2)
    return build


#: Shape kind -> builder(plan, t) returning the kernel list.
SHAPES = {
    "dense": _block(AttentionKind.DENSE),
    "causal": _block(AttentionKind.DENSE_CAUSAL),
    "bigbird": _block(AttentionKind.BIGBIRD, seq_len=1024, num_heads=2),
    # kv_seq_len 96 is not a multiple of T=64: the decomposed plans
    # must reject it.
    "cross": _block(AttentionKind.DENSE, seq_len=128, kv_seq_len=96),
    # GPT-Neo layer 0 is global, layer 1 local (windowed).
    "step-prefill": _step(0, m_tokens=100, kv_len=300),
    "step-decode": _step(0, m_tokens=1, kv_len=300),
    "step-windowed": _step(1, m_tokens=100, kv_len=600),
}


def _field(value):
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, DType):
        return value.name
    if callable(value):
        return "<callable>"
    if hasattr(value, "nnz_blocks"):  # a block-sparse layout
        return [value.seq_len, value.block_size, value.nnz_blocks]
    return type(value).__name__


def _kernel_record(kernel, device):
    fields = {key: _field(value) for key, value in sorted(vars(kernel).items())
              if not key.startswith("_")}
    device.reset()
    kernel.simulate(device)
    profile = device.profile
    return {
        "class": type(kernel).__name__,
        "name": kernel.name,
        "category": kernel.category,
        "fields": fields,
        "time": profile.total_time(),
        "dram_bytes": profile.total_dram_bytes(),
    }


def collect(shape: str) -> dict:
    """``{"<plan>/t=<t>": [kernel records] | {"error": type}}``."""
    device = Device("A100")
    out = {}
    for plan in AttentionPlan:
        for t in T_VALUES:
            key = f"{plan.value}/t={t}"
            try:
                kernels = SHAPES[shape](plan, t)
            except ReproError as exc:  # the error type is the record
                out[key] = {"error": type(exc).__name__}
                continue
            out[key] = [_kernel_record(kernel, device) for kernel in kernels]
    return out


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_plan_kernels_match_golden(shape):
    golden = json.loads(GOLDEN.read_text())
    assert collect(shape) == golden[shape]


if __name__ == "__main__":
    document = {shape: collect(shape) for shape in sorted(SHAPES)}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
