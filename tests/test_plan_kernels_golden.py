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
from repro.common.errors import PlanError, ReproError
from repro.core import AttentionPlan
from repro.core.autotune import PAPER_CANDIDATES
from repro.gpu import Device
from repro.models import AttentionKind, AttentionSpec, SDABlock
from repro.models.config import get_model
from repro.models.generation import (
    STEP_GRAPHS,
    attention_step_kernels,
    step_shape_kind,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "plan_kernels.json"
T_VALUES = (32, 64)


def _block(kind, **shape):
    def build(plan, t):
        kwargs = dict(batch=1, num_heads=4, seq_len=256, d_head=64)
        kwargs.update(shape)
        return SDABlock(spec=AttentionSpec(kind=kind), plan=plan, t=t,
                        **kwargs).kernels
    return build


def _step(layer, m_tokens, kv_len, model="gpt-neo-1.3b", tp_shards=2):
    def build(plan, t):
        return attention_step_kernels(
            get_model(model), layer, m_tokens=m_tokens,
            kv_len=kv_len, plan=plan, t=t, prefix="step",
            tp_shards=tp_shards)
    return build


#: Shape kind -> builder(plan, t) returning the kernel list.
SHAPES = {
    "dense": _block(AttentionKind.DENSE),
    "causal": _block(AttentionKind.DENSE_CAUSAL),
    "bigbird": _block(AttentionKind.BIGBIRD, seq_len=1024, num_heads=2),
    # kv_seq_len 96 is not a multiple of T=64: the decomposed plans
    # must reject it.
    "cross": _block(AttentionKind.DENSE, seq_len=128, kv_seq_len=96),
    # Fewer query rows than one 128-row MatMul tile.
    "dense-short": _block(AttentionKind.DENSE, seq_len=64),
    # GPT-Neo layer 0 is global, layer 1 local (windowed).
    "step-prefill": _step(0, m_tokens=100, kv_len=300),
    "step-decode": _step(0, m_tokens=1, kv_len=300),
    "step-windowed": _step(1, m_tokens=100, kv_len=600),
    # A square prefill step: the whole-block plans still have no
    # serving-step kernels here.
    "step-whole": _step(0, m_tokens=256, kv_len=256),
    # A non-causal model at one GPU.
    "step-prefill-dense": _step(0, m_tokens=100, kv_len=300,
                                model="bert-large", tp_shards=1),
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


#: Serving shape kind -> the golden shape that exercises it.
STEP_SHAPES = {"prefill": "step-prefill", "decode": "step-decode",
               "windowed": "step-windowed"}


class TestServingShapeKinds:
    """The ``(shape kind, plan) -> graph`` table behind every serving
    step (:data:`repro.models.generation.STEP_GRAPHS`)."""

    @pytest.mark.parametrize("m_tokens", [1, 100])
    def test_local_causal_layer_is_windowed(self, m_tokens):
        gpt_neo = get_model("gpt-neo-1.3b")
        assert step_shape_kind(gpt_neo.layer_attention(1),
                               m_tokens) == "windowed"
        assert step_shape_kind(gpt_neo.layer_attention(0), m_tokens) \
            == ("decode" if m_tokens == 1 else "prefill")

    def test_table_covers_every_shape_kind(self):
        assert set(STEP_GRAPHS) == set(STEP_SHAPES)

    @pytest.mark.parametrize("kind", sorted(STEP_SHAPES))
    @pytest.mark.parametrize("plan", PAPER_CANDIDATES,
                             ids=lambda plan: plan.value)
    def test_paper_plans_build_for_every_shape_kind(self, plan, kind):
        assert SHAPES[STEP_SHAPES[kind]](plan, 64)

    # The ablation plans (sdf-ls-only, sdf-gs-only) decompose too, and
    # build; the related-work plans have no rectangular kernels.
    @pytest.mark.parametrize(
        "plan", [p for p in AttentionPlan if p not in PAPER_CANDIDATES
                 and not p.record.decompose],
        ids=lambda plan: plan.value)
    @pytest.mark.parametrize("shape", ["step-prefill", "step-whole"])
    def test_other_plans_raise_on_prefill(self, plan, shape):
        with pytest.raises(PlanError, match=rf"'{plan.value}' plan .* "
                                            r"prefill serving steps"):
            SHAPES[shape](plan, 64)


if __name__ == "__main__":
    document = {shape: collect(shape) for shape in sorted(SHAPES)}
    GOLDEN.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
