"""Emulation profiles for the GPU libraries of Fig. 7.

Each profile is a scheduling policy:

- **HuggingFace** (eager PyTorch): scale and mask run as standalone
  element-wise kernels over the full attention matrix, the framework
  inserts permute/contiguous copies of the hidden states around the
  multi-head reshape, and the generic softmax kernel is less pipelined.
- **FasterTransformer**: element-wise layers fused, one leftover
  layout pass, softmax well tuned.
- **TensorRT**: the best dense schedule — this is what the paper uses
  as its dense baseline softmax (Section 4); identical to the
  library's own ``BASELINE`` plan.
- **DeepSpeed**: like TensorRT with a slightly less-tuned dense
  softmax (the paper replaced DeepSpeed's softmax with TensorRT's
  because it "outperforms DeepSpeed"), and the only library with
  block-sparse (Triton) kernels.
- **AutoTVM**: compiler-generated GEMMs well below cuBLAS efficiency
  and no cross-layer fusion; the paper measured it 1.49x slower than
  their baseline on BERT-large.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.common.dtypes import DType
from repro.common.errors import ConfigError
from repro.core.plan import AttentionPlan
from repro.gpu.device import Device
from repro.gpu.profiler import Profile
from repro.gpu.specs import GPUSpec, get_gpu
from repro.kernels.base import CATEGORY, Kernel
from repro.kernels.elementwise import ScaleMaskKernel, _StreamingKernel
from repro.kernels.softmax import RowSoftmaxKernel
from repro.models.config import ModelConfig
from repro.models.layers import TransformerLayer
from repro.models.runtime import InferenceResult


@dataclass(frozen=True)
class LibraryProfile:
    """Scheduling policy of one GPU library."""

    name: str
    #: Scale/mask run as standalone kernels over the attention matrix
    #: instead of riding the MatMul epilogue.
    separate_scale_mask: bool = False
    #: Permute/contiguous copies of the hidden states per MHA block.
    extra_hidden_passes: int = 0
    #: Row-softmax phase duty (pipelining quality of the softmax kernel).
    softmax_phase_duty: float = 0.6
    #: Multiplier on the device's GEMM pipeline efficiency.
    gemm_efficiency_scale: float = 1.0
    #: Whether the library has block-sparse attention kernels at all.
    supports_sparse: bool = True


HUGGINGFACE = LibraryProfile(
    name="HuggingFace",
    separate_scale_mask=True,
    extra_hidden_passes=4,
    softmax_phase_duty=0.45,
    gemm_efficiency_scale=0.9,
)

FASTER_TRANSFORMER = LibraryProfile(
    name="FasterTransformer",
    extra_hidden_passes=1,
    softmax_phase_duty=0.55,
)

TENSORRT = LibraryProfile(name="TensorRT", softmax_phase_duty=0.6)

DEEPSPEED = LibraryProfile(name="DeepSpeed", softmax_phase_duty=0.55,
                           gemm_efficiency_scale=0.98)

AUTOTVM = LibraryProfile(
    name="AutoTVM",
    separate_scale_mask=True,
    extra_hidden_passes=2,
    softmax_phase_duty=0.45,
    gemm_efficiency_scale=0.8,
    supports_sparse=False,
)

#: The paper's baseline: TensorRT softmax for dense attention,
#: DeepSpeed-equivalent block-sparse kernels, CUTLASS MatMul.
OUR_BASELINE = LibraryProfile(name="Ours (baseline)", softmax_phase_duty=0.6)


def all_libraries() -> tuple[LibraryProfile, ...]:
    """The Fig. 7 line-up, in the paper's order, plus our baseline."""
    return (HUGGINGFACE, FASTER_TRANSFORMER, TENSORRT, DEEPSPEED,
            OUR_BASELINE)


class _HiddenPassKernel(_StreamingKernel):
    """A framework-inserted permute/contiguous copy of the hidden states."""

    def __init__(self, elements: int, dtype: DType, index: int) -> None:
        super().__init__(
            elements,
            dtype=dtype,
            reads_per_element=1.0,
            writes_per_element=1.0,
            flops_per_element=0.0,
            name=f"layout_pass_{index}",
            category=CATEGORY.OTHER,
        )

    def compute(self, x):
        """Identity — layout changes do not alter values."""
        return x


def _profiled_layer_kernels(
    profile: LibraryProfile,
    config: ModelConfig,
    layer: int,
    *,
    batch: int,
    seq_len: int,
    dtype: DType,
) -> list[Kernel]:
    """The kernel launch list of one layer under ``profile``."""
    base_layer = TransformerLayer(
        config, layer, batch=batch, seq_len=seq_len,
        plan=AttentionPlan.BASELINE, dtype=dtype,
    )
    spec = config.layer_attention(layer)
    kernels: list[Kernel] = []
    for kernel in base_layer.kernels:
        if isinstance(kernel, RowSoftmaxKernel):
            kernels.append(
                RowSoftmaxKernel(
                    rows=kernel.rows,
                    length=kernel.length,
                    dtype=kernel.dtype,
                    mean_nnz=kernel.mean_nnz,
                    max_nnz=kernel.max_nnz,
                    worst_case_length=kernel.worst_case_length,
                    phase_duty=profile.softmax_phase_duty,
                    name=kernel.name,
                )
            )
        elif hasattr(kernel, "_cost") and isinstance(
            getattr(kernel, "_cost", None), RowSoftmaxKernel
        ):
            inner = kernel._cost
            kernels.append(
                RowSoftmaxKernel(
                    rows=inner.rows,
                    length=inner.length,
                    dtype=inner.dtype,
                    mean_nnz=inner.mean_nnz,
                    max_nnz=inner.max_nnz,
                    worst_case_length=inner.worst_case_length,
                    phase_duty=profile.softmax_phase_duty,
                    name=inner.name,
                )
            )
        else:
            kernels.append(kernel)
    if profile.separate_scale_mask:
        if spec.is_sparse:
            layout = spec.layout(seq_len)
            elements = batch * config.num_heads * layout.nnz_elements()
        else:
            elements = batch * config.num_heads * seq_len * seq_len
        kernels.append(
            ScaleMaskKernel(elements, scale=1.0, dtype=dtype,
                            name="standalone_scale_mask")
        )
    hidden_elements = batch * seq_len * config.d_model
    for index in range(profile.extra_hidden_passes):
        kernels.append(_HiddenPassKernel(hidden_elements, dtype, index))
    return kernels


def simulate_library(
    profile: LibraryProfile,
    model: "ModelConfig | str",
    *,
    gpu: "GPUSpec | str" = "A100",
    seq_len: int = 4096,
    batch: int = 1,
    dtype: DType = DType.FP16,
) -> InferenceResult:
    """Simulate one full inference under a library's scheduling policy."""
    from repro.models.config import get_model

    config = get_model(model)
    spec = get_gpu(gpu)
    if config.is_sparse and not profile.supports_sparse:
        raise ConfigError(
            f"{profile.name} has no block-sparse kernels; cannot run "
            f"{config.name}"
        )
    spec = dataclasses.replace(
        spec,
        compute_efficiency=spec.compute_efficiency
        * profile.gemm_efficiency_scale,
    )
    device = Device(spec)
    full_profile = Profile()
    for layer, _, count in config.layer_groups():
        kernels = _profiled_layer_kernels(
            profile, config, layer,
            batch=batch, seq_len=seq_len, dtype=dtype,
        )
        for kernel in kernels:
            kernel.simulate(device)
        full_profile.extend(device.take_profile().scaled(count))
    return InferenceResult(
        model=config,
        gpu=spec,
        plan=AttentionPlan.BASELINE,
        seq_len=seq_len,
        batch=batch,
        profile=full_profile,
    )
