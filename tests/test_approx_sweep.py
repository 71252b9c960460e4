"""Tests for the accuracy-vs-speed Pareto sweep (``repro approx-sweep``)."""

import json

import pytest

from repro.analysis.approx_sweep import (
    REGIMES,
    SOFTMAX_VARIANTS,
    VARIANTS,
    measure_flashd_accuracy,
    measure_softmax_accuracy,
    render_sweep,
    run_sweep,
)
from repro.common.dtypes import DType
from repro.common.results import APPROX_SWEEP_SCHEMA
from repro.gpu.specs import get_gpu
from repro.kernels.approx import FlashDAttentionKernel
from repro.kernels.flash import TILE_KV
from repro.models import get_model

A100 = get_gpu("A100")


def small_sweep(**overrides):
    kwargs = dict(
        gpu=A100,
        models=[get_model("bert-large")],
        seq_lens=(256, 1024),
        cases=2,
        seed=0,
    )
    kwargs.update(overrides)
    return run_sweep(**kwargs)


class TestAccuracyStage:
    def test_regime_coverage(self):
        """The accuracy stage fuzzes across at least 3 numeric regimes."""
        assert len(REGIMES) >= 3

    def test_profiles_measured_for_every_variant(self):
        profiles = measure_softmax_accuracy(
            dtype=DType.FP16, cases=1, seed=0
        )
        assert set(profiles) == set(SOFTMAX_VARIANTS)
        for name, profile in profiles.items():
            assert profile["cases"] == len(REGIMES), name
            assert profile["max_abs_err"] >= 0.0

    def test_baseline_is_most_accurate_softmax(self):
        """At fp32 the exact variants beat the approximations (at fp16
        output rounding hides the difference — also worth asserting)."""
        p32 = measure_softmax_accuracy(dtype=DType.FP32, cases=2, seed=0)
        assert p32["baseline"]["max_abs_err"] <= p32["lut"]["max_abs_err"]
        assert p32["baseline"]["max_abs_err"] <= p32["baps"]["max_abs_err"]
        p16 = measure_softmax_accuracy(dtype=DType.FP16, cases=2, seed=0)
        assert (p16["lut"]["p99_row_err"]
                == pytest.approx(p16["baseline"]["p99_row_err"]))

    def test_flashd_accuracy_deterministic(self):
        a = measure_flashd_accuracy(dtype=DType.FP16, cases=1, seed=3)
        b = measure_flashd_accuracy(dtype=DType.FP16, cases=1, seed=3)
        assert a == b
        assert a["max_row_kl"] is None  # attention output: no KL axis


class TestSweepReport:
    def test_envelope(self):
        report = small_sweep()
        assert report["schema"] == APPROX_SWEEP_SCHEMA
        assert report["kind"] == "approx-sweep"
        assert set(report["variants"]) == {
            "baseline", "sdf", "lut", "baps", "flashd"
        }
        assert report["regimes"] == sorted(REGIMES)
        json.dumps(report)  # must be JSON-serializable as-is

    def test_deterministic(self):
        assert small_sweep() == small_sweep()

    def test_points_cover_the_grid(self):
        report = small_sweep(seq_lens=(256, 512, 1024))
        for name, variant in report["variants"].items():
            assert len(variant["points"]) == 3, name
            for point in variant["points"]:
                assert point["time_s"] > 0
                assert point["baseline_time_s"] > 0

    def test_contracts_satisfied(self):
        """Every approximate variant's measured profile stays inside
        its declared budget — the harness's acceptance criterion."""
        report = small_sweep(cases=3)
        for name in ("lut", "baps", "flashd"):
            variant = report["variants"][name]
            assert variant["contract"] is not None, name
            assert variant["contract_satisfied"] is True, (
                name, variant["accuracy"], variant["contract"]
            )
        for name in ("baseline", "sdf"):
            assert report["variants"][name]["contract"] is None
            assert report["variants"][name]["contract_satisfied"] is None

    def test_pareto_frontier_is_nondominated(self):
        report = small_sweep()
        frontier = report["pareto_frontier"]
        assert frontier
        variants = report["variants"]
        for name in frontier:
            v = variants[name]
            for other in SOFTMAX_VARIANTS:
                if other == name:
                    continue
                o = variants[other]
                strictly_dominates = (
                    o["accuracy"]["p99_row_err"]
                    <= v["accuracy"]["p99_row_err"]
                    and o["mean_speedup"] >= v["mean_speedup"]
                    and (o["accuracy"]["p99_row_err"]
                         < v["accuracy"]["p99_row_err"]
                         or o["mean_speedup"] > v["mean_speedup"])
                )
                assert not strictly_dominates, (name, other)

    def test_render_mentions_every_variant(self):
        report = small_sweep()
        text = render_sweep(report)
        for name in report["variants"]:
            assert name in text
        assert "pareto frontier" in text


@pytest.mark.slow
class TestAcceptance:
    def test_lut_dominates_baseline_across_paper_grid(self):
        """The headline claim: at least one approximate variant is
        strictly faster than the baseline softmax at every grid point
        with equal-or-better p99 row error."""
        report = run_sweep(gpu=A100, cases=3)
        assert "lut" in report["dominates_baseline"]
        lut = report["variants"]["lut"]
        baseline = report["variants"]["baseline"]
        assert all(p["speedup_vs_baseline"] > 1.0 for p in lut["points"])
        assert (lut["accuracy"]["p99_row_err"]
                <= baseline["accuracy"]["p99_row_err"])
        # And the dominating variant's own contract holds.
        assert lut["contract_satisfied"] is True

    def test_four_models_priced(self):
        report = run_sweep(gpu=A100, cases=1, seq_lens=(512,))
        assert len(report["models"]) == 4
        point_models = {p["model"]
                        for p in report["variants"]["lut"]["points"]}
        assert len(point_models) == 4


class TestSpeedModel:
    def test_sdf_alone_is_slower_than_monolithic(self):
        """The decomposition is a fusion enabler, not a standalone win
        (Fig. 5): unfused LS+IR+GS re-streams the matrix twice."""
        report = small_sweep()
        assert report["variants"]["sdf"]["mean_speedup"] < 1.0

    def test_lut_speedup_from_duty_not_traffic(self):
        """LUT moves the same DRAM bytes — its win is issue duty."""
        report = small_sweep()
        lut = report["variants"]["lut"]["points"][0]
        base_bytes = report["variants"]["baseline"]["points"][0]
        assert lut["dram_bytes"] == base_bytes["dram_bytes"]
        assert lut["speedup_vs_baseline"] > 1.0

    def test_counters_present(self):
        report = small_sweep()
        for name in SOFTMAX_VARIANTS:
            counters = report["variants"][name]["counters"]
            assert counters["dram_bytes"] > 0
            assert "div_ops" in counters
        assert (report["variants"]["lut"]["counters"]["div_ops"]
                < report["variants"]["baseline"]["counters"]["div_ops"])

    def test_flashd_counters_are_its_kernels_own(self):
        """One reciprocal per row per K/V tile, not the stock
        epilogue's d_head divisions per row."""
        counters = small_sweep(cases=1)["variants"]["flashd"]["counters"]
        kernel = FlashDAttentionKernel(64, 4096, 64, dtype=DType.FP16)
        assert counters == kernel.counters()
        assert counters["div_ops"] == 64 * 4096 * (4096 // TILE_KV)


class TestVariantRows:
    def test_softmax_variants_are_the_softmax_rows(self):
        assert SOFTMAX_VARIANTS == ("baseline", "sdf", "lut", "baps")
        assert [v.name for v in VARIANTS] == [*SOFTMAX_VARIANTS, "flashd"]

    def test_rows_build_their_plan_graph_from_the_dense_table(self):
        """Every node but the two MatMuls, with the row's override."""
        built = {
            v.name: [(role, type(kernel).__name__) for role, kernel in
                     v.kernels(DType.FP16, batch_heads=16, m=256,
                               kv_len=256).items()]
            for v in VARIANTS
        }
        assert built == {
            "baseline": [("softmax", "RowSoftmaxKernel")],
            "sdf": [("ls", "LocalSoftmaxKernel"),
                    ("ir", "InterReductionKernel"),
                    ("gs", "GlobalScaleKernel")],
            "lut": [("softmax", "ApproxRowSoftmaxKernel")],
            "baps": [("softmax", "BAPSSoftmaxKernel")],
            "flashd": [("flash", "FlashDAttentionKernel")],
        }


class TestInfeasiblePoints:
    def test_kernel_that_does_not_fit_is_recorded_not_raised(self):
        """At fp32, GPT-Neo's FlashAttention launch (d_head 128) needs
        327,680 B of shared memory, more than an A100 SM holds: the
        point is recorded and left out of every aggregate."""
        neo, bert = get_model("gpt-neo-1.3b"), get_model("bert-large")
        report = small_sweep(models=[neo, bert], seq_lens=(256,),
                             dtype=DType.FP32, cases=1)
        flashd = report["variants"]["flashd"]
        (point,) = flashd["infeasible"]
        assert (point["model"], point["seq_len"]) == ("GPT-Neo-1.3B", 256)
        assert "shared_mem=327680B" in point["error"]
        assert [p["model"] for p in flashd["points"]] == ["BERT-large"]
        assert "infeasible at GPT-Neo-1.3B L=256" in render_sweep(report)

        bert_only = small_sweep(models=[bert], seq_lens=(256,),
                                dtype=DType.FP32, cases=1)
        assert "infeasible" not in bert_only["variants"]["flashd"]
        assert (flashd["mean_speedup"]
                == bert_only["variants"]["flashd"]["mean_speedup"])
        for key in ("pareto_frontier", "dominates_baseline"):
            assert report[key] == bert_only[key]

    def test_row_length_sdf_cannot_split_is_infeasible_for_sdf_only(self):
        report = small_sweep(seq_lens=(100,), cases=1)
        (point,) = report["variants"]["sdf"]["infeasible"]
        assert "not divisible by T=64" in point["error"]
        assert report["variants"]["sdf"]["points"] == []
        for name in ("baseline", "lut", "baps", "flashd"):
            assert len(report["variants"][name]["points"]) == 1, name

    def test_variant_with_no_priced_point_has_no_speedup(self):
        """On a T4 no FlashAttention launch fits, and SD cannot split
        a 100-token row: neither variant reports a speedup, and
        neither is compared on the frontier."""
        t4 = small_sweep(gpu=get_gpu("T4"), seq_lens=(256,), cases=1)
        assert t4["variants"]["flashd"]["points"] == []
        assert t4["variants"]["flashd"]["mean_speedup"] is None
        assert '"mean_speedup": null' in json.dumps(t4["variants"]["flashd"])
        assert ("flashd    (attention): no feasible points"
                in render_sweep(t4))

        ragged = small_sweep(seq_lens=(100,), cases=1)
        assert ragged["variants"]["sdf"]["mean_speedup"] is None
        assert "sdf" not in ragged["pareto_frontier"]
        assert "sdf" not in ragged["dominates_baseline"]
        assert "sdf       (softmax): no feasible points" in render_sweep(
            ragged)
