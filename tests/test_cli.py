"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_simulate(self, capsys):
        out = run_cli(capsys, "simulate", "--model", "bert-large",
                      "--seq-len", "1024")
        assert "BERT-large on A100" in out
        assert "softmax share" in out
        assert "legend:" in out

    def test_compare(self, capsys):
        out = run_cli(capsys, "compare", "--model", "bigbird-large",
                      "--seq-len", "2048")
        assert "baseline" in out and "sdf" in out
        assert "speedup" in out

    def test_breakdown(self, capsys):
        out = run_cli(capsys, "breakdown", "--seq-len", "1024")
        for name in ("BERT-large", "GPT-Neo-1.3B", "BigBird-large",
                     "Longformer-large"):
            assert name in out

    def test_libraries(self, capsys):
        out = run_cli(capsys, "libraries", "--seq-len", "1024")
        assert "HuggingFace" in out
        assert "TensorRT" in out

    def test_sweep(self, capsys):
        out = run_cli(capsys, "sweep", "--model", "bert-large",
                      "--values", "1024,2048")
        assert "1024" in out and "2048" in out
        assert out.count("x") >= 2

    def test_sweep_batch_axis(self, capsys):
        out = run_cli(capsys, "sweep", "--model", "longformer-large",
                      "--axis", "batch", "--values", "1,4",
                      "--seq-len", "2048")
        assert "batch" in out

    def test_generate(self, capsys):
        out = run_cli(capsys, "generate", "--tokens", "4",
                      "--seq-len", "512")
        assert "prefill latency" in out
        assert "tokens/s" in out

    def test_trace(self, capsys, tmp_path):
        path = tmp_path / "trace.json"
        out = run_cli(capsys, "trace", "--seq-len", "1024",
                      "--output", str(path))
        assert "kernel launches; trace of" in out
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.trace/v1"
        slices = [e for e in data["traceEvents"] if e["ph"] == "X"]
        # One span per distinct kernel evaluation (the simulation cache
        # deduplicates identical launches) plus the simulate() span.
        assert len(slices) > 14
        kernel = [e for e in slices if e["cat"] == "kernel"]
        assert kernel
        assert all("dram_bytes" in e["args"] for e in kernel)
        assert all("bound" in e["args"] for e in kernel)

    def test_trace_headline_counts_kernel_spans(self, capsys):
        import re

        argv = ["trace", "--sim", "inference", "--model", "bert-large",
                "--seq-len", "512"]
        headline = run_cli(capsys, *argv).splitlines()[0]
        match = re.fullmatch(r"profile of (\d+) kernel launches; "
                             r"trace of (\d+) priced-kernel spans", headline)
        assert match, headline
        data = json.loads(run_cli(capsys, *argv, "--json"))
        kernel = [e for e in data["traceEvents"] if e.get("cat") == "kernel"]
        assert int(match.group(2)) == len(kernel)
        # Identical layers are priced once, so the profile has more.
        assert int(match.group(1)) > len(kernel)

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_gpu_option(self, capsys):
        out = run_cli(capsys, "simulate", "--gpu", "t4",
                      "--seq-len", "1024")
        assert "on T4" in out

    def test_footprint(self, capsys):
        out = run_cli(capsys, "footprint", "--model", "bert-large",
                      "--seq-len", "2048")
        assert "attention (GB)" in out
        assert "sdf" in out

    def test_roofline(self, capsys):
        out = run_cli(capsys, "roofline", "--seq-len", "1024")
        assert "machine balance" in out
        assert "regime" in out

    def test_verify_quick(self, capsys):
        out = run_cli(capsys, "verify", "--quick")
        assert "4/4" in out
        assert "PASS" in out

    def test_model_json(self, capsys, tmp_path):
        from repro.models import BIGBIRD_LARGE
        from repro.models.serialization import config_to_json

        path = tmp_path / "model.json"
        path.write_text(config_to_json(BIGBIRD_LARGE))
        out = run_cli(capsys, "simulate", "--model-json", str(path),
                      "--seq-len", "2048")
        assert "BigBird-large" in out

    def _small_model_json(self, tmp_path, base):
        import dataclasses

        from repro.models.serialization import config_to_json

        small = dataclasses.replace(base, name="small-json", num_layers=2)
        path = tmp_path / "small.json"
        path.write_text(config_to_json(small))
        return str(path)

    def test_generate_reads_model_json(self, capsys, tmp_path):
        from repro.models import GPT_NEO_1_3B

        path = self._small_model_json(tmp_path, GPT_NEO_1_3B)
        out = run_cli(capsys, "generate", "--model-json", path,
                      "--seq-len", "256", "--tokens", "4", "--json")
        assert json.loads(out)["model"] == "small-json"
        with pytest.raises(FileNotFoundError):
            main(["generate", "--model-json", str(tmp_path / "no.json")])

    def test_libraries_reads_model_json(self, capsys, tmp_path):
        from repro.models import BERT_LARGE

        path = self._small_model_json(tmp_path, BERT_LARGE)
        doc = json.loads(run_cli(capsys, "libraries", "--model-json", path,
                                 "--seq-len", "512", "--json"))
        full = json.loads(run_cli(capsys, "libraries", "--seq-len", "512",
                                  "--json"))
        assert (doc["model"], full["model"]) == ("small-json", "bert-large")
        for name, latency in doc["latencies_s"].items():
            assert latency < full["latencies_s"][name]
        with pytest.raises(FileNotFoundError):
            main(["libraries", "--model-json", str(tmp_path / "no.json")])

    def test_sweep_labels_model_json(self, capsys, tmp_path):
        from repro.models import BERT_LARGE

        path = self._small_model_json(tmp_path, BERT_LARGE)
        doc = json.loads(run_cli(capsys, "sweep", "--model-json", path,
                                 "--values", "512", "--json"))
        assert doc["model"] == "small-json"

    def test_parallel(self, capsys):
        out = run_cli(capsys, "parallel", "--model", "bert-large",
                      "--seq-len", "2048")
        assert "GPUs" in out and "comm share" in out
        assert "8" in out

    def test_parallel_reports_unshardable_gpu_count(self, capsys, tmp_path):
        import dataclasses

        from repro.models import BERT_LARGE
        from repro.models.serialization import config_to_json

        twelve_heads = dataclasses.replace(
            BERT_LARGE, name="bert-12h", d_model=768, num_heads=12,
            d_ff=3072)
        path = tmp_path / "model.json"
        path.write_text(config_to_json(twelve_heads))
        out = run_cli(capsys, "parallel", "--model-json", str(path),
                      "--seq-len", "512", "--json")
        scaling = {row["n_gpus"]: row for row in json.loads(out)["scaling"]}
        assert "error" not in scaling[4]
        assert scaling[8]["error"] == (
            "bert-12h: 12 heads do not shard across 8 GPUs")

    def test_parallel_propagates_programming_errors(self, capsys,
                                                    monkeypatch):
        # Only a model that cannot shard becomes an error row; a bug
        # in the TP path must surface, not exit 0.
        from repro.models import parallel

        def broken(self):
            raise TypeError("bug in the TP path")

        monkeypatch.setattr(parallel.TensorParallelSession, "simulate",
                            broken)
        with pytest.raises(TypeError, match="bug in the TP path"):
            main(["parallel", "--model", "bert-large", "--seq-len", "512"])

    def test_serve_sim_json(self, capsys):
        out = run_cli(capsys, "serve-sim", "--model", "bert-large",
                      "--gpu", "a100", "--rate", "4", "--duration", "4",
                      "--seed", "0", "--json")
        report = json.loads(out)
        assert report["schema"] == "repro.result/v1"
        assert report["model"] == "BERT-large"
        assert set(report["plans"]) == {"baseline", "sdf"}
        for plan in report["plans"].values():
            assert plan["finished"] + plan["rejected"] \
                == plan["num_requests"]
            assert "p99" in plan["ttft_s"]
            assert plan["throughput_tokens_per_s"] > 0

    def test_serve_sim_deterministic(self, capsys):
        argv = ("serve-sim", "--rate", "4", "--duration", "4",
                "--seed", "0")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)

    def test_serve_sim_table(self, capsys):
        out = run_cli(capsys, "serve-sim", "--rate", "4",
                      "--duration", "4")
        assert "TTFT p50/p99" in out
        assert "sdf over baseline" in out

    def test_serve_sim_output_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        out = run_cli(capsys, "serve-sim", "--rate", "2",
                      "--duration", "3", "--output", str(path))
        assert f"wrote {path}" in out
        assert "plans" in json.loads(path.read_text())

    def test_serve_sim_trace_file(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"arrival_time": 0.0, "prompt_len": 256, "output_len": 8}\n'
            '{"arrival_time": 0.2, "prompt_len": 512, "output_len": 4}\n'
        )
        out = run_cli(capsys, "serve-sim", "--trace-file", str(path),
                      "--plans", "sdf", "--json")
        report = json.loads(out)
        assert report["num_requests"] == 2
        assert list(report["plans"]) == ["sdf"]

    def test_cluster_sim_json(self, capsys):
        out = run_cli(capsys, "cluster-sim", "--model", "bert-large",
                      "--gpu", "a100", "--rate", "2", "--duration", "3",
                      "--seed", "0", "--replicas", "2", "--tp", "2",
                      "--policy", "least-outstanding", "--plans", "sdf",
                      "--json")
        report = json.loads(out)
        assert report["schema"] == "repro.result/v1"
        assert report["kind"] == "cluster-report"
        assert report["replicas"] == 2 and report["tp"] == 2
        plan = report["plans"]["sdf"]
        assert len(plan["per_replica"]) == 2
        assert plan["comm_time_s"] > 0
        assert "p99" in plan["ttft_s"]
        assert plan["finished"] + plan["rejected"] == plan["num_requests"]

    def test_cluster_sim_table(self, capsys):
        out = run_cli(capsys, "cluster-sim", "--rate", "2",
                      "--duration", "3", "--plans", "baseline,sdf")
        assert "per replica" in out
        assert "sdf over baseline" in out

    def test_cluster_sim_deterministic(self, capsys):
        argv = ("cluster-sim", "--rate", "2", "--duration", "3",
                "--seed", "7", "--replicas", "2", "--policy",
                "prefix-affinity", "--prefix-groups", "4", "--json")
        assert run_cli(capsys, *argv) == run_cli(capsys, *argv)


class TestCLIHelp:
    def commands(self):
        import argparse

        parser = build_parser()
        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        return subparsers.choices

    def test_every_subcommand_has_help(self, capsys):
        for command in self.commands():
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert command in capsys.readouterr().out

    def test_every_subcommand_documented(self):
        import repro.cli

        for command in self.commands():
            assert f"``{command}``" in repro.cli.__doc__

    def test_preset_flags_name_every_preset(self):
        import repro.models.moe  # noqa: F401  (registers the MoE presets)
        from repro.gpu.specs import _REGISTRY as gpus
        from repro.models.config import _REGISTRY as models

        presets = {"--gpu": {spec.name for spec in gpus.values()},
                   "--model": {c.name.lower() for c in models.values()}}
        assert {"V100", "mixtral-moe"} <= presets["--gpu"] | presets["--model"]
        flags = [(command, flag, action.help)
                 for command, sub in self.commands().items()
                 for action in sub._actions
                 for flag in presets.keys() & set(action.option_strings)]
        assert len(flags) > 20
        for command, flag, help_text in flags:
            assert set(help_text.split(" | ")) == presets[flag], command

    def test_top_level_help(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        assert "serve-sim" in capsys.readouterr().out


class TestConsoleErrors:
    """The shell entry points turn a library error into one line."""

    ARGV = ["serve-sim", "--chunk-tokens", "7"]
    LINE = ("repro serve-sim: error: chunk_tokens 7 not a multiple of the "
            "KV block size 64\n")

    def test_library_error_prints_one_line_and_exits_2(self, capsys):
        from repro.cli import console

        assert console(self.ARGV) == 2
        captured = capsys.readouterr()
        assert captured.err == self.LINE
        assert captured.out == ""

    def test_main_still_raises(self):
        from repro.common.errors import ServingError

        with pytest.raises(ServingError):
            main(self.ARGV)

    def test_python_dash_m_uses_the_wrapper(self, capsys, monkeypatch):
        import runpy
        import sys

        monkeypatch.setattr(sys, "argv", ["repro", *self.ARGV])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("repro", run_name="__main__")
        assert excinfo.value.code == 2
        assert capsys.readouterr().err == self.LINE

    def test_closed_pipe_exits_quietly(self, capsys, monkeypatch):
        import os
        import sys

        from repro.cli import console

        read_fd, write_fd = os.pipe()
        os.close(read_fd)  # the reader is gone, as after ``| head``
        with open(write_fd, "w") as stdout:
            monkeypatch.setattr(sys, "stdout", stdout)
            assert console(["trace", "--sim", "inference", "--model",
                            "bert-large", "--seq-len", "512"]) == 1
            print("after", file=stdout)
            stdout.flush()  # the fd now points at devnull
        assert capsys.readouterr().err == ""

    def test_broken_pipe_inside_a_command_still_raises(self, monkeypatch):
        import repro.cli
        from repro.cli import console

        def broken(args):
            raise BrokenPipeError("a worker's pipe, not stdout")

        monkeypatch.setattr(repro.cli, "cmd_trace", broken)
        with pytest.raises(BrokenPipeError):
            console(["trace", "--sim", "inference"])

    def test_console_script_uses_the_wrapper(self):
        import pathlib

        pyproject = pathlib.Path(__file__).resolve().parents[1] \
            / "pyproject.toml"
        assert 'repro = "repro.cli:console"' in pyproject.read_text()
