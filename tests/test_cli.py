"""Tests for the command-line interface."""

import argparse
import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.formats import get_format


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(
            ["generate", "--scale", "10", "--output", "x.adj6"])
        assert args.scale == 10
        assert args.format == "adj6"

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])


class TestGenerate:
    def test_basic(self, tmp_path, capsys):
        out = tmp_path / "g.adj6"
        assert main(["generate", "--scale", "9", "--output",
                     str(out)]) == 0
        assert out.exists()
        assert "generated |V|=512" in capsys.readouterr().out

    def test_custom_matrix(self, tmp_path):
        out = tmp_path / "u.tsv"
        assert main(["generate", "--scale", "8", "--format", "tsv",
                     "--matrix", "0.25,0.25,0.25,0.25",
                     "--output", str(out)]) == 0
        assert out.exists()

    def test_bad_matrix(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "--scale", "8", "--matrix", "0.5,0.5",
                  "--output", str(tmp_path / "x")])

    @pytest.mark.parametrize("flag, value", [
        ("--task-timeout", "0"), ("--task-timeout", "-1"),
        ("--retries", "-3")])
    def test_bad_retry_input_exits_with_one_line(self, tmp_path, flag,
                                                 value):
        out = tmp_path / "parts"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--scale", "14", "--threads", "2",
                  flag, value, "--output", str(out)])
        message = str(info.value.code)
        assert flag.lstrip("-").replace("-", "_") in message
        assert "\n" not in message
        assert not out.exists()

    def test_distributed(self, tmp_path, capsys):
        out = tmp_path / "parts"
        assert main(["generate", "--scale", "10", "--machines", "2",
                     "--threads", "1", "--output", str(out)]) == 0
        assert "part-0000" in capsys.readouterr().out

    def test_noise(self, tmp_path):
        assert main(["generate", "--scale", "9", "--noise", "0.1",
                     "--output", str(tmp_path / "n.adj6")]) == 0

    def test_run_report_and_trace(self, tmp_path, capsys, monkeypatch):
        """``--metrics-out`` and ``--trace-out`` through the CLI: the
        report counts exactly the printed graph, keeps one snapshot per
        worker attempt, and the trace draws a track per worker."""
        monkeypatch.setenv("TRILLIONG_TELEMETRY", "1")
        metrics, trace = tmp_path / "m.json", tmp_path / "t.json"
        # Scale 13 is two 4096-vertex blocks: one task per thread.
        assert main(["generate", "--scale", "13", "--threads", "2",
                     "--output", str(tmp_path / "parts"),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        printed = int(re.search(r"\|E\|=(\d+)", out).group(1))
        report = json.loads(metrics.read_text())
        assert report["metrics"]["generator.edges"]["value"] == printed
        workers = report["worker_reports"]
        # One per task: nothing failed, so nothing was retried.
        assert len(workers) == report["metrics"]["sched.attempts"]["value"]
        assert {w["task_index"] for w in workers} == {0, 1}
        doc = json.loads(trace.read_text())
        tracks = [e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"]
        assert "supervisor" in tracks
        worker_tracks = [t for t in tracks if t.startswith("worker")]
        assert len(worker_tracks) == len(workers)
        assert {"worker 0", "worker 1"} <= set(worker_tracks)
        assert "flight" not in report and "flight" not in doc
        # The report is the one instrument: no live-observer flags.
        generate = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)).choices["generate"]
        flags = {opt for action in generate._actions
                 for opt in action.option_strings}
        assert flags == {
            "-h", "--help", "--scale", "--edge-factor", "--matrix",
            "--noise", "--engine", "--seed", "--format", "--output",
            "--machines", "--threads", "--retries", "--task-timeout",
            "--resume", "--blocks-per-chunk", "--metrics-out",
            "--progress", "--trace-out"}

    def test_report_flags_skipped_when_telemetry_off(self, tmp_path,
                                                     capsys, monkeypatch):
        monkeypatch.setenv("TRILLIONG_TELEMETRY", "0")
        metrics, trace = tmp_path / "m.json", tmp_path / "t.json"
        assert main(["generate", "--scale", "8",
                     "--output", str(tmp_path / "g.adj6"),
                     "--metrics-out", str(metrics),
                     "--trace-out", str(trace)]) == 0
        err = capsys.readouterr().err
        assert not metrics.exists() and not trace.exists()
        for flag in ("--metrics-out", "--trace-out"):
            assert f"{flag} skipped: telemetry is disabled" in err


class TestOtherCommands:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.adj6"
        main(["generate", "--scale", "9", "--seed", "3",
              "--output", str(path)])
        return path

    def test_stats(self, graph_file, capsys):
        assert main(["stats", "--input", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "|E|=" in out and "simple=True" in out

    def test_degrees(self, graph_file, capsys):
        assert main(["degrees", "--input", str(graph_file)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "degree\tcount"
        assert len(lines) > 5

    def test_degrees_in_direction(self, graph_file, capsys):
        assert main(["degrees", "--input", str(graph_file),
                     "--direction", "in"]) == 0

    def test_convert_roundtrip(self, graph_file, tmp_path, capsys):
        tsv = tmp_path / "g.tsv"
        assert main(["convert", "--input", str(graph_file),
                     "--from", "adj6", "--to", "tsv",
                     "--output", str(tsv)]) == 0
        a = get_format("adj6").read_edges(graph_file)
        b = get_format("tsv").read_edges(tsv)
        np.testing.assert_array_equal(np.sort(a, axis=0),
                                      np.sort(b, axis=0))

    def test_rich(self, tmp_path, capsys):
        out = tmp_path / "bib.nt"
        assert main(["rich", "--vertices", "1024",
                     "--output", str(out)]) == 0
        assert out.exists()
        assert "triples=" in capsys.readouterr().out

    @pytest.mark.parametrize("figure", ["11a", "11b", "12", "14"])
    def test_simulate(self, figure, capsys):
        assert main(["simulate", "--figure", figure]) == 0
        out = capsys.readouterr().out
        assert out.startswith("model\t")
        assert len(out.strip().split("\n")) > 4


class TestFitCommand:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.adj6"
        main(["generate", "--scale", "11", "--seed", "5",
              "--output", str(path)])
        return path

    def test_fit_prints_matrix(self, graph_file, capsys):
        assert main(["fit", "--input", str(graph_file),
                     "--vertices", "2048"]) == 0
        out = capsys.readouterr().out
        assert "fitted seed matrix" in out
        assert "out-slope" in out

    def test_fit_and_rescale(self, graph_file, tmp_path, capsys):
        out_path = tmp_path / "scaled.adj6"
        assert main(["fit", "--input", str(graph_file),
                     "--vertices", "2048", "--rescale", "12",
                     "--output", str(out_path)]) == 0
        assert out_path.exists()
        assert "rescaled to scale 12" in capsys.readouterr().out

    def test_rescale_requires_output(self, graph_file):
        with pytest.raises(SystemExit):
            main(["fit", "--input", str(graph_file),
                  "--vertices", "2048", "--rescale", "12"])


class TestVerifyCommand:
    def test_verify_good_graph(self, tmp_path, capsys):
        path = tmp_path / "ok.adj6"
        main(["generate", "--scale", "11", "--seed", "1",
              "--output", str(path)])
        rc = main(["verify", "--input", str(path),
                   "--vertices", "2048", "--expected-edges", "32768"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[PASS]" in out and "[FAIL]" not in out

    def test_verify_flags_wrong_slope(self, tmp_path, capsys):
        path = tmp_path / "uniform.adj6"
        main(["generate", "--scale", "11", "--seed", "1",
              "--matrix", "0.25,0.25,0.25,0.25", "--output", str(path)])
        rc = main(["verify", "--input", str(path), "--vertices", "2048"])
        assert rc == 1
        assert "[FAIL] zipf-slope" in capsys.readouterr().out


class TestRichConfigFile:
    def test_dump_and_reuse_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "schema.json"
        out1 = tmp_path / "a.nt"
        out2 = tmp_path / "b.nt"
        assert main(["rich", "--vertices", "1024",
                     "--output", str(out1),
                     "--dump-config", str(cfg_path)]) == 0
        assert cfg_path.exists()
        assert main(["rich", "--config", str(cfg_path),
                     "--output", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()


class TestNaryCommand:
    def test_generate_3x3(self, tmp_path, capsys):
        out = tmp_path / "n.tsv"
        assert main(["nary", "--matrix",
                     "0.3,0.12,0.08,0.12,0.1,0.05,0.08,0.05,0.1",
                     "--depth", "5", "--edges", "2000",
                     "--output", str(out)]) == 0
        assert "n=3 |V|=243" in capsys.readouterr().out
        back = get_format("tsv").read_edges(out)
        assert back.max() < 243

    def test_rejects_non_square_matrix(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["nary", "--matrix", "0.5,0.3,0.2", "--depth", "4",
                  "--output", str(tmp_path / "x.tsv")])


class TestBaselineAndAnalyze:
    def test_baseline_generates(self, tmp_path, capsys):
        out = tmp_path / "rmat.tsv"
        assert main(["baseline", "--model", "RMAT-mem", "--scale", "10",
                     "--output", str(out)]) == 0
        assert "RMAT-mem" in capsys.readouterr().out
        assert out.exists()

    def test_baseline_unknown_model(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["baseline", "--model", "nonsense", "--scale", "10",
                  "--output", str(tmp_path / "x.tsv")])

    def test_analyze(self, tmp_path, capsys):
        path = tmp_path / "a.adj6"
        main(["generate", "--scale", "10", "--output", str(path)])
        assert main(["analyze", "--input", str(path),
                     "--vertices", "1024"]) == 0
        out = capsys.readouterr().out
        assert "zipf class slope" in out
        assert "eff. diameter" in out


class TestExperimentCommand:
    def test_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        assert "fig12" in capsys.readouterr().out

    def test_run_table2(self, capsys):
        assert main(["experiment", "--id", "table2"]) == 0
        assert "RecVec" in capsys.readouterr().out


class TestPlanCommand:
    def test_default_plan(self, capsys):
        assert main(["plan"]) == 0
        out = capsys.readouterr().out
        assert "best method: TrillionG (ADJ6)" in out
        assert "max scale 38" in out

    def test_with_budget_and_target(self, capsys):
        assert main(["plan", "--hours", "2",
                     "--target-scale", "40"]) == 0
        out = capsys.readouterr().out
        assert "time budget: 2 h" in out
        assert "machines needed for scale 40" in out


class TestMergeCommand:
    def test_merge_parts(self, tmp_path, capsys):
        # block_size default exceeds |V| at small scales, so generate via
        # the library with finer blocks to force multiple parts.
        from repro.core.generator import RecursiveVectorGenerator
        from repro.dist import ClusterSpec, LocalCluster
        g = RecursiveVectorGenerator(11, 8, seed=2, block_size=128)
        result = LocalCluster(ClusterSpec(1, 3)).generate_to_files(
            g, tmp_path / "parts", "adj6", processes=1)
        assert len(result.paths) >= 2
        out = tmp_path / "full.adj6"
        rc = main(["merge", "--parts",
                   *[str(p) for p in result.paths],
                   "--vertices", "2048", "--output", str(out)])
        assert rc == 0
        assert "merged" in capsys.readouterr().out
        back = get_format("adj6").read_edges(out)
        assert back.shape[0] == result.num_edges
