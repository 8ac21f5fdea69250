"""Tests for the command-line interface."""

import argparse
import json
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.dist import merge_parts
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

    def test_generate_options_are_pinned(self):
        """``generate`` keeps these options or fewer: a flag added later
        edits this list in the open.  The report is the one instrument
        (no live-observer flags), and the graph's settings are those of
        :class:`repro.Recipe`."""
        generate = next(
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)).choices["generate"]
        flags = {opt for action in generate._actions
                 for opt in action.option_strings}
        assert flags == {
            "-h", "--help", "--scale", "--edge-factor", "--matrix",
            "--noise", "--seed", "--format", "--output",
            "--machines", "--threads", "--retries", "--task-timeout",
            "--resume", "--blocks-per-chunk", "--metrics-out",
            "--progress", "--trace-out"}


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

    @pytest.mark.parametrize("flags, named", [
        (["--retries", "0"], "--retries"),
        (["--task-timeout", "0.000001"], "--task-timeout"),
        (["--blocks-per-chunk", "7"], "--blocks-per-chunk")])
    def test_flag_its_mode_ignores_is_refused(self, tmp_path, flags,
                                              named):
        """A sequential run has no worker to retry or time out, and only
        ``--resume`` writes chunks: such a flag is an error, not a
        no-op."""
        out = tmp_path / "g.adj6"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--scale", "10", "--output", str(out)]
                 + flags)
        assert named in str(info.value.code)
        assert not out.exists()

    def test_distributed(self, tmp_path, capsys):
        out = tmp_path / "parts"
        assert main(["generate", "--scale", "10", "--machines", "2",
                     "--threads", "1", "--output", str(out)]) == 0
        assert "part-0000" in capsys.readouterr().out

    def test_noise(self, tmp_path):
        assert main(["generate", "--scale", "9", "--noise", "0.1",
                     "--output", str(tmp_path / "n.adj6")]) == 0

    @pytest.mark.parametrize("fmt", ["adj6", "tsv", "csr6"])
    def test_every_mode_writes_the_sequential_graph(self, tmp_path, fmt):
        """A sequential run, two workers and a resumable run of one-block
        chunks take one run path and write one graph.  ADJ6 and TSV
        files concatenate to the sequential file; a CSR6 file carries
        its own index, so its files merge to it."""
        base = ["generate", "--scale", "13", "--seed", "3",
                "--format", fmt]
        sequential = tmp_path / f"g.{fmt}"
        assert main(base + ["--output", str(sequential)]) == 0
        whole = sequential.read_bytes()
        for mode, flags in (("parts", ["--threads", "2"]),
                            ("chunks", ["--resume",
                                        "--blocks-per-chunk", "1"])):
            out = tmp_path / mode
            assert main(base + flags + ["--output", str(out)]) == 0
            files = sorted(out.glob(f"*.{fmt}"))
            assert len(files) == 2      # scale 13: two 4096-vertex blocks
            merged = tmp_path / f"{mode}.{fmt}"
            merge_parts(files, 1 << 13, merged, in_format=fmt)
            assert merged.read_bytes() == whole
            if fmt != "csr6":
                assert b"".join(p.read_bytes() for p in files) == whole

    def test_run_report_and_trace(self, tmp_path, capsys):
        """``--metrics-out`` and ``--trace-out`` through the CLI: the
        report counts exactly the printed graph, keeps one snapshot per
        worker attempt, and the trace draws a track per worker."""
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
        """The cost-model series, which ``experiment`` prints."""
        assert main(["experiment", "--id", f"fig{figure}"]) == 0
        out = capsys.readouterr().out
        assert out.split()[:2] == ["model", "scale"]
        assert len(out.strip().split("\n")) > 4

    def test_simulate_is_gone(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--figure", "12"])


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
    """``generate --matrix`` takes any n x n seed: ``|V| = n^scale``."""

    SEED3 = "0.3,0.12,0.08,0.12,0.1,0.05,0.08,0.05,0.1"

    def test_generate_3x3(self, tmp_path, capsys):
        out = tmp_path / "n.tsv"
        assert main(["generate", "--matrix", self.SEED3, "--scale", "5",
                     "--edge-factor", "8", "--format", "tsv",
                     "--output", str(out)]) == 0
        assert "|V|=243 |E|=1944" in capsys.readouterr().out
        back = get_format("tsv").read_edges(out)
        assert back.shape[0] == 1944
        assert back.max() < 243

    def test_rejects_non_square_matrix(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--matrix", "0.5,0.3,0.2", "--scale", "4",
                  "--output", str(tmp_path / "x.tsv")])
        assert "n*n entries" in str(info.value.code)

    def test_noise_exits_with_the_typed_message(self, tmp_path):
        out = tmp_path / "x.adj6"
        with pytest.raises(SystemExit) as info:
            main(["generate", "--matrix", self.SEED3, "--scale", "4",
                  "--noise", "0.1", "--output", str(out)])
        assert "2x2 seeds only" in str(info.value.code)
        assert "\n" not in str(info.value.code)
        assert not out.exists()

    def test_a_matrix_not_summing_to_one_exits_in_one_line(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--matrix", "0.5,0.5,0.5,0.5", "--scale", "4",
                  "--output", str(tmp_path / "x.adj6")])
        assert "sum to 1.0" in str(info.value.code)

    def test_verify_exits_in_one_line_on_a_matrix_not_summing_to_one(
            self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--input", str(tmp_path / "absent.adj6"),
                  "--vertices", "4", "--matrix", "0.5,0.5,0.5,0.5"])
        assert "sum to 1.0" in str(info.value.code)
        assert "\n" not in str(info.value.code)

    def test_verify_refuses_an_nxn_slope_in_one_line(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--input", str(tmp_path / "absent.adj6"),
                  "--vertices", "81", "--matrix", self.SEED3])
        assert "2x2 seeds only" in str(info.value.code)
        assert "\n" not in str(info.value.code)

    def test_nary_is_not_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nary", "--matrix", self.SEED3,
                                       "--depth", "4", "--output", "x"])


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
