"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs ``run.py --fast`` once — all five workloads at scale 12-13, one
round, plus the traced pass — and checks the shape of what it reports,
not the numbers: fast mode enforces no bound.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def fast_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--fast", "--out", str(out)],
        capture_output=True, text=True, timeout=120)
    seconds = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, json.loads((out / "results.json").read_text()), seconds


def test_fast_mode_is_fast(fast_run):
    assert fast_run[2] < 30


def test_results_are_stamped(fast_run):
    stamp = fast_run[1]["stamp"]
    assert set(stamp) == {"commit", "nproc", "cpu", "python", "numpy"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_present_with_its_unit(fast_run, workload):
    result = fast_run[1]["workloads"][workload]
    assert result["failed"] == 0 and result["failures"] == []
    for metric in SPEC["end_to_end"]:
        stats = result["end_to_end"][metric["name"]]
        assert stats["unit"] == metric["unit"]
        assert stats["n"] >= 1 and stats["median"] > 0
    for metric in SPEC["per_layer"]:
        assert result["per_layer"][metric["name"]]["unit"] == metric["unit"]
    assert set(result["manifest"]) == {"seed", "scale", "edges", "bytes",
                                       "sha256"}


def test_parts_concatenate_to_the_sequential_file(fast_run):
    workloads = fast_run[1]["workloads"]
    assert (workloads["par-adj6"]["manifest"]["sha256"]
            == workloads["seq-adj6"]["manifest"]["sha256"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_closes_and_span_parents_resolve(fast_run, workload):
    out, report, _ = fast_run
    layers = report["workloads"][workload]["per_layer"]
    assert layers["trace.unattributed_share"]["value"] < 0.1
    spans = json.loads((out / f"trace-{workload}.json").read_text())["spans"]
    assert any(s["name"] == "trace.pipeline" for s in spans)
    for index, span in enumerate(spans):
        assert span["run"] == workload
        assert span["start"] <= span["end"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert span["parent"] < index
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def test_without_the_program_there_is_no_result(tmp_path):
    """A directory holding only BENCHMARK.json and the benchmark's own
    files has nothing to measure: non-zero exit, no JSON line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "seq-adj6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
