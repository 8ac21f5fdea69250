"""Cross-process aggregation: worker registries and span trees merge
into one coherent supervisor report, including under fault injection."""

from __future__ import annotations

import pytest

from repro.dist import runner
from repro.dist.faults import RetryPolicy
from repro.dist.runner import ClusterSpec
from repro.system import TrillionG
from tests.faultinject import FaultInjector, needs_fork

SCALE = 11
CLUSTER = ClusterSpec(machines=2, threads_per_machine=2)
BLOCK = 512         # 4 blocks at scale 11 -> a real 4-task scatter


def _system(**kwargs):
    return TrillionG(SCALE, edge_factor=16, seed=7, cluster=CLUSTER,
                     block_size=BLOCK, **kwargs)


def _span_root(report, name):
    for root in report["spans"]:
        if root["name"] == name:
            return root
    raise AssertionError((name, [r["name"] for r in report["spans"]]))


def _find(node, *path):
    for name in path:
        node = next((c for c in node["children"] if c["name"] == name),
                    None)
        assert node is not None, (name, path)
    return node


def test_distributed_run_merges_worker_reports(tmp_path):
    tg = _system()
    result = tg.generate_to(tmp_path / "out", fmt="adj6",
                            processes=4)
    report = result.telemetry
    metrics = report["metrics"]
    # Worker-side counters arrived in the supervisor's registry.
    assert metrics["generator.edges"]["value"] == result.num_edges
    assert metrics["format.edges_written"]["value"] == result.num_edges
    # One attempt per worker: nothing injects faults here.
    assert metrics["sched.attempts"]["value"] == 4
    # Worker span trees grafted under the scheduler span.
    generate = _span_root(report, "generate")
    worker = _find(generate, "scatter", "sched.run_tasks",
                   "worker.generate")
    assert worker["count"] == 4
    assert _find(worker, "format.write_blocks")["count"] == 4


def _inject(tmp_path, monkeypatch, **faults):
    FaultInjector(tmp_path / "markers", **faults).patch(
        monkeypatch, runner, "_worker_generate")


@needs_fork
def test_crashed_attempts_count_and_retry(tmp_path, monkeypatch):
    _inject(tmp_path, monkeypatch, crash=frozenset({0}))
    tg = _system(retry=RetryPolicy(retries=2))
    result = tg.generate_to(tmp_path / "out", fmt="adj6",
                            processes=4)
    metrics = result.telemetry["metrics"]
    assert metrics["sched.crashes"]["value"] >= 1
    assert metrics["sched.retries"]["value"] >= 1
    assert metrics["sched.attempts"]["value"] >= 5
    # The graph itself is unharmed (determinism is per task, not per
    # attempt), and the successful attempts' metrics all merged.
    assert metrics["generator.edges"]["value"] == result.num_edges


@needs_fork
def test_corrupt_attempt_merges_partial_metrics(tmp_path, monkeypatch):
    """A corrupted attempt generated real work before failing output
    validation; its snapshot must still fold into the aggregate."""
    _inject(tmp_path, monkeypatch, empty=frozenset({1}))
    tg = _system(retry=RetryPolicy(retries=2))
    result = tg.generate_to(tmp_path / "out", fmt="adj6",
                            processes=4)
    metrics = result.telemetry["metrics"]
    assert metrics["sched.corruptions"]["value"] >= 1
    # The corrupt attempt's generator counters merged on top of the
    # clean ones: strictly more edges counted than the final graph has.
    assert metrics["generator.edges"]["value"] > result.num_edges


@needs_fork
def test_byte_identity_under_faults(tmp_path, monkeypatch):
    clean = _system()
    clean_result = clean.generate_to(tmp_path / "clean", fmt="adj6",
                                     processes=4)
    _inject(tmp_path, monkeypatch, crash=frozenset({0}),
            empty=frozenset({2}))
    faulty = _system(retry=RetryPolicy(retries=2))
    faulty_result = faulty.generate_to(tmp_path / "faulty",
                                       fmt="adj6", processes=4)
    assert clean_result.num_edges == faulty_result.num_edges
    for a, b in zip(sorted(p.name for p in clean_result.paths),
                    sorted(p.name for p in faulty_result.paths)):
        assert a == b
        assert (tmp_path / "clean" / a).read_bytes() \
            == (tmp_path / "faulty" / b).read_bytes()


def test_worker_reports_retained_verbatim(tmp_path):
    """Beyond the merged aggregate, the supervisor keeps each worker's
    tagged snapshot so trace export can draw one track per worker."""
    tg = _system()
    result = tg.generate_to(tmp_path / "out", fmt="adj6", processes=4)
    reports = result.telemetry["worker_reports"]
    assert len(reports) >= 4
    assert {r["task_index"] for r in reports} == {0, 1, 2, 3}
    for report in reports:
        assert report["attempt"] >= 1
        names = [root["name"] for root in report["spans"]]
        assert "worker.generate" in names


def _metric(report, name):
    return report["metrics"][name]["value"]


@pytest.mark.parametrize("threads", [1, 2])
def test_second_run_reports_only_its_own_work(tmp_path, threads):
    """``result.telemetry`` is the report for *that* run: a second
    ``generate_to`` in the same process does not carry the first run's
    counters, span counts or worker reports."""
    cluster = (ClusterSpec(machines=1, threads_per_machine=threads)
               if threads > 1 else None)
    tg = TrillionG(10, edge_factor=16, seed=7, cluster=cluster,
                   block_size=BLOCK)
    for run in ("first", "second"):
        result = tg.generate_to(tmp_path / run, fmt="adj6",
                                processes=threads)
        report = result.telemetry
        assert _metric(report, "generator.edges") == result.num_edges
        assert _span_root(report, "generate")["count"] == 1
        attempts = 0
        if cluster is not None:
            # One per task: nothing injects faults here.
            attempts = int(_metric(report, "sched.attempts"))
            assert attempts == threads
        assert len(report.get("worker_reports", ())) == attempts
