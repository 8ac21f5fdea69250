"""Cross-process aggregation: worker registries and span trees merge
into one coherent supervisor report, including under fault injection."""

from __future__ import annotations

import pytest

from repro.dist.faults import FaultPlan, RetryPolicy
from repro.dist.runner import ClusterSpec
from repro.system import TrillionG

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
    # One attempt per worker (more when the ambient TRILLIONG_FAULT_*
    # plan injects crashes — crashed attempts raise before generating,
    # so the worker counts below stay exact).
    assert metrics["sched.attempts"]["value"] >= 4
    # Worker span trees grafted under the scheduler span.
    generate = _span_root(report, "generate")
    worker = _find(generate, "scatter", "sched.run_tasks",
                   "worker.generate")
    assert worker["count"] == 4
    assert _find(worker, "format.write_blocks")["count"] == 4


def test_crashed_attempts_count_and_retry(tmp_path):
    tg = _system(faults=FaultPlan(crash_tasks=frozenset({0})),
                 retry=RetryPolicy(retries=2))
    result = tg.generate_to(tmp_path / "out", fmt="adj6",
                            processes=4)
    metrics = result.telemetry["metrics"]
    assert metrics["sched.crashes"]["value"] >= 1
    assert metrics["sched.retries"]["value"] >= 1
    assert metrics["sched.attempts"]["value"] >= 5
    # The graph itself is unharmed (determinism is per task, not per
    # attempt), and the successful attempts' metrics all merged.
    assert metrics["generator.edges"]["value"] == result.num_edges


def test_corrupt_attempt_merges_partial_metrics(tmp_path):
    """A corrupted attempt generated real work before failing output
    validation; its snapshot must still fold into the aggregate."""
    tg = _system(faults=FaultPlan(corrupt_tasks=frozenset({1})),
                 retry=RetryPolicy(retries=2))
    result = tg.generate_to(tmp_path / "out", fmt="adj6",
                            processes=4)
    metrics = result.telemetry["metrics"]
    assert metrics["sched.corruptions"]["value"] >= 1
    # The corrupt attempt's generator counters merged on top of the
    # clean ones: strictly more edges counted than the final graph has.
    assert metrics["generator.edges"]["value"] > result.num_edges


def test_byte_identity_under_faults(tmp_path):
    clean = _system()
    clean_result = clean.generate_to(tmp_path / "clean", fmt="adj6",
                                     processes=4)
    faulty = _system(faults=FaultPlan(crash_tasks=frozenset({0}),
                                      corrupt_tasks=frozenset({2})),
                     retry=RetryPolicy(retries=2))
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


def test_sequential_flight_rides_result_telemetry(tmp_path):
    tg = TrillionG(SCALE, edge_factor=16, seed=7, block_size=BLOCK,
                   flight=0.02)
    result = tg.generate_to(tmp_path / "g.adj6", fmt="adj6")
    flight = result.telemetry["flight"]
    assert flight["interval_seconds"] == 0.02
    assert flight["samples"]                 # final stop-time sample
    last = flight["samples"][-1]
    assert last["metrics"]["generator.edges"] == result.num_edges
    # The recorder died with the session: nothing keeps sampling.
    from repro.telemetry.flight import current_recorder
    assert current_recorder() is None


def test_flight_forensics_attached_to_failed_attempts(tmp_path):
    """A crashed attempt leaves its flight tail on the TaskAttempt; the
    clean retry does not, and no dump files survive on disk."""
    from repro.dist.runner import LocalCluster
    generator = TrillionG(SCALE, edge_factor=16, seed=7,
                          block_size=BLOCK).generator
    cluster = LocalCluster(num_workers=4)
    res = cluster.generate_to_files(
        generator, tmp_path, "adj6", processes=2,
        retry=RetryPolicy(retries=2, backoff_base=0.01,
                          backoff_max=0.05, jitter=0.0),
        faults=FaultPlan(crash_tasks=frozenset({0})), flight=0.02)
    attempts = res.task_attempts[0]
    assert [a.outcome for a in attempts] == ["crashed", "ok"]
    forensics = attempts[0].flight
    assert forensics is not None and forensics["samples"]
    assert forensics["interval_seconds"] == 0.02
    assert attempts[1].flight is None        # success carries no tail
    assert res.flight_forensics == {0: [forensics]}
    assert list(tmp_path.glob("*.flight*")) == []


def test_worker_flight_tails_ride_worker_reports(tmp_path):
    tg = _system(flight=0.02)
    result = tg.generate_to(tmp_path / "out", fmt="adj6", processes=4)
    for report in result.telemetry["worker_reports"]:
        assert report["flight"]["samples"]
    # The supervisor's own series is there too.
    assert result.telemetry["flight"]["samples"]


@pytest.mark.parametrize("fmt", ["adj6", "tsv"])
def test_wesp_runner_spans(tmp_path, fmt):
    from repro.dist.wesp_runner import run_wesp_distributed
    from repro.telemetry import build_report
    result = run_wesp_distributed(9, 8, num_workers=2, seed=3,
                                  work_dir=tmp_path, fmt_name=fmt,
                                  processes=2)
    assert result.num_edges > 0
    report = build_report()
    assert _span_root(report, "wesp.map")["count"] == 1
    assert _span_root(report, "wesp.reduce")["count"] == 1
