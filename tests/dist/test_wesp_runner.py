"""Tests for the multiprocess WES/p runner."""

import os
import signal

import numpy as np
import pytest

from repro.dist import faults, wesp_runner
from repro.dist.wesp_runner import run_wesp_distributed
from repro.formats import get_format
from repro.models import WespDiskGenerator, WespMemGenerator


def load_all(result):
    parts = [np.load(p) for p in result.part_paths]
    parts = [p for p in parts if p.size]
    edges = np.concatenate(parts) if parts else \
        np.empty((0, 2), dtype=np.int64)
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


class TestWespDistributed:
    def test_matches_in_process_model(self, tmp_path):
        """The multiprocess dataflow and the in-process WES/p model are
        the same computation: identical output edge sets."""
        result = run_wesp_distributed(10, 8, seed=4, num_workers=3,
                                      work_dir=tmp_path, processes=2)
        dist_edges = load_all(result)
        model = WespMemGenerator(10, 8, seed=4, num_workers=3)
        expected = model.generate()
        np.testing.assert_array_equal(dist_edges, expected)

    def test_single_process_fallback(self, tmp_path):
        result = run_wesp_distributed(9, 8, seed=5, num_workers=2,
                                      work_dir=tmp_path, processes=1)
        assert result.num_edges > 3000
        assert len(result.part_paths) == 2

    def test_no_duplicates_across_parts(self, tmp_path):
        result = run_wesp_distributed(10, 8, seed=6, num_workers=4,
                                      work_dir=tmp_path, processes=1)
        edges = load_all(result)
        packed = edges[:, 0] * 1024 + edges[:, 1]
        assert np.unique(packed).size == edges.shape[0]

    def test_phases_timed(self, tmp_path):
        result = run_wesp_distributed(9, 8, seed=7, num_workers=2,
                                      work_dir=tmp_path, processes=1)
        assert result.generate_seconds > 0
        assert result.merge_seconds > 0

    def test_skew_metric(self, tmp_path):
        result = run_wesp_distributed(10, 8, seed=8, num_workers=4,
                                      work_dir=tmp_path, processes=1)
        assert result.skew >= 1.0
        assert result.skew < 2.0   # hash shuffle keeps parts balanced

    def test_deterministic(self, tmp_path):
        r1 = run_wesp_distributed(9, 8, seed=9, num_workers=2,
                                  work_dir=tmp_path / "a", processes=1)
        r2 = run_wesp_distributed(9, 8, seed=9, num_workers=2,
                                  work_dir=tmp_path / "b", processes=2)
        np.testing.assert_array_equal(load_all(r1), load_all(r2))


def test_mem_disk_and_runner_are_one_map(tmp_path):
    """Each worker's 264 766 keys span two default batches: RMAT/p-mem,
    RMAT/p-disk at a small batch and the runner's ADJ6 parts draw the
    same keys through one map step, so they hold one graph."""
    mem = WespMemGenerator(16, 16, seed=7, num_workers=4).generate()
    disk = WespDiskGenerator(16, 16, seed=7, num_workers=4,
                             batch_edges=50_000).generate()
    np.testing.assert_array_equal(disk, mem)
    result = run_wesp_distributed(16, 16, seed=7, num_workers=4,
                                  work_dir=tmp_path, processes=2,
                                  fmt_name="adj6")
    parts = np.concatenate([get_format("adj6").read_edges(p)
                            for p in result.part_paths])
    np.testing.assert_array_equal(
        parts[np.lexsort((parts[:, 1], parts[:, 0]))], mem)


def test_reducer_killed_mid_merge_and_retried_writes_identical_part(
        tmp_path, monkeypatch):
    """A reducer that dies with half its part written leaves nothing a
    retry could trip over or would need: the engine writes no
    intermediate state, so the retried attempt re-reads its map runs and
    the part comes out byte for byte an undisturbed run's.  A
    ``FaultPlan`` crash fires before its task starts (task 1 of either
    phase here); the reducer that gets furthest first is SIGKILLed after
    its first chunk reached the part's temporary."""
    if faults.pick_start_method() != "fork":
        pytest.skip("the dying reducer is patched in, which needs fork")
    calm = run_wesp_distributed(10, 8, seed=4, num_workers=2,
                                work_dir=tmp_path / "calm", processes=2)

    supervisor = os.getpid()
    died = tmp_path / "died"
    real_stream = wesp_runner.iter_unique_keys

    def dying_stream(paths, **kwargs):
        stream = real_stream(paths, **kwargs)
        yield next(stream)
        if os.getpid() != supervisor and not died.exists():
            died.touch()
            os.kill(os.getpid(), signal.SIGKILL)
        yield from stream

    monkeypatch.setattr(wesp_runner, "iter_unique_keys", dying_stream)
    retried = run_wesp_distributed(
        10, 8, seed=4, num_workers=2, work_dir=tmp_path / "retried",
        processes=2, faults=faults.FaultPlan(crash_tasks=frozenset({1})),
        retry=faults.RetryPolicy(retries=3, backoff_base=0.0))
    assert died.exists()
    assert [p.name for p in retried.part_paths] == \
        [p.name for p in calm.part_paths]
    for ours, theirs in zip(retried.part_paths, calm.part_paths):
        assert ours.read_bytes() == theirs.read_bytes()
