"""Tests for the local multiprocessing cluster."""

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.core.reference import ReferenceGenerator
from repro.dist.checkpoint import CheckpointedRun
from repro.dist.partition import range_partition
from repro.dist.runner import ClusterSpec, DistributedResult, LocalCluster
from repro.errors import ConfigurationError


def sort_edges(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


class TestClusterSpec:
    def test_num_workers(self):
        assert ClusterSpec(10, 6).num_workers == 60

    def test_default(self):
        assert ClusterSpec().num_workers == 2


class TestLocalCluster:
    def make_generator(self, **kw):
        defaults = dict(scale=11, edge_factor=16, seed=7, block_size=128)
        defaults.update(kw)
        scale = defaults.pop("scale")
        ef = defaults.pop("edge_factor")
        return RecursiveVectorGenerator(scale, ef, **defaults)

    def test_distributed_equals_sequential(self, tmp_path):
        """The headline determinism property: N workers produce exactly the
        graph a single process would."""
        g = self.make_generator()
        cluster = LocalCluster(num_workers=3)
        res = cluster.generate_to_files(g, tmp_path, "adj6", processes=2)
        dist_edges = cluster.read_all_edges(res, "adj6")
        seq = self.make_generator().edges()
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(seq))

    def test_part_files_created(self, tmp_path):
        g = self.make_generator()
        cluster = LocalCluster(ClusterSpec(machines=2,
                                           threads_per_machine=2))
        res = cluster.generate_to_files(g, tmp_path, "adj6", processes=1)
        assert len(res.paths) <= 4
        for p in res.paths:
            assert p.exists()
            assert p.stat().st_size > 0

    def test_worker_metadata(self, tmp_path):
        g = self.make_generator()
        res = LocalCluster(num_workers=2).generate_to_files(
            g, tmp_path, "adj6", processes=1)
        assert res.workers[0].start == 0
        assert res.workers[-1].stop == g.num_vertices
        # Each worker reports exactly the range it was assigned.
        assert [(w.start, w.stop) for w in res.workers] == \
            [(r.start, r.stop) for r in range_partition(g, 2)]
        assert all(w.elapsed_seconds >= 0 for w in res.workers)
        assert res.elapsed_seconds > 0

    def test_edge_count_matches(self, tmp_path):
        g = self.make_generator()
        res = LocalCluster(num_workers=4).generate_to_files(
            g, tmp_path, "adj6", processes=1)
        seq_count = self.make_generator().edges().shape[0]
        assert res.num_edges == seq_count

    def test_skew_reasonable(self, tmp_path):
        g = self.make_generator(scale=13, block_size=64)
        res = LocalCluster(num_workers=4).generate_to_files(
            g, tmp_path, "adj6", processes=1)
        assert res.skew < 1.5

    def test_tsv_output(self, tmp_path):
        g = self.make_generator(scale=9)
        cluster = LocalCluster(num_workers=2)
        res = cluster.generate_to_files(g, tmp_path, "tsv", processes=1)
        edges = cluster.read_all_edges(res, "tsv")
        assert edges.shape[0] == res.num_edges

    def test_noisy_distributed_consistent(self, tmp_path):
        """Workers independently re-draw the same noise stack from the
        config, so a noisy graph also survives distribution."""
        g = self.make_generator(scale=10, noise=0.1)
        cluster = LocalCluster(num_workers=3)
        res = cluster.generate_to_files(g, tmp_path, "adj6", processes=2)
        dist_edges = cluster.read_all_edges(res)
        seq = self.make_generator(scale=10, noise=0.1).edges()
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(seq))

    def test_empty_result_properties(self):
        res = DistributedResult()
        assert res.num_edges == 0
        assert res.skew == 1.0


def test_the_oracle_runs_in_process_only(tmp_path):
    """A worker rebuilds a plain generator from ``recipe()``, which would
    silently run the kernel: the oracle has no recipe, and the cluster
    and the checkpointed run refuse it before touching the disk."""
    oracle = ReferenceGenerator(8, 4, seed=3)
    with pytest.raises(ConfigurationError, match="in-process only"):
        oracle.recipe()
    cluster = LocalCluster(num_workers=2)
    for start in (
            lambda: cluster.generate_to_files(oracle, tmp_path / "parts"),
            lambda: cluster.generate_checkpointed(oracle, tmp_path / "ckpt"),
            lambda: CheckpointedRun(oracle, tmp_path / "run")):
        with pytest.raises(ConfigurationError, match="in-process only"):
            start()
    assert not any(tmp_path.iterdir())


class TestGenerateCheckpointed:
    def make_generator(self, **kw):
        defaults = dict(scale=10, edge_factor=8, seed=5, block_size=64)
        defaults.update(kw)
        scale = defaults.pop("scale")
        ef = defaults.pop("edge_factor")
        return RecursiveVectorGenerator(scale, ef, **defaults)

    def test_parallel_checkpointed_bit_identical(self, tmp_path):
        g = self.make_generator()
        cluster = LocalCluster(num_workers=2)
        res = cluster.generate_checkpointed(g, tmp_path,
                                            blocks_per_chunk=2,
                                            processes=2)
        assert res.checkpoint is not None and res.checkpoint.complete
        merged = cluster.read_all_edges(res, "adj6")
        seq = self.make_generator().edges()
        np.testing.assert_array_equal(sort_edges(merged),
                                      sort_edges(seq))

    def test_resume_after_completion_is_noop(self, tmp_path):
        cluster = LocalCluster(num_workers=2)
        cluster.generate_checkpointed(self.make_generator(), tmp_path,
                                      blocks_per_chunk=2, processes=2)
        again = cluster.generate_checkpointed(self.make_generator(),
                                              tmp_path,
                                              blocks_per_chunk=2,
                                              processes=2)
        assert again.workers == []          # nothing left to generate
        assert again.checkpoint.complete

    def test_clean_run_attempt_history(self, tmp_path):
        """Without injected faults every task completes on attempt 1."""
        cluster = LocalCluster(num_workers=3)
        res = cluster.generate_to_files(self.make_generator(), tmp_path,
                                        "adj6", processes=2)
        assert set(res.task_attempts) == {0, 1, 2}
        assert res.num_retries == 0
        for trail in res.task_attempts.values():
            assert [a.attempt for a in trail] == [1]
            assert trail[0].outcome == "ok"
