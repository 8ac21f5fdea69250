"""Tests for the TrillionG system facade."""

import numpy as np
import pytest

from repro import TrillionG
from repro.dist.checkpoint import CheckpointedRun
from repro.dist.faults import RetryPolicy
from repro.dist.runner import ClusterSpec
from repro.errors import ConfigurationError, WorkerError
from repro.formats import get_format
from tests.faultinject import stop_after


class TestSequential:
    def test_generate_to_file(self, tmp_path):
        tg = TrillionG(scale=10, edge_factor=8, seed=1)
        result = tg.generate_to(tmp_path / "g.adj6", fmt="adj6")
        assert result.num_vertices == 1024
        assert result.num_edges > 7000
        assert result.paths[0].exists()
        assert result.bytes_written == result.paths[0].stat().st_size
        assert result.elapsed_seconds > 0

    def test_generate_edges(self):
        tg = TrillionG(scale=9, edge_factor=8, seed=2)
        e = tg.generator.edges()
        assert e.shape[0] > 3500
        assert tg.generator.num_edges == 8 * 512

    def test_all_formats(self, tmp_path):
        for fmt in ("tsv", "adj6", "csr6"):
            tg = TrillionG(scale=8, edge_factor=8, seed=3)
            result = tg.generate_to(tmp_path / f"g.{fmt}", fmt=fmt)
            back = get_format(fmt).read_edges(result.paths[0])
            assert back.shape[0] == result.num_edges

    def test_noise_passthrough(self, tmp_path):
        tg = TrillionG(scale=9, edge_factor=8, seed=4, noise=0.1)
        result = tg.generate_to(tmp_path / "n.adj6")
        assert result.num_edges > 3000

    @pytest.mark.parametrize("old", [None, b"old"])
    def test_an_interrupted_run_publishes_nothing(self, tmp_path, old):
        """A run stopped after its first block (scale 14: four 4096-source
        blocks) leaves ``out`` as it was and no temporary: the sequential
        file is published whole, like a part or a chunk."""
        out = tmp_path / "g.adj6"
        if old is not None:
            out.write_bytes(old)

        def progress(edges_done):
            if edges_done:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            TrillionG(scale=14, seed=1).generate_to(out, progress=progress)
        assert [p.name for p in tmp_path.iterdir()] == (
            [] if old is None else ["g.adj6"])
        if old is not None:
            assert out.read_bytes() == old

    def test_a_failed_run_names_its_cause(self, tmp_path):
        """An error in the range a run writes in-process surfaces as the
        scheduler's ``WorkerError``, caused by it, and leaves no file."""
        def progress(edges_done):
            if edges_done:
                raise RuntimeError("stop")

        with pytest.raises(WorkerError, match="RuntimeError: stop") as info:
            TrillionG(scale=14, seed=1).generate_to(tmp_path / "g.adj6",
                                                    progress=progress)
        assert isinstance(info.value.__cause__, RuntimeError)
        assert list(tmp_path.iterdir()) == []

    def test_only_its_own_temporaries_are_swept(self, tmp_path):
        """The name is a file name, not a pattern: ``g[1].adj6`` sweeps
        no temporary of ``g1.adj6``."""
        other = tmp_path / "g1.adj6.partial.1"
        other.write_bytes(b"another run's")
        TrillionG(scale=9, seed=1).generate_to(tmp_path / "g[1].adj6")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "g1.adj6.partial.1", "g[1].adj6"]

    def test_missing_parent_directory_is_created(self, tmp_path):
        out = tmp_path / "new" / "g.adj6"
        result = TrillionG(scale=9, seed=1).generate_to(out)
        assert result.paths == [out] and out.stat().st_size > 0


class TestIgnoredSettings:
    """A setting the run would drop is refused, naming the setting."""

    def test_blocks_per_chunk_needs_resume(self, tmp_path):
        tg = TrillionG(scale=10, seed=1)
        with pytest.raises(ConfigurationError, match="blocks_per_chunk"):
            tg.generate_to(tmp_path / "g.adj6", blocks_per_chunk=7)
        assert not (tmp_path / "g.adj6").exists()

    def test_retry_needs_a_cluster(self, tmp_path):
        tg = TrillionG(scale=10, retry=RetryPolicy(retries=0,
                                                   task_timeout=1e-6))
        with pytest.raises(ConfigurationError, match="retry"):
            tg.generate_to(tmp_path / "g.adj6")
        assert not (tmp_path / "g.adj6").exists()

    def test_blocks_per_chunk_defaults_when_resuming(self, tmp_path):
        result = TrillionG(scale=9, edge_factor=4, seed=2, block_size=64
                           ).generate_to(tmp_path / "run", resume=True)
        # 512 sources in 64-source blocks: 8 blocks, one 16-block chunk.
        assert len(result.paths) == 1 and result.num_edges == 4 * 512


class TestDistributed:
    def test_cluster_output_matches_sequential(self, tmp_path):
        seq = TrillionG(scale=11, edge_factor=8, seed=5,
                        block_size=128).generator.edges()
        tg = TrillionG(scale=11, edge_factor=8, seed=5, block_size=128,
                       cluster=ClusterSpec(machines=2,
                                           threads_per_machine=2))
        result = tg.generate_to(tmp_path / "parts", fmt="adj6",
                                processes=1)
        parts = [get_format("adj6").read_edges(p) for p in result.paths]
        merged = np.concatenate([p for p in parts if p.size])
        order = np.lexsort((merged[:, 1], merged[:, 0]))
        seq_order = np.lexsort((seq[:, 1], seq[:, 0]))
        np.testing.assert_array_equal(merged[order], seq[seq_order])
        assert result.num_edges == seq.shape[0]
        assert result.skew >= 1.0


class TestResume:
    @pytest.mark.parametrize("cluster", [None, ClusterSpec(1, 2)],
                             ids=["sequential", "cluster"])
    def test_progress_counts_the_adopted_chunks(self, tmp_path, cluster):
        """A resumed run's progress starts at the edges of the chunks an
        earlier run completed, reported once before it writes, and ticks
        once per chunk it writes, so its last value is |E|."""
        tg = TrillionG(scale=10, edge_factor=8, seed=3, block_size=64,
                       cluster=cluster)
        first = CheckpointedRun(tg.generator, tmp_path, blocks_per_chunk=2)
        stop_after(first, 3)
        seen = []
        result = tg.generate_to(tmp_path, resume=True, blocks_per_chunk=2,
                                progress=seen.append)
        assert seen[0] == first.num_edges > 0
        assert len(seen) == 1 + 16 // 2 - 3
        assert seen[-1] == result.num_edges == tg.generator.num_edges
