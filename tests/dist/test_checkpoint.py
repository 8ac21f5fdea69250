"""Tests for checkpointed (resumable) generation."""

import multiprocessing as mp
import os
from pathlib import Path

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.dist.checkpoint import CheckpointedRun
from repro.errors import ConfigurationError
from repro.formats import get_format
from tests.faultinject import needs_fork


def make_generator(**kw):
    defaults = dict(scale=10, edge_factor=8, seed=11, block_size=64)
    defaults.update(kw)
    scale = defaults.pop("scale")
    ef = defaults.pop("edge_factor")
    return RecursiveVectorGenerator(scale, ef, **defaults)


def _die_in_manifest_save(run):
    """Child process: save the manifest and die at its fsync, as a
    SIGKILL between the write and the rename would."""
    os.fsync = lambda fd: os._exit(9)
    run._save()


def read_all(run):
    fmt = get_format(run.fmt)
    parts = [fmt.read_edges(p) for p in run.chunk_paths()]
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else \
        np.empty((0, 2), dtype=np.int64)


class TestCheckpointedRun:
    def test_complete_run_matches_direct_generation(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        produced = run.run()
        assert run.complete
        assert produced == len(run.chunk_ranges())
        np.testing.assert_array_equal(read_all(run),
                                      make_generator().edges())

    def test_interrupted_then_resumed(self, tmp_path):
        """Partial run + fresh resume object == uninterrupted output."""
        run1 = CheckpointedRun(make_generator(), tmp_path,
                               blocks_per_chunk=2)
        run1.run(max_chunks=3)
        assert not run1.complete
        assert len(run1.pending()) > 0

        run2 = CheckpointedRun(make_generator(), tmp_path,
                               blocks_per_chunk=2)
        assert len(run2.state.completed) == 3     # manifest reloaded
        run2.run()
        assert run2.complete
        np.testing.assert_array_equal(read_all(run2),
                                      make_generator().edges())

    def test_resume_regenerates_nothing_done(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        run.run()
        again = CheckpointedRun(make_generator(), tmp_path,
                                blocks_per_chunk=4)
        assert again.run() == 0      # nothing pending

    def test_partial_file_not_counted(self, tmp_path):
        """A .partial file (crash mid-chunk) is not in the manifest and
        gets regenerated."""
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        run.run(max_chunks=1)
        # Simulate a crash leaving a partial file for the next chunk.
        junk = tmp_path / (run.pending()[0][0] + ".partial")
        junk.write_bytes(b"garbage")
        resumed = CheckpointedRun(make_generator(), tmp_path,
                                  blocks_per_chunk=4)
        resumed.run()
        assert resumed.complete
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator().edges())

    def test_mismatched_config_rejected(self, tmp_path):
        CheckpointedRun(make_generator(), tmp_path,
                        blocks_per_chunk=4).run(max_chunks=1)
        with pytest.raises(ConfigurationError):
            CheckpointedRun(make_generator(seed=99), tmp_path,
                            blocks_per_chunk=4)
        with pytest.raises(ConfigurationError):
            CheckpointedRun(make_generator(), tmp_path,
                            blocks_per_chunk=8)

    def test_edge_count_tracked(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        run.run()
        assert run.num_edges == make_generator().edges().shape[0]

    def test_rejects_bad_chunk_size(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CheckpointedRun(make_generator(), tmp_path,
                            blocks_per_chunk=0)

    def test_csr6_chunks(self, tmp_path):
        run = CheckpointedRun(make_generator(scale=9), tmp_path,
                              fmt="csr6", blocks_per_chunk=2)
        run.run()
        assert run.complete
        total = read_all(run)
        assert total.shape[0] == run.num_edges


class TestCrashWindows:
    """The kill windows a resumable run must heal: a chunk renamed but
    not yet recorded, a torn manifest, and corrupt strays."""

    def _drop_from_manifest(self, run, name):
        import json
        doc = json.loads(run.manifest_path.read_text())
        del doc["completed"][name]
        run.manifest_path.write_text(json.dumps(doc))

    def test_orphan_chunk_adopted_not_regenerated(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        run.run(max_chunks=3)
        orphan = run.chunk_paths()[1]
        self._drop_from_manifest(run, orphan.name)
        (tmp_path / "chunk-000009.adj6.partial.999").write_bytes(b"junk")

        before = orphan.stat().st_mtime_ns
        resumed = CheckpointedRun(make_generator(), tmp_path,
                                  blocks_per_chunk=2)
        # Adopted straight into the manifest, no rewrite of the file.
        assert orphan.name in resumed.state.completed
        assert orphan.stat().st_mtime_ns == before
        # The stale temporary was swept.
        assert not list(tmp_path.glob("*.partial*"))
        resumed.run()
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator().edges())

    def test_unparsable_manifest_rebuilt_from_chunks(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        run.run()
        run.manifest_path.write_text("{this is not json")

        resumed = CheckpointedRun(make_generator(), tmp_path,
                                  blocks_per_chunk=2)
        assert resumed.complete          # every chunk verified + adopted
        assert resumed.run() == 0        # nothing regenerated
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator().edges())

    def test_corrupt_orphan_regenerated(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        run.run(max_chunks=2)
        victim = run.chunk_paths()[0]
        self._drop_from_manifest(run, victim.name)
        data = victim.read_bytes()
        victim.write_bytes(data[:len(data) // 2])    # torn chunk

        resumed = CheckpointedRun(make_generator(), tmp_path,
                                  blocks_per_chunk=2)
        assert victim.name not in resumed.state.completed
        resumed.run()
        assert resumed.complete
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator().edges())

    def test_no_manifest_temp_left_behind(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        run.run()
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [p.name for p in run.chunk_paths()] + ["manifest.json"])

    @needs_fork
    def test_killed_manifest_save_swept_on_resume(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        run.run(max_chunks=1)
        published = sorted(p.name for p in tmp_path.iterdir())
        child = mp.get_context("fork").Process(
            target=_die_in_manifest_save, args=(run,))
        child.start()
        child.join(60)
        assert child.exitcode == 9
        assert len(list(tmp_path.iterdir())) == len(published) + 1

        CheckpointedRun(make_generator(), tmp_path, blocks_per_chunk=2)
        assert sorted(p.name for p in tmp_path.iterdir()) == published


class TestKillResume:
    def test_sigkill_mid_run_resumes_bit_identical(self, tmp_path):
        """SIGKILL a parallel checkpointed run (supervisor and workers),
        then resume: the merged output equals a clean sequential run."""
        import os
        import signal
        import subprocess
        import sys
        import time

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        out = tmp_path / "out"
        code = (
            "from repro.core.generator import RecursiveVectorGenerator\n"
            "from repro.dist.runner import LocalCluster\n"
            f"g = RecursiveVectorGenerator(13, 8, seed=11, block_size=64)\n"
            f"LocalCluster(num_workers=2).generate_checkpointed(\n"
            f"    g, {str(out)!r}, blocks_per_chunk=2, processes=2)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if len(list(out.glob("chunk-*.adj6"))) >= 2:
                    break
                if proc.poll() is not None:
                    break               # finished before we could kill
                time.sleep(0.01)
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
        finally:
            proc.wait()

        gen = make_generator(scale=13)
        resumed = CheckpointedRun(gen, out, blocks_per_chunk=2)
        assert len(resumed.state.completed) >= 2   # survived the kill
        resumed.run()
        assert resumed.complete
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator(scale=13).edges())
