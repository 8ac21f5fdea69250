"""Tests for checkpointed (resumable) generation."""

import hashlib
import json
import multiprocessing as mp
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import TrillionG
from repro.core.generator import Recipe, RecursiveVectorGenerator
from repro.core.seed import SeedMatrix
from repro.dist.checkpoint import CheckpointedRun, CheckpointState
from repro.dist.runner import LocalCluster
from repro.errors import ConfigurationError
from repro.formats import get_format
from tests.faultinject import needs_fork, stop_after


def make_generator(**kw):
    defaults = dict(scale=10, edge_factor=8, seed=11, block_size=64)
    defaults.update(kw)
    scale = defaults.pop("scale")
    ef = defaults.pop("edge_factor")
    return RecursiveVectorGenerator(scale, ef, **defaults)


def nary_generator():
    """A 3 x 3 seed at depth 7: 2187 sources, 9 blocks of 256."""
    seed = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                                [0.12, 0.10, 0.05],
                                [0.08, 0.05, 0.10]]))
    return RecursiveVectorGenerator(7, 8, seed, seed=5, block_size=256)


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
        assert len(produced.workers) == len(run.chunk_ranges())
        np.testing.assert_array_equal(read_all(run),
                                      make_generator().edges())

    def test_interrupted_then_resumed(self, tmp_path):
        """Partial run + fresh resume object == uninterrupted output."""
        run1 = CheckpointedRun(make_generator(), tmp_path,
                               blocks_per_chunk=2)
        stop_after(run1, 3)
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
        assert again.run().workers == []      # nothing pending

    def test_partial_file_not_counted(self, tmp_path):
        """A .partial file (crash mid-chunk) is not in the manifest and
        gets regenerated."""
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=4)
        stop_after(run, 1)
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
        stop_after(CheckpointedRun(make_generator(), tmp_path,
                                   blocks_per_chunk=4), 1)
        with pytest.raises(ConfigurationError):
            CheckpointedRun(make_generator(seed=99), tmp_path,
                            blocks_per_chunk=4)
        with pytest.raises(ConfigurationError):
            CheckpointedRun(make_generator(), tmp_path,
                            blocks_per_chunk=8)
        # Same scale, |E|, seed and format, but another graph.
        with pytest.raises(ConfigurationError, match="noise"):
            CheckpointedRun(make_generator(noise=0.1), tmp_path,
                            blocks_per_chunk=4)
        other = SeedMatrix.rmat(0.45, 0.2, 0.2, 0.15)
        with pytest.raises(ConfigurationError, match="seed_matrix"):
            CheckpointedRun(make_generator(seed_matrix=other), tmp_path,
                            blocks_per_chunk=4)
        # A manifest that records only scale, |E| and seed is refused.
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc.update(doc.pop("generator"))
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=r"\(generator differ\)"):
            CheckpointedRun(make_generator(), tmp_path, blocks_per_chunk=4)

    def test_manifest_missing_an_entry_names_it(self, tmp_path):
        stop_after(CheckpointedRun(make_generator(), tmp_path,
                                   blocks_per_chunk=4), 1)
        manifest = tmp_path / "manifest.json"
        doc = json.loads(manifest.read_text())
        del doc["format"]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ConfigurationError, match=r"\(format differ\)"):
            CheckpointedRun(make_generator(), tmp_path, blocks_per_chunk=4)

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


class TestManifestOrder:
    """One configuration writes one ``manifest.json``, whatever order
    its chunks landed in."""

    def test_completed_serialises_in_chunk_order(self):
        state = CheckpointState(Recipe(4), "adj6", 2)
        for index in (10, 2, 0, 1000000, 9):
            state.completed[f"chunk-{index:06d}.adj6"] = index
        assert list(state.to_json()["completed"]) == [
            f"chunk-{index:06d}.adj6" for index in (0, 2, 9, 10, 1000000)]

    def test_two_parallel_runs_write_identical_manifests(self, tmp_path):
        manifests = []
        for name in ("a", "b"):
            run = CheckpointedRun(nary_generator(), tmp_path / name,
                                  blocks_per_chunk=2)
            run.run(2)
            manifests.append(run.manifest_path.read_bytes())
        assert manifests[0] == manifests[1]


class TestOlderManifest:
    """``fixtures/resume_scale10`` is a run of ``TrillionG(10, 4, seed=5,
    block_size=256)`` with ``blocks_per_chunk=1`` stopped after its
    first chunk, by the code that wrote the recipe as the generator's
    keyword arguments, the seed as nested lists."""

    FIXTURE = Path(__file__).parent / "fixtures" / "resume_scale10"
    # sha256 of that code's uninterrupted run: its sequential file and
    # the manifest of its resumable one.
    SEQUENTIAL = ("5b21861e0d083b01ed15b1dddd4f3157"
                  "e183afa253a951ae7f923b8962a3b028")
    MANIFEST = ("c989d7c190bf147c03f74140b87ba19c"
                "9ab520d68876e8ab8d845c15e6b66183")

    def resume(self, tmp_path, **settings):
        out = tmp_path / "run"
        shutil.copytree(self.FIXTURE, out)
        tg = TrillionG(**{"scale": 10, "edge_factor": 4, "seed": 5,
                          "block_size": 256, **settings})
        return out, tg.generate_to(out, resume=True, blocks_per_chunk=1)

    def test_a_resume_adopts_it_and_writes_the_same_bytes(self, tmp_path):
        first = (self.FIXTURE / "chunk-000000.adj6").read_bytes()
        out, result = self.resume(tmp_path)
        assert [p.name for p in result.paths] == [
            f"chunk-{i:06d}.adj6" for i in range(4)]
        assert result.paths[0].read_bytes() == first
        whole = b"".join(p.read_bytes() for p in result.paths)
        assert hashlib.sha256(whole).hexdigest() == self.SEQUENTIAL
        manifest = (out / "manifest.json").read_bytes()
        assert hashlib.sha256(manifest).hexdigest() == self.MANIFEST

    @pytest.mark.parametrize("field, settings", [
        ("scale", dict(scale=11, num_edges=4096)),
        ("num_edges", dict(num_edges=4097)),
        ("seed_matrix", dict(seed_matrix=SeedMatrix.rmat(0.45, 0.25, 0.2,
                                                         0.1))),
        ("noise", dict(noise=0.01)),
        ("direction", dict(direction="in")),
        ("dedup", dict(dedup=False)),
        ("degree_method", dict(degree_method="normal")),
        ("seed", dict(seed=6)),
        ("block_size", dict(block_size=128)),
    ])
    def test_a_recipe_field_that_differs_is_named(self, tmp_path, field,
                                                  settings):
        with pytest.raises(ConfigurationError, match=rf"\({field} differ\)"):
            self.resume(tmp_path, **settings)
        assert not (tmp_path / "run" / "chunk-000001.adj6").exists()


class TestNarySeed:
    """A 3 x 3 seed takes the binary generator's resumable and
    parallel paths, byte for byte."""

    def test_parts_concatenate_to_the_sequential_file(self, tmp_path):
        fmt = get_format("adj6")
        gen = nary_generator()
        fmt.write_blocks(tmp_path / "seq.adj6", gen.iter_blocks(),
                         gen.num_vertices)
        result = LocalCluster(num_workers=2).generate_to_files(
            nary_generator(), tmp_path / "parts", "adj6")
        assert len(result.paths) == 2
        assert b"".join(p.read_bytes() for p in result.paths) == \
            (tmp_path / "seq.adj6").read_bytes()

    def test_killed_after_one_chunk_then_resumed(self, tmp_path):
        whole = CheckpointedRun(nary_generator(), tmp_path / "whole",
                                blocks_per_chunk=2)
        whole.run()
        stop_after(CheckpointedRun(nary_generator(), tmp_path / "cut",
                                   blocks_per_chunk=2), 1)
        resumed = CheckpointedRun(nary_generator(), tmp_path / "cut",
                                  blocks_per_chunk=2)
        assert len(resumed.state.completed) == 1
        resumed.run()
        assert [p.read_bytes() for p in resumed.chunk_paths()] == \
            [p.read_bytes() for p in whole.chunk_paths()]
        assert resumed.manifest_path.read_bytes() == \
            whole.manifest_path.read_bytes()


class TestCrashWindows:
    """The kill windows a resumable run must heal: a chunk renamed but
    not yet recorded, a torn manifest, and corrupt strays."""

    def _drop_from_manifest(self, run, name):
        doc = json.loads(run.manifest_path.read_text())
        del doc["completed"][name]
        run.manifest_path.write_text(json.dumps(doc))

    def test_orphan_chunk_adopted_not_regenerated(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        stop_after(run, 3)
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
        assert resumed.run().workers == []   # nothing regenerated
        np.testing.assert_array_equal(read_all(resumed),
                                      make_generator().edges())

    def test_manifest_not_an_object_rebuilt_from_chunks(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        run.run()
        run.manifest_path.write_text("null")
        resumed = CheckpointedRun(make_generator(), tmp_path,
                                  blocks_per_chunk=2)
        assert resumed.complete

    def test_corrupt_orphan_regenerated(self, tmp_path):
        run = CheckpointedRun(make_generator(), tmp_path,
                              blocks_per_chunk=2)
        stop_after(run, 2)
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
        stop_after(run, 1)
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
            "from repro.dist.checkpoint import CheckpointedRun\n"
            f"g = RecursiveVectorGenerator(13, 8, seed=11, block_size=64)\n"
            f"CheckpointedRun(g, {str(out)!r}, blocks_per_chunk=2).run(2)\n"
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
