"""The distributed write path against a clean sequential run.

Workers, retries and kills must be invisible in the output: part and
chunk files are byte-identical to what one uninterrupted sequential run
writes — under two partitionings, under fault injection, and across a
SIGKILL mid-chunk resume.
"""

import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.core.generator import RecursiveVectorGenerator
from repro.dist.checkpoint import CheckpointedRun
from repro.dist import runner
from repro.dist.faults import RetryPolicy
from repro.dist.runner import LocalCluster
from repro.formats import get_format
from tests.faultinject import FaultInjector, needs_fork


def make_generator():
    return RecursiveVectorGenerator(10, 8, seed=11, block_size=64)


def digest_dir(paths):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths}


def test_distributed_parts_identical_to_sequential(tmp_path):
    gen = make_generator()
    sequential = get_format("adj6").write_blocks(
        tmp_path / "seq.adj6", gen.iter_blocks(), gen.num_vertices)
    for workers in (2, 3):
        parts = LocalCluster(num_workers=workers).generate_to_files(
            gen, tmp_path / f"w{workers}", processes=2)
        assert parts.num_edges == sequential.num_edges
        assert b"".join(p.read_bytes() for p in parts.paths) == \
            sequential.path.read_bytes()


@needs_fork
def test_checkpointed_chunks_identical_under_fault_injection(tmp_path,
                                                             monkeypatch):
    """Crash-injected retries still land the same chunk bytes as a clean
    sequential run."""
    gen = make_generator()
    FaultInjector(tmp_path / "markers", crash_probability=0.4,
                  seed=3).patch(monkeypatch, runner, "_worker_chunk")
    injected = LocalCluster(num_workers=2).generate_checkpointed(
        gen, tmp_path / "faulty", blocks_per_chunk=2, processes=2,
        retry=RetryPolicy(retries=4))
    assert injected.num_retries > 0
    assert injected.checkpoint is not None
    assert injected.checkpoint.complete

    clean = CheckpointedRun(make_generator(), tmp_path / "clean",
                            blocks_per_chunk=2)
    clean.run()
    assert digest_dir(injected.checkpoint.chunk_paths()) == \
        digest_dir(clean.chunk_paths())


def test_sigkill_mid_chunk_resume_identical(tmp_path):
    """SIGKILL a checkpointed run mid-flight; the resumed output is
    byte-identical to an uninterrupted sequential run."""
    import repro

    src = str(Path(repro.__file__).resolve().parents[1])
    out = tmp_path / "out"
    code = (
        "from repro.core.generator import RecursiveVectorGenerator\n"
        "from repro.dist.runner import LocalCluster\n"
        "g = RecursiveVectorGenerator(13, 8, seed=11, block_size=64)\n"
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
                break                       # finished before the kill
            time.sleep(0.01)
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    finally:
        proc.wait()

    gen = RecursiveVectorGenerator(13, 8, seed=11, block_size=64)
    resumed = CheckpointedRun(gen, out, blocks_per_chunk=2)
    resumed.run()
    assert resumed.complete

    reference = CheckpointedRun(
        RecursiveVectorGenerator(13, 8, seed=11, block_size=64),
        tmp_path / "ref", blocks_per_chunk=2)
    reference.run()
    assert digest_dir(resumed.chunk_paths()) == \
        digest_dir(reference.chunk_paths())
