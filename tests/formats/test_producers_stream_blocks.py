"""Every producer feeds the writers whole blocks.

The output path's throughput comes from the vectorized block encoders
(``StreamWriter.add_block``); a producer that reached the per-vertex
``add`` fallback would reinsert a 2^scale-call Python loop between the
generator and the disk.  Here every format writer's ``add`` raises, so
each producer path below completes only if it never takes that
fallback.  Cluster workers are forked, so they inherit the patch.
"""

from __future__ import annotations

import pytest

from repro import TrillionG
from repro.dist import faults
from repro.dist.faults import RetryPolicy
from repro.dist.runner import LocalCluster
from repro.formats import base, get_format
from repro.models.rmat import RmatDiskGenerator

SCALE = 10
FORMATS = ("adj6", "csr6", "tsv")


def _writer_classes(cls=base.StreamWriter):
    for sub in cls.__subclasses__():
        yield sub
        yield from _writer_classes(sub)


@pytest.fixture(autouse=True)
def no_per_vertex_add(monkeypatch):
    def refuse(self, vertex, neighbours):
        raise AssertionError(
            f"{type(self).__name__}.add called: a producer fell back to "
            "the per-vertex path instead of add_block")

    writers = list(_writer_classes())
    assert {cls.__name__ for cls in writers} >= {
        "_Adj6Writer", "_Csr6Writer", "_TsvWriter"}
    for cls in writers:
        monkeypatch.setattr(cls, "add", refuse)


@pytest.mark.parametrize("fmt", FORMATS)
def test_trilliong_generate_to(tmp_path, fmt):
    tg = TrillionG(scale=SCALE, edge_factor=8, seed=3)
    result = tg.generate_to(tmp_path / f"g.{fmt}", fmt=fmt)
    assert result.num_edges == get_format(fmt).read_edges(
        tmp_path / f"g.{fmt}").shape[0] > 0


def test_local_cluster_generate_to_files(tmp_path, monkeypatch):
    monkeypatch.setattr(faults, "pick_start_method", lambda: "fork")
    tg = TrillionG(scale=SCALE, edge_factor=8, seed=3, block_size=128)
    result = LocalCluster(num_workers=2).generate_to_files(
        tg.generator, tmp_path, "adj6", processes=2,
        retry=RetryPolicy(retries=0))
    assert len(result.workers) == 2 and result.num_edges > 0
    assert not any(attempts[-1].in_process
                   for attempts in result.task_attempts.values())


def test_rmat_disk_write_to(tmp_path):
    gen = RmatDiskGenerator(SCALE, 8, seed=3, batch_edges=2048,
                            spill_dir=str(tmp_path))
    result = gen.write_to(tmp_path / "r.adj6", fmt="adj6")
    assert result.num_edges > 0

