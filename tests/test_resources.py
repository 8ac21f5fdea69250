"""Nothing that writes or reads the graph leaves a file handle for the
garbage collector: every handle is closed on the path that opened it, so
no ``ResourceWarning`` is raised when the collector runs."""

import gc
import warnings

import numpy as np
import pytest

from repro import TrillionG
from repro.core.generator import RecursiveVectorGenerator
from repro.dist.checkpoint import CheckpointedRun
from repro.telemetry import write_json_report
from repro.util.spill import SpillStore


def _resource_warnings(action):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        action()
        gc.collect()
    return [str(w.message) for w in caught
            if issubclass(w.category, ResourceWarning)]


@pytest.mark.parametrize("fmt", ["adj6", "tsv", "csr6"])
def test_generate_to_closes_its_files(tmp_path, fmt):
    def action():
        result = TrillionG(scale=9, edge_factor=8, seed=3,
                           block_size=64).generate_to(
            tmp_path / f"g.{fmt}", fmt=fmt)
        assert result.num_edges > 0

    assert _resource_warnings(action) == []


def test_spill_runs_and_bucket_reads_close_their_files(tmp_path):
    rng = np.random.default_rng(5)
    batches = [np.sort(rng.integers(0, 5000, 400)) for _ in range(4)]

    def action():
        store = SpillStore(tmp_path / "spill")
        for keys in batches:
            store.add_run(keys)
        merged = np.concatenate(list(store.iter_unique(chunk_items=97)))
        np.testing.assert_array_equal(merged,
                                      np.unique(np.concatenate(batches)))

    assert _resource_warnings(action) == []


def test_checkpoint_and_report_close_their_files(tmp_path):
    def action():
        run = CheckpointedRun(
            RecursiveVectorGenerator(9, 8, seed=11, block_size=64),
            tmp_path / "run", blocks_per_chunk=2)
        assert run.run().workers
        write_json_report(tmp_path / "report.json")

    assert _resource_warnings(action) == []
