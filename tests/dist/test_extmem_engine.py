"""Tests for the one-pass external-memory sort engine.

Covers the splitter-partitioned pass (:func:`iter_unique_keys`) over
adversarial run shapes, its bucket bound, the atomic spill protocol and
torn-run rejection.
"""

import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, DataError
from repro.telemetry import registry, reset_telemetry
from repro.util.external_sort import (collect_chunks, iter_unique_keys,
                                      write_run)
from repro.util.spill import SpillStore


def make_runs(tmp_path, arrays, prefix="run"):
    paths = []
    for i, arr in enumerate(arrays):
        paths.append(write_run(np.sort(np.asarray(arr, dtype=np.int64)),
                               tmp_path / f"{prefix}-{i:06d}.run"))
    return paths


def expected_unique(arrays):
    flat = [np.asarray(a, dtype=np.int64) for a in arrays]
    if not flat:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(flat))


class TestMultiPassMerge:
    """Run-shape cases written against the multi-pass merge this engine
    replaced; they hold for any engine, so they stayed."""

    def check(self, tmp_path, arrays, *, chunk_items):
        paths = make_runs(tmp_path, arrays)
        out = collect_chunks(iter_unique_keys(paths,
                                              chunk_items=chunk_items))
        np.testing.assert_array_equal(out, expected_unique(arrays))

    def test_nine_runs_every_chunk_size(self, tmp_path):
        rng = np.random.default_rng(3)
        arrays = [rng.integers(0, 700, size=150) for _ in range(9)]
        for chunk in (1, 7, 64, 4096):
            self.check(tmp_path, arrays, chunk_items=chunk)

    def test_duplicates_straddle_pass_boundaries(self, tmp_path):
        # Every key occurs in all nine runs: its copies arrive in nine
        # slices and must collapse inside one bucket, never across two.
        arrays = [[10, 20, 30]] * 9
        self.check(tmp_path, arrays, chunk_items=2)

    def test_empty_and_constant_runs(self, tmp_path):
        arrays = [[], [5] * 40, [], [5] * 40, [1, 5, 9], [], [9] * 3,
                  [], []]
        self.check(tmp_path, arrays, chunk_items=4)

    def test_all_runs_empty(self, tmp_path):
        paths = make_runs(tmp_path, [[]] * 7)
        out = collect_chunks(iter_unique_keys(paths))
        assert out.size == 0

    def test_validation(self, tmp_path):
        paths = make_runs(tmp_path, [[1], [2]])
        with pytest.raises(ConfigurationError):
            list(iter_unique_keys(paths, chunk_items=0))

    def test_telemetry_counters(self, tmp_path):
        arrays = [np.arange(i, i + 50) for i in range(0, 270, 30)]
        paths = make_runs(tmp_path, arrays)
        reset_telemetry()  # drop the spill counts from make_runs
        chunk = 16
        out = collect_chunks(iter_unique_keys(paths, chunk_items=chunk))
        np.testing.assert_array_equal(out, expected_unique(arrays))
        reg = registry()
        # One pass: the engine reads, it never spills.
        assert reg.counter("extsort.runs_spilled").value == 0
        assert reg.counter("extsort.spill_bytes").value == 0
        peak = reg.gauge("extsort.peak_buffered_items", mode="max").value
        assert 0 < peak <= 2 * chunk + len(paths)


def run_shapes(chunk):
    """Duplicate-free runs in the shapes that stress the splitters."""
    rng = np.random.default_rng(17)
    total = 40 * chunk
    universe = rng.permutation(total * 4)[:total]
    return {
        "disjoint": [np.arange(i * 5 * chunk, (i + 1) * 5 * chunk)
                     for i in range(8)],
        "identical": [np.arange(0, 5 * chunk * 3, 3)] * 8,
        "interleaved": np.array_split(universe, 8),
        # Splitters drawn run by run in equal numbers would follow the
        # tiny runs and leave the giant one in a few huge buckets.
        "giant-and-tiny": [np.arange(30 * chunk)]
        + [np.full(1, 15 * chunk + i) for i in range(24)],
    }


class TestBucketBound:
    @pytest.mark.parametrize("chunk", [8, 64, 1000])
    @pytest.mark.parametrize("shape", ["disjoint", "identical",
                                       "interleaved", "giant-and-tiny"])
    def test_buckets_ascending_disjoint_and_bounded(self, tmp_path, shape,
                                                    chunk):
        arrays = run_shapes(chunk)[shape]
        paths = make_runs(tmp_path, arrays)
        reset_telemetry()
        buckets = list(iter_unique_keys(paths, chunk_items=chunk))
        for before, bucket in zip([None] + buckets, buckets):
            assert np.all(bucket[1:] > bucket[:-1])
            assert before is None or bucket[0] > before[-1]
        np.testing.assert_array_equal(np.concatenate(buckets),
                                      expected_unique(arrays))
        # What a bucket held before deduplication: every copy of every
        # key up to its last one and past the previous bucket's.
        everything = np.sort(np.concatenate(arrays))
        sizes = np.diff(np.searchsorted(
            everything, [b[-1] for b in buckets], side="right"), prepend=0)
        assert max(sizes) <= 2 * chunk + len(paths)
        assert max(sizes) == registry().gauge(
            "extsort.peak_buffered_items", mode="max").value
        # ...and the bound is not met by shredding: about total / chunk
        # buckets, not one per key.
        assert len(buckets) <= 2 * -(-everything.size // chunk) + 1


@settings(deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.lists(st.lists(st.integers(-2**40, 2**40), max_size=50),
                     max_size=9),
       chunk=st.integers(1, 17))
def test_streaming_matches_numpy_unique(tmp_path, data, chunk):
    work = Path(tempfile.mkdtemp(dir=tmp_path))
    paths = make_runs(work, data)
    out = collect_chunks(iter_unique_keys(paths, chunk_items=chunk))
    np.testing.assert_array_equal(out, expected_unique(data))


class TestAtomicSpill:
    def test_producer_failure_leaves_no_files(self, tmp_path, monkeypatch):
        def dying_fsync(fd):
            raise OSError("disk died before the data was durable")

        monkeypatch.setattr(os, "fsync", dying_fsync)
        target = tmp_path / "out.run"
        with pytest.raises(OSError):
            write_run(np.arange(5, dtype=np.int64), target)
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []

    def test_write_then_read_roundtrip(self, tmp_path):
        keys = np.arange(1000, dtype=np.int64)
        reset_telemetry()
        path = write_run(keys, tmp_path / "r.run")
        np.testing.assert_array_equal(
            np.fromfile(path, dtype=np.int64), keys)
        reg = registry()
        assert reg.counter("extsort.runs_spilled").value == 1
        assert reg.counter("extsort.spill_bytes").value == 8000

    def test_torn_run_rejected(self, tmp_path):
        torn = tmp_path / "torn.run"
        torn.write_bytes(b"\x01" * 12)  # not a whole number of int64s
        with pytest.raises(DataError, match="torn"):
            list(iter_unique_keys([torn]))

    def test_torn_run_rejected_before_first_chunk(self, tmp_path):
        # The torn run is the last one and sorts after every other key:
        # an engine that checked a run when it first read it would have
        # handed out good-looking buckets by then.
        paths = make_runs(tmp_path, [np.arange(100), np.arange(100, 200)])
        torn = tmp_path / "torn.run"
        torn.write_bytes(np.arange(1000, 1010).tobytes() + b"\x01" * 4)
        stream = iter_unique_keys(paths + [torn], chunk_items=8)
        with pytest.raises(DataError, match="torn"):
            next(stream)


class TestSpillStore:
    def test_names_and_tracks_runs(self, tmp_path):
        store = SpillStore(tmp_path / "spill")
        store.add_run(np.arange(5, dtype=np.int64))
        store.add_run(np.arange(3, 9, dtype=np.int64))
        assert [p.name for p in store.runs] == \
            ["run-000000.run", "run-000001.run"]
        assert store.num_runs == 2

    def test_iter_unique_matches_numpy(self, tmp_path):
        rng = np.random.default_rng(2)
        store = SpillStore(tmp_path / "spill")
        arrays = [rng.integers(0, 400, size=120) for _ in range(5)]
        for arr in arrays:
            store.add_run(np.sort(arr.astype(np.int64)))
        out = collect_chunks(store.iter_unique(chunk_items=32))
        np.testing.assert_array_equal(out, expected_unique(arrays))
