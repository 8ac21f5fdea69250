"""Tests for the external sort / merge-dedup substrate."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import DataError
from repro.formats import blocks_from_sorted_keys
from repro.formats.base import _block_from_keys
from repro.util.external_sort import (external_sort_unique,
                                      iter_unique_keys, write_run)


def make_runs(tmp_path, arrays):
    paths = []
    for i, arr in enumerate(arrays):
        paths.append(write_run(np.sort(np.asarray(arr, dtype=np.int64)),
                               tmp_path / f"run{i}.bin"))
    return paths


class TestExternalSortUnique:
    def test_single_run(self, tmp_path):
        paths = make_runs(tmp_path, [[3, 1, 2]])
        out = external_sort_unique(paths)
        assert out.tolist() == [1, 2, 3]

    def test_merges_and_dedups(self, tmp_path):
        paths = make_runs(tmp_path, [[1, 3, 5], [2, 3, 4], [5, 6]])
        out = external_sort_unique(paths)
        assert out.tolist() == [1, 2, 3, 4, 5, 6]

    def test_duplicates_within_run(self, tmp_path):
        paths = make_runs(tmp_path, [[1, 1, 1, 2], [2, 2, 3]])
        out = external_sort_unique(paths)
        assert out.tolist() == [1, 2, 3]

    def test_empty_inputs(self, tmp_path):
        assert external_sort_unique([]).size == 0
        paths = make_runs(tmp_path, [[]])
        assert external_sort_unique(paths).size == 0

    def test_small_chunks_stress(self, tmp_path):
        """Chunk boundaries must not lose or duplicate keys."""
        rng = np.random.default_rng(0)
        arrays = [rng.integers(0, 500, size=400) for _ in range(5)]
        paths = make_runs(tmp_path, arrays)
        expected = np.unique(np.concatenate(arrays))
        for chunk in (1, 2, 3, 7, 64, 10000):
            out = external_sort_unique(paths, chunk_items=chunk)
            np.testing.assert_array_equal(out, expected)

    def test_disjoint_runs(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(0, 100),
                                     np.arange(100, 200)])
        out = external_sort_unique(paths, chunk_items=16)
        np.testing.assert_array_equal(out, np.arange(200))

    def test_identical_runs(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(50)] * 4)
        out = external_sort_unique(paths, chunk_items=8)
        np.testing.assert_array_equal(out, np.arange(50))

    def test_negative_and_large_keys(self, tmp_path):
        paths = make_runs(tmp_path, [[-5, 0, 2**50], [-5, 7]])
        out = external_sort_unique(paths)
        assert out.tolist() == [-5, 0, 7, 2**50]


class TestMergeSortedRuns:
    def test_streaming_chunks_are_sorted_and_disjoint(self, tmp_path):
        rng = np.random.default_rng(1)
        arrays = [rng.integers(0, 1000, size=300) for _ in range(4)]
        paths = make_runs(tmp_path, arrays)
        last = None
        seen = []
        for chunk in iter_unique_keys(paths, chunk_items=32):
            assert np.all(np.diff(chunk) > 0)
            if last is not None:
                assert chunk[0] > last
            last = int(chunk[-1])
            seen.append(chunk)
        np.testing.assert_array_equal(
            np.concatenate(seen), np.unique(np.concatenate(arrays)))


class TestMergeAdversarialCases:
    """Hand-built worst cases for the chunk-level merge's cut logic."""

    def check(self, tmp_path, arrays, chunk_items):
        paths = make_runs(tmp_path, arrays)
        out = list(iter_unique_keys(paths, chunk_items=chunk_items))
        merged = (np.concatenate(out) if out
                  else np.empty(0, dtype=np.int64))
        flat = [np.asarray(a, dtype=np.int64) for a in arrays]
        expected = np.unique(np.concatenate(flat)) if flat \
            else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(merged, expected)

    def test_duplicates_straddle_flush_boundary(self, tmp_path):
        # chunk_items=4 puts the flush boundary inside the run of 7s:
        # the second 7 arrives after last_emitted == 7 and must be
        # dropped by the cross-flush dedup, not re-emitted.
        self.check(tmp_path, [[1, 3, 7, 7, 9], [2, 7, 8]], 4)

    def test_chunk_equals_next_runs_head(self, tmp_path):
        # Run A's entire buffered chunk equals run B's head, so the
        # side="right" cut takes the whole chunk in one step; the equal
        # keys must still collapse to one.
        self.check(tmp_path, [[5, 5, 5], [5, 6, 7]], 3)

    def test_all_runs_identical_constant(self, tmp_path):
        self.check(tmp_path, [[4] * 10, [4] * 10, [4] * 10], 4)

    def test_single_run_passthrough(self, tmp_path):
        self.check(tmp_path, [[1, 2, 2, 3, 10]], 2)

    def test_empty_runs_mixed_with_data(self, tmp_path):
        self.check(tmp_path, [[], [1, 2], [], [2, 3]], 8)

    def test_all_runs_empty(self, tmp_path):
        self.check(tmp_path, [[], []], 8)


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


class TestReaderHandleLifecycle:
    """No descriptor (file or mapping) outlives the pass, whether it
    runs to the end or is abandoned between two buckets."""

    def test_merge_closes_all_readers_on_completion(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(100), np.arange(50, 150),
                                     []])
        before = open_descriptors()
        assert len(list(iter_unique_keys(paths, chunk_items=16))) > 2
        assert open_descriptors() == before

    def test_merge_closes_readers_when_abandoned_mid_merge(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(100), np.arange(100, 200)])
        before = open_descriptors()
        stream = iter_unique_keys(paths, chunk_items=4)
        next(stream)           # start the pass, then bail out
        assert open_descriptors() == before
        stream.close()         # generator finalization mid-pass
        assert open_descriptors() == before


class TestBucketLifetimes:
    """Nothing bucket-sized outlives its use: the pass, the block
    builder and the regrouping each let go of what they are done with
    before the consumer gets the next thing."""

    #: Interpreter objects the pass keeps besides numpy buffers: paths,
    #: the telemetry gauge, the generator frames.
    SLACK = 64 << 10

    def test_a_held_bucket_is_all_the_pass_holds(self, tmp_path):
        rng = np.random.default_rng(5)
        runs, chunk_items = 8, 1 << 14
        paths = make_runs(tmp_path, [rng.integers(0, 1 << 24, 50_000)
                                     for _ in range(runs)])
        # Every stride-th key of each run is a sample; a run's cuts are
        # one per splitter, one per chunk_items // stride samples, + 2.
        stride = chunk_items // (2 * runs)
        samples = 8 * runs * (50_000 // stride)
        cuts = 8 * runs * (2 + samples // 8 // (chunk_items // stride))
        held = []
        tracemalloc.start()
        try:
            for keys in iter_unique_keys(paths, chunk_items=chunk_items):
                held.append((tracemalloc.get_traced_memory()[0],
                             keys.nbytes + samples + cuts + self.SLACK))
                del keys
        finally:
            tracemalloc.stop()
        assert len(held) > 10
        assert all(traced <= bound for traced, bound in held), held

    def test_block_from_keys_reuses_its_quotient(self):
        n = np.int64(1 << 12)
        rng = np.random.default_rng(6)
        keys = np.unique(rng.integers(0, n * n, 1 << 20))
        tracemalloc.start()
        try:
            block = _block_from_keys(keys, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * keys.nbytes + block.offsets.nbytes
        np.testing.assert_array_equal(
            block.destinations, keys - np.repeat(block.sources,
                                                 block.degrees) * n)

    def test_regrouping_holds_one_chunk_and_one_source(self):
        n = 1 << 10
        rng = np.random.default_rng(7)
        keys = np.unique(rng.integers(0, n * n, 1 << 19))
        chunk_items = 1 << 15
        widest = 8 * int(np.bincount(keys // n).max())

        def chunks():
            for first in range(0, keys.size, chunk_items):
                yield keys[first:first + chunk_items].copy()

        held = []
        tracemalloc.start()
        try:
            for block in blocks_from_sorted_keys(chunks(), n):
                bound = (8 * chunk_items + widest + block.sources.nbytes
                         + block.offsets.nbytes + self.SLACK)
                held.append((tracemalloc.get_traced_memory()[0], bound))
                del block
        finally:
            tracemalloc.stop()
        assert len(held) > 10
        assert all(traced <= bound for traced, bound in held), held


def test_run_truncated_mid_pass_raises_naming_it(tmp_path):
    """A run cut short after the splitters were taken used to lose its
    tail silently: the pass emitted 3 000 of 4 000 keys."""
    paths = make_runs(tmp_path, [np.arange(0, 4000, 2),
                                 np.arange(1, 4000, 2)])
    stream = iter_unique_keys(paths, chunk_items=256)
    next(stream)
    with open(paths[1], "r+b") as handle:
        handle.truncate(1000 * 8)
    with pytest.raises(DataError, match=paths[1].name):
        list(stream)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.integers(-100, 100), max_size=60),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=64))
def test_external_sort_property(tmp_path, arrays, chunk):
    """external_sort_unique == np.unique of the concatenation, always."""
    import uuid
    sub = tmp_path / uuid.uuid4().hex
    sub.mkdir()
    paths = make_runs(sub, arrays)
    flat = [x for arr in arrays for x in arr]
    expected = np.unique(np.array(flat, dtype=np.int64)) if flat \
        else np.empty(0, dtype=np.int64)
    out = external_sort_unique(paths, chunk_items=chunk)
    np.testing.assert_array_equal(out, expected)
