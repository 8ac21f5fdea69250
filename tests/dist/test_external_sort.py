"""Tests for the external sort / merge-dedup substrate."""

import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import tables
from repro.errors import DataError
from repro.formats import blocks_from_sorted_keys
from repro.formats.base import _block_from_keys
from repro.models import RmatDiskGenerator
from repro.telemetry import registry, reset_telemetry
from repro.util.external_sort import (collect_chunks, iter_unique_keys,
                                      write_run)


def make_runs(tmp_path, arrays):
    paths = []
    for i, arr in enumerate(arrays):
        paths.append(write_run(np.sort(np.asarray(arr, dtype=np.int64)),
                               tmp_path / f"run{i}.bin"))
    return paths


class TestExternalSortUnique:
    def test_single_run(self, tmp_path):
        paths = make_runs(tmp_path, [[3, 1, 2]])
        out = collect_chunks(iter_unique_keys(paths))
        assert out.tolist() == [1, 2, 3]

    def test_merges_and_dedups(self, tmp_path):
        paths = make_runs(tmp_path, [[1, 3, 5], [2, 3, 4], [5, 6]])
        out = collect_chunks(iter_unique_keys(paths))
        assert out.tolist() == [1, 2, 3, 4, 5, 6]

    def test_duplicates_within_run(self, tmp_path):
        paths = make_runs(tmp_path, [[1, 1, 1, 2], [2, 2, 3]])
        out = collect_chunks(iter_unique_keys(paths))
        assert out.tolist() == [1, 2, 3]

    def test_empty_inputs(self, tmp_path):
        assert collect_chunks(iter_unique_keys([])).size == 0
        paths = make_runs(tmp_path, [[]])
        assert collect_chunks(iter_unique_keys(paths)).size == 0

    def test_small_chunks_stress(self, tmp_path):
        """Chunk boundaries must not lose or duplicate keys."""
        rng = np.random.default_rng(0)
        arrays = [rng.integers(0, 500, size=400) for _ in range(5)]
        paths = make_runs(tmp_path, arrays)
        expected = np.unique(np.concatenate(arrays))
        for chunk in (1, 2, 3, 7, 64, 10000):
            out = collect_chunks(iter_unique_keys(paths, chunk_items=chunk))
            np.testing.assert_array_equal(out, expected)

    def test_disjoint_runs(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(0, 100),
                                     np.arange(100, 200)])
        out = collect_chunks(iter_unique_keys(paths, chunk_items=16))
        np.testing.assert_array_equal(out, np.arange(200))

    def test_identical_runs(self, tmp_path):
        paths = make_runs(tmp_path, [np.arange(50)] * 4)
        out = collect_chunks(iter_unique_keys(paths, chunk_items=8))
        np.testing.assert_array_equal(out, np.arange(50))

    def test_negative_and_large_keys(self, tmp_path):
        paths = make_runs(tmp_path, [[-5, 0, 2**50], [-5, 7]])
        out = collect_chunks(iter_unique_keys(paths))
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

    def test_disk_blocks_hold_one_bucket_at_a_time(self):
        """Through ``RmatDiskGenerator.iter_blocks``: while the next
        bucket is read, sorted and regrouped, nothing of the previous one
        is left, so the peak between two blocks is one bucket (its keys
        before dedup) plus slice-sized scratch and the block's sources
        and offsets — not two buckets, as when a generator on the way
        keeps the one it yielded while it makes the next."""
        reset_telemetry()
        batch = 1 << 17
        blocks = RmatDiskGenerator(17, 16, seed=3,
                                   batch_edges=batch).iter_blocks()
        next(blocks)                    # the map phase and one bucket
        peaks = []
        tracemalloc.start()
        try:
            for block in blocks:
                peaks.append((tracemalloc.get_traced_memory()[1],
                              24 * block.sources.size))
                del block
                tracemalloc.reset_peak()
        finally:
            tracemalloc.stop()
        assert len(peaks) > 10
        bucket = 8 * registry().gauge("extsort.peak_buffered_items",
                                      mode="max").value
        assert bucket <= 8 * (2 * batch + 17)
        scratch = 2 * 8 * tables._SLICE_KEYS + self.SLACK
        assert all(peak <= bucket + scratch + block
                   for peak, block in peaks), (bucket, peaks)

    def test_block_from_keys_reuses_its_quotient(self):
        """The keys become the destinations in place, a slice at a time:
        the call consumes its input and allocates one slice of scratch
        and the block's sources and offsets."""
        n = np.int64(1 << 12)
        rng = np.random.default_rng(6)
        keys = np.unique(rng.integers(0, n * n, 1 << 20))
        sources, destinations = np.divmod(keys, n)
        tracemalloc.start()
        try:
            block = _block_from_keys(keys, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * tables._SLICE_KEYS + 4 * block.offsets.nbytes
        assert block.destinations is keys
        np.testing.assert_array_equal(block.destinations, destinations)
        np.testing.assert_array_equal(
            np.repeat(block.sources, block.degrees), sources)

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


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 63), max_size=200),
       st.lists(st.integers(0, 200), max_size=12))
def test_regrouping_never_splits_a_source(values, cuts):
    """However a sorted key stream is cut into chunks — empty ones, one
    source over many, a cut on a source boundary — the blocks hold every
    edge once, in order, each source in one block only."""
    n = 8
    keys = np.unique(np.array(values, dtype=np.int64))
    bounds = sorted({min(c, keys.size) for c in cuts} | {0, keys.size})
    chunks = [keys[a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])]
    chunks.insert(len(chunks) // 2, np.empty(0, dtype=np.int64))
    blocks = list(blocks_from_sorted_keys(chunks, n))
    assert all(block.num_edges for block in blocks)
    sources = np.concatenate([b.sources for b in blocks] + [[]])
    assert (np.diff(sources) > 0).all()
    edges = np.concatenate([b.edge_array() for b in blocks]
                           + [np.empty((0, 2), dtype=np.int64)])
    np.testing.assert_array_equal(edges, np.column_stack(np.divmod(keys,
                                                                   n)))


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


@pytest.mark.parametrize("keep", [0, 1, 512])
def test_a_run_that_shrinks_between_buckets_raises(tmp_path, keep):
    """A run cut after the cuts were taken, between two buckets: the
    next bucket's read into its one array comes up short and says how
    short, whether that bucket's slice of the run is gone or cut short.
    The bucket before it was whole."""
    paths = make_runs(tmp_path, [np.arange(0, 8000, 2),
                                 np.arange(1, 8000, 2)])
    stream = iter_unique_keys(paths, chunk_items=2048)
    first = next(stream)
    np.testing.assert_array_equal(first, np.arange(first.size))
    with open(paths[0], "r+b") as handle:
        handle.truncate(8 * (first.size // 2 + keep))
    with pytest.raises(DataError, match=rf"{paths[0].name} shrank during "
                       r"the pass: keys \[\d+, \d+\) asked, \d+ read"):
        list(stream)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.lists(st.integers(-100, 100), max_size=60),
                min_size=1, max_size=6),
       st.integers(min_value=1, max_value=64))
def test_external_sort_property(tmp_path, arrays, chunk):
    """The one-pass sort == np.unique of the concatenation, always."""
    import uuid
    sub = tmp_path / uuid.uuid4().hex
    sub.mkdir()
    paths = make_runs(sub, arrays)
    flat = [x for arr in arrays for x in arr]
    expected = np.unique(np.array(flat, dtype=np.int64)) if flat \
        else np.empty(0, dtype=np.int64)
    out = collect_chunks(iter_unique_keys(paths, chunk_items=chunk))
    np.testing.assert_array_equal(out, expected)
