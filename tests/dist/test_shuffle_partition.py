"""Tests for hash shuffle and AVS-level range partitioning (Figure 6)."""

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.dist.partition import Bin, combine, range_partition, repartition
from repro.util.shuffle import (hash_partition, mix64, partition_sizes,
                                partition_slices)


class TestMix64:
    def test_deterministic(self):
        keys = np.arange(100)
        np.testing.assert_array_equal(mix64(keys), mix64(keys))

    def test_spreads_consecutive_keys(self):
        mixed = mix64(np.arange(1000))
        buckets = np.bincount((mixed % np.uint64(10)).astype(int),
                              minlength=10)
        assert buckets.min() > 50  # roughly uniform

    def test_distinct_inputs_distinct_outputs_mostly(self):
        mixed = mix64(np.arange(10000))
        assert np.unique(mixed).size == 10000


class TestHashPartition:
    def test_partition_covers_all(self):
        keys = np.arange(1000, dtype=np.int64)
        parts = hash_partition(keys, 7)
        assert sum(p.size for p in parts) == 1000
        merged = np.sort(np.concatenate(parts))
        np.testing.assert_array_equal(merged, keys)

    def test_single_worker(self):
        keys = np.arange(10, dtype=np.int64)
        parts = hash_partition(keys, 1)
        assert len(parts) == 1
        np.testing.assert_array_equal(parts[0], keys)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            hash_partition(np.arange(4), 0)

    def test_partition_sizes_match(self):
        keys = np.arange(5000, dtype=np.int64)
        parts = hash_partition(keys, 4)
        sizes = partition_sizes(keys, 4)
        assert sizes.tolist() == [p.size for p in parts]

    def test_roughly_balanced(self):
        keys = np.arange(40000, dtype=np.int64)
        sizes = partition_sizes(keys, 8)
        assert sizes.max() / sizes.min() < 1.1


class TestPartitionSlices:
    def test_matches_masked_reference(self):
        """The single-pass grouped layout reproduces, per worker, the
        exact sequence the old one-mask-per-worker implementation
        produced (the argsort is stable)."""
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**40, size=5000).astype(np.int64)
        for workers in (1, 2, 7, 16):
            grouped, offsets = partition_slices(keys, workers)
            mixed = mix64(keys) % np.uint64(workers)
            for w in range(workers):
                ref = keys[mixed == np.uint64(w)]
                np.testing.assert_array_equal(
                    grouped[offsets[w]:offsets[w + 1]], ref)

    def test_offsets_structure(self):
        keys = np.arange(1000, dtype=np.int64)
        grouped, offsets = partition_slices(keys, 6)
        assert offsets.shape == (7,)
        assert offsets[0] == 0 and offsets[-1] == keys.size
        assert np.all(np.diff(offsets) >= 0)
        assert grouped.size == keys.size

    def test_hash_partition_slices_are_views(self):
        parts = hash_partition(np.arange(100, dtype=np.int64), 4)
        assert all(p.base is not None for p in parts)

    def test_sizes_consistent_with_partition_sizes(self):
        keys = np.arange(4096, dtype=np.int64)
        _, offsets = partition_slices(keys, 5)
        np.testing.assert_array_equal(np.diff(offsets),
                                      partition_sizes(keys, 5))

    def test_empty_keys(self):
        grouped, offsets = partition_slices(
            np.empty(0, dtype=np.int64), 3)
        assert grouped.size == 0
        assert offsets.tolist() == [0, 0, 0, 0]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition_slices(np.arange(4), 0)


class TestBinAndCombine:
    def test_bin_rejects_empty(self):
        with pytest.raises(ValueError):
            Bin(5, 5, 0.0)

    def test_combine_respects_target(self):
        masses = np.array([10.0] * 10)
        bins = combine(masses, block_size=4, start_vertex=0,
                       target_mass=30.0)
        assert all(b.mass >= 30.0 for b in bins[:-1])
        assert sum(b.mass for b in bins) == 100.0
        assert bins[0].start == 0
        assert bins[-1].stop == 40

    def test_combine_contiguous(self):
        masses = np.array([5.0, 50.0, 5.0, 5.0])
        bins = combine(masses, 2, 100, 20.0)
        for a, b in zip(bins, bins[1:]):
            assert a.stop == b.start

    def test_combine_trailing_light_bin(self):
        masses = np.array([30.0, 30.0, 1.0])
        bins = combine(masses, 1, 0, 30.0)
        assert bins[-1].mass == 1.0


class TestRepartition:
    def test_equal_bins_split_evenly(self):
        bins = [Bin(i, i + 1, 10.0) for i in range(8)]
        out = repartition(bins, 4)
        assert len(out) == 4
        assert all(b.mass == 20.0 for b in out)

    def test_heavy_head_bin(self):
        bins = [Bin(0, 1, 100.0)] + [Bin(i, i + 1, 10.0)
                                     for i in range(1, 11)]
        out = repartition(bins, 4)
        # The hub bin takes one worker; the rest is spread over the others.
        assert out[0].mass == 100.0
        tail = [b.mass for b in out[1:]]
        assert max(tail) <= 50.0

    def test_fewer_bins_than_workers(self):
        bins = [Bin(0, 1, 10.0), Bin(1, 2, 10.0)]
        out = repartition(bins, 5)
        assert 1 <= len(out) <= 5
        assert out[-1].stop == 2

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            repartition([], 2)

    def test_total_mass_preserved(self):
        rng = np.random.default_rng(3)
        masses = rng.uniform(1, 50, size=30)
        bins = []
        pos = 0
        for m in masses:
            bins.append(Bin(pos, pos + 1, float(m)))
            pos += 1
        out = repartition(bins, 6)
        assert abs(sum(b.mass for b in out) - masses.sum()) < 1e-9


class TestRangePartition:
    def test_covers_vertex_range(self):
        g = RecursiveVectorGenerator(12, 16, seed=1, block_size=128)
        ranges = range_partition(g, 5)
        assert ranges[0].start == 0
        assert ranges[-1].stop == g.num_vertices
        for a, b in zip(ranges, ranges[1:]):
            assert a.stop == b.start

    def test_block_aligned(self):
        g = RecursiveVectorGenerator(12, 16, seed=1, block_size=128)
        for r in range_partition(g, 5)[:-1]:
            assert r.start % 128 == 0
            assert r.stop % 128 == 0

    def test_balance(self):
        g = RecursiveVectorGenerator(14, 16, seed=2, block_size=64)
        ranges = range_partition(g, 6)
        masses = np.array([r.mass for r in ranges])
        assert masses.max() / masses.mean() < 1.35

    @pytest.mark.parametrize("workers", [2, 4])
    def test_cut_lands_on_nearer_side_of_bin(self, workers):
        # Bins are 1/8 of a worker's share, so cutting on the nearer side
        # of the crossing bin misses the target by at most half a bin.
        g = RecursiveVectorGenerator(16, 16, seed=7, block_size=1024)
        masses = np.array([r.mass for r in range_partition(g, workers)])
        assert masses.max() / masses.mean() <= 1 + 1 / (2 * 8) + 0.01

    def test_masses_match_realized_degrees(self):
        g = RecursiveVectorGenerator(11, 16, seed=3, block_size=64)
        for r in range_partition(g, 3):
            realized = int(g.degrees(r.start, r.stop).sum())
            assert realized == int(r.mass)

    def test_single_worker(self):
        g = RecursiveVectorGenerator(10, 16, seed=4, block_size=256)
        ranges = range_partition(g, 1)
        assert len(ranges) == 1
        assert (ranges[0].start, ranges[0].stop) == (0, 1024)

    def test_rejects_zero_workers(self):
        g = RecursiveVectorGenerator(10, 16, seed=4)
        with pytest.raises(ValueError):
            range_partition(g, 0)
