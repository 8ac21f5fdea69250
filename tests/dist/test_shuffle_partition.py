"""Tests for the hash-shuffle counts and AVS-level range partitioning
(Figure 6)."""

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.dist.partition import Bin, range_partition, repartition
from repro.util.shuffle import mix64, partition_sizes


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
        sizes = partition_sizes(keys, 7)
        assert sizes.shape == (7,)
        assert sizes.sum() == 1000

    def test_single_worker(self):
        keys = np.arange(10, dtype=np.int64)
        assert partition_sizes(keys, 1).tolist() == [10]

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            partition_sizes(np.arange(4), 0)

    def test_partition_sizes_match(self):
        keys = np.arange(5000, dtype=np.int64)
        worker = (mix64(keys) % np.uint64(4)).astype(np.int64)
        np.testing.assert_array_equal(partition_sizes(keys, 4),
                                      np.bincount(worker, minlength=4))

    def test_roughly_balanced(self):
        keys = np.arange(40000, dtype=np.int64)
        sizes = partition_sizes(keys, 8)
        assert sizes.max() / sizes.min() < 1.1


class TestPartitionSlices:
    """``partition_sizes`` counts the slice of keys each worker gets."""

    def test_matches_masked_reference(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 2**40, size=5000).astype(np.int64)
        for workers in (1, 2, 7, 16):
            mixed = mix64(keys) % np.uint64(workers)
            assert partition_sizes(keys, workers).tolist() == [
                int(np.count_nonzero(mixed == np.uint64(w)))
                for w in range(workers)]

    def test_empty_keys(self):
        sizes = partition_sizes(np.empty(0, dtype=np.int64), 3)
        assert sizes.tolist() == [0, 0, 0]


class TestBin:
    def test_bin_rejects_empty(self):
        with pytest.raises(ValueError):
            Bin(5, 5, 0.0)


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
        # (9, 4096): one block wider than |V|, whose bin is cut at |V|.
        for scale, block_size in ((12, 128), (9, 4096)):
            g = RecursiveVectorGenerator(scale, 16, seed=1,
                                         block_size=block_size)
            ranges = range_partition(g, 5)
            assert ranges[0].start == 0
            assert ranges[-1].stop == g.num_vertices
            for a, b in zip(ranges, ranges[1:]):
                assert a.stop == b.start
            assert all(r.start < r.stop for r in ranges)

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
        # A bin is one block (past the hub, up to a quarter of a share
        # here); cutting on the nearer side of the crossing bin keeps the
        # skew under the 1/16 that bins of an eighth of a share allowed.
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
