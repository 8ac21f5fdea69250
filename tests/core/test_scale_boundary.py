"""The guard for ID width: every ID-carrying path must stay int64 once
vertex IDs straddle 2**32 at scale 33.

A platform-dependent default dtype (``np.arange`` without ``dtype=``)
or a narrow accumulator silently truncates IDs above 2**32 on 32-bit
builds, long before the 2**48 ID ceiling the 6-byte formats impose;
these tests run the real generators and the ADJ6 encoder across that
boundary and check the IDs that come out.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.core.nary import NAryRecursiveVectorGenerator
from repro.core.seed import SeedMatrix
from repro.formats import get_format

SCALE = 33
BLOCK = 768
# lo = STRADDLE_BLOCK * BLOCK = 2**32 - 256, hi = 2**32 + 512: the one
# block whose source range crosses the uint32 boundary.
STRADDLE_BLOCK = 2 ** 32 // BLOCK


def test_straddle_block_sources_cross_two_to_the_32():
    lo = STRADDLE_BLOCK * BLOCK
    assert lo < 2 ** 32 < lo + BLOCK


class TestGeneratorBoundary:
    @pytest.fixture(scope="class")
    def block(self):
        gen = RecursiveVectorGenerator(SCALE, num_edges=2 ** 20,
                                       block_size=BLOCK, seed=7)
        return gen.generate_block(STRADDLE_BLOCK)

    def test_id_arrays_are_int64(self, block):
        assert block.sources.dtype == np.int64
        assert block.offsets.dtype == np.int64
        assert block.destinations.dtype == np.int64

    def test_sources_straddle_the_boundary(self, block):
        assert int(block.sources.min()) < 2 ** 32
        assert int(block.sources.max()) >= 2 ** 32

    def test_edges_exist_above_two_to_the_32(self, block):
        edges = block.edge_array()
        assert edges.dtype == np.int64
        assert (edges[:, 0] >= 2 ** 32).any()
        assert int(edges.min()) >= 0
        assert int(edges.max()) < 2 ** SCALE

    def test_degrees_are_int64(self):
        gen = RecursiveVectorGenerator(SCALE, num_edges=2 ** 20,
                                       block_size=BLOCK, seed=7)
        degrees = gen.block_degrees(STRADDLE_BLOCK)
        assert degrees.dtype == np.int64


class TestNAryBoundary:
    @pytest.fixture(scope="class")
    def edges(self):
        seed = SeedMatrix(np.full((2, 2), 0.25, dtype=np.float64))
        gen = NAryRecursiveVectorGenerator(seed, depth=SCALE,
                                           num_edges=2 ** 36,
                                           block_size=BLOCK, seed=7)
        return gen.generate_block(STRADDLE_BLOCK)

    def test_edge_array_is_int64(self, edges):
        assert edges.dtype == np.int64
        assert edges.shape[1] == 2

    def test_sources_on_both_sides_of_the_boundary(self, edges):
        # the uniform seed gives every source an expected degree of 8,
        # so both halves of the straddling block emit edges
        assert (edges[:, 0] < 2 ** 32).any()
        assert (edges[:, 0] >= 2 ** 32).any()
        assert int(edges.max()) < 2 ** SCALE
        assert int(edges.min()) >= 0


class TestAdj6Boundary:
    def test_round_trip_above_two_to_the_33(self, tmp_path):
        fmt = get_format("adj6")
        base = 2 ** 33 + 5
        neighbours = np.array([7, 2 ** 32 - 1, 2 ** 32, 2 ** 33 + 1,
                               2 ** 48 - 1], dtype=np.int64)
        fmt.write(tmp_path / "b.adj6", [(base, neighbours)], 2 ** 48)
        ((vertex, back),) = list(fmt.iter_adjacency(tmp_path / "b.adj6"))
        assert vertex == base
        assert back.dtype == np.int64
        np.testing.assert_array_equal(back, neighbours)

    def test_block_encoder_matches_per_vertex_path(self, tmp_path):
        # the scatter-placed block encoder and the scalar add() path
        # must agree byte-for-byte on IDs straddling 2**32
        fmt = get_format("adj6")
        adjacency = [
            (2 ** 32 - 2, np.array([1, 2 ** 32 + 9], dtype=np.int64)),
            (2 ** 32 + 3, np.array([2 ** 33, 2 ** 33 + 1],
                                   dtype=np.int64)),
        ]
        fmt.write(tmp_path / "blocks.adj6", adjacency, 2 ** 34)
        writer = fmt.open_writer(tmp_path / "scalar.adj6", 2 ** 34)
        with writer:
            for vertex, neighbours in adjacency:
                writer.add(vertex, neighbours)
        blocks_bytes = (tmp_path / "blocks.adj6").read_bytes()
        scalar_bytes = (tmp_path / "scalar.adj6").read_bytes()
        assert blocks_bytes == scalar_bytes
