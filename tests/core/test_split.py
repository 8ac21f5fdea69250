"""Scope sizes by a keyed binomial split of |E| down the source bits."""

import numpy as np
import pytest

from repro import RecursiveVectorGenerator
from repro.core import generator
from repro.errors import ConfigurationError


def test_split_is_the_default():
    assert RecursiveVectorGenerator(8).degree_method == "split"


def test_rejects_an_unknown_method():
    for method in ("poisson", "binomial", "exact"):
        with pytest.raises(ConfigurationError):
            RecursiveVectorGenerator(8, degree_method=method)


@pytest.mark.parametrize("scale, block_size", [
    (12, 4096), (13, 1024), (14, 768), (12, 100), (11, 4096)])
@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_sizes_add_up_to_num_edges(scale, block_size, noise):
    """Aligned and unaligned grids, a grid block wider than |V|, and a
    last block cut short by |V|: Σ sizes = |E| in every case."""
    g = RecursiveVectorGenerator(scale, 16, seed=3, noise=noise,
                                 block_size=block_size)
    assert int(g.degrees().sum()) == g.num_edges


def test_explicit_num_edges_is_exact():
    g = RecursiveVectorGenerator(12, num_edges=98_765, seed=2)
    assert int(g.degrees().sum()) == 98_765


@pytest.mark.parametrize("block_size", [256, 768])
def test_a_block_derives_its_sizes_in_any_order(block_size):
    """A block reads its root path off the keyed splits, so visiting the
    blocks backwards, or one block alone, draws the same sizes."""
    forward = RecursiveVectorGenerator(12, seed=9, block_size=block_size)
    blocks = -(-forward.num_vertices // block_size)
    sizes = [forward.block_degrees(b) for b in range(blocks)]
    backward = RecursiveVectorGenerator(12, seed=9, block_size=block_size)
    for b in reversed(range(blocks)):
        np.testing.assert_array_equal(backward.block_degrees(b), sizes[b])
    alone = RecursiveVectorGenerator(12, seed=9, block_size=block_size)
    np.testing.assert_array_equal(alone.block_degrees(blocks // 2),
                                  sizes[blocks // 2])


def test_block_total_is_read_off_the_root_path():
    g = RecursiveVectorGenerator(13, seed=4, block_size=512)
    for b in range(16):
        assert g.block_total(b) == int(g.block_degrees(b).sum())


def test_a_sweep_splits_every_node_above_the_grid_once(monkeypatch):
    """With the last block's path remembered, a sequential sweep over a
    power-of-two grid draws each node above it once: one split per
    block, less one."""
    labels = []
    real = generator.stream

    def counting(seed, *key):
        labels.append(key)
        return real(seed, *key)

    monkeypatch.setattr(generator, "stream", counting)
    g = RecursiveVectorGenerator(14, seed=5, block_size=256)
    g.degrees()
    splits = [key for key in labels if key[0] == generator._TAG_SPLIT]
    assert len(splits) == len(set(splits)) == (1 << 14) // 256 - 1


def test_the_cap_is_the_only_way_the_sum_misses():
    """At scale 9 the hub scope's expected size, 700, is over |V|."""
    g = RecursiveVectorGenerator(9, 16, seed=1)
    sizes = g.degrees()
    assert sizes.max() == g.num_vertices
    uncapped = RecursiveVectorGenerator(9, 16, seed=1, dedup=False)
    assert int(uncapped.degrees().sum()) == g.num_edges
    assert int(sizes.sum()) == g.num_edges - int(
        (uncapped.degrees() - sizes).sum())
