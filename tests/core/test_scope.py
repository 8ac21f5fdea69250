"""Unit tests for repro.core.scope (Theorem 1)."""

import numpy as np
import pytest

from repro.core.probability import row_probabilities
from repro.core.scope import (SCOPE_SIZE_METHODS, sample_scope_sizes,
                              split_scope_sizes)
from repro.core.seed import GRAPH500


def rng():
    return np.random.default_rng(123)


def binary_split(zero):
    """Per-level ``[P(bit = 0), P(bit = 1)]`` rows."""
    zero = np.asarray(zero, dtype=np.float64)
    return np.column_stack([zero, 1.0 - zero])


class TestSampleScopeSizes:
    def test_mean_matches_theorem1(self):
        """Average degree over many draws approaches n*p."""
        p = np.full(20000, 1e-4)
        sizes = sample_scope_sizes(p, 100000, rng())
        assert abs(sizes.mean() - 10.0) < 0.2

    def test_variance_matches_theorem1(self):
        p = np.full(50000, 1e-4)
        n = 100000
        sizes = sample_scope_sizes(p, n, rng())
        expected_var = n * 1e-4 * (1 - 1e-4)
        assert abs(sizes.var() / expected_var - 1.0) < 0.1

    def test_normal_close_to_binomial(self):
        """The Theorem 1 approximation tracks the exact binomial."""
        p = np.full(30000, 5e-4)
        n = 64000
        normal = sample_scope_sizes(p, n, rng(), method="normal")
        binom = rng().binomial(n, p)
        assert abs(normal.mean() - binom.mean()) < 0.3
        assert abs(normal.std() - binom.std()) < 0.5

    def test_deterministic_method(self):
        p = np.array([0.25, 0.1])
        sizes = sample_scope_sizes(p, 100, rng(), method="deterministic")
        assert sizes.tolist() == [25, 10]
        # No randomness: repeated calls identical.
        again = sample_scope_sizes(p, 100, rng(), method="deterministic")
        assert sizes.tolist() == again.tolist()

    def test_never_negative(self):
        # Tiny np makes raw normal draws frequently negative; clipping must
        # keep all sizes at >= 0.
        p = np.full(50000, 1e-9)
        sizes = sample_scope_sizes(p, 1000, rng())
        assert sizes.min() >= 0

    def test_max_size_clip(self):
        p = np.array([0.9])
        sizes = sample_scope_sizes(p, 1000, rng(), max_size=100)
        assert sizes[0] == 100

    def test_rejects_bad_probabilities(self):
        with pytest.raises(ValueError):
            sample_scope_sizes(np.array([1.5]), 10, rng())
        with pytest.raises(ValueError):
            sample_scope_sizes(np.array([-0.1]), 10, rng())

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            sample_scope_sizes(np.array([0.1]), 10, rng(), method="exact")

    def test_all_methods_listed(self):
        for method in SCOPE_SIZE_METHODS:
            sample_scope_sizes(np.array([0.01]), 100, rng(), method=method)

    def test_total_degree_near_num_edges(self):
        """Sum of all scope sizes concentrates around |E| (the realized
        edge count of the whole graph)."""
        levels, n_edges = 12, 4096 * 16
        us = np.arange(1 << levels, dtype=np.uint64)
        p = row_probabilities(GRAPH500, us, levels)
        sizes = sample_scope_sizes(p, n_edges, rng(),
                                   max_size=1 << levels)
        assert abs(sizes.sum() - n_edges) / n_edges < 0.02

    def test_hub_is_vertex_zero(self):
        levels = 10
        us = np.arange(1 << levels, dtype=np.uint64)
        p = row_probabilities(GRAPH500, us, levels)
        sizes = sample_scope_sizes(p, 16 << levels, rng(),
                                   max_size=1 << levels)
        assert sizes.argmax() == 0


class TestSplitScopeSizes:
    def test_sizes_add_up_to_the_node_count(self):
        zero = binary_split([0.57, 0.6, 0.7, 0.45])
        for count in (0, 1, 17, 10**6):
            sizes = split_scope_sizes(count, zero, rng())
            assert sizes.size == 16
            assert sizes.min() >= 0
            assert int(sizes.sum()) == count

    def test_marginals_are_theorem1_binomials(self):
        """Each leaf's size is Binomial(count, P(leaf)), P the product of
        its per-level branch probabilities (Lemma 1)."""
        zero = binary_split([0.76, 0.76, 0.76])
        count, trials = 200, 4000
        gen = rng()
        sizes = np.array([split_scope_sizes(count, zero, gen)
                          for _ in range(trials)])
        ones = np.array([bin(v).count("1") for v in range(8)])
        p = 0.76 ** (3 - ones) * 0.24 ** ones
        sem = np.sqrt(count * p * (1 - p) / trials)
        assert np.all(np.abs(sizes.mean(axis=0) - count * p) < 5 * sem)
        np.testing.assert_allclose(sizes.var(axis=0),
                                   count * p * (1 - p), rtol=0.1)

    def test_one_binomial_a_node_at_radix_two(self):
        """At n = 2 a node's split is one ``Binomial(c, p_0)``, drawn
        level by level over the level's nodes in order."""
        zero = [0.57, 0.6]
        sizes = split_scope_sizes(1000, binary_split(zero), rng())
        by_hand = rng()
        top = by_hand.binomial(np.array([1000]), zero[0])
        level = np.array([top[0], 1000 - top[0]])
        left = by_hand.binomial(level, zero[1])
        np.testing.assert_array_equal(
            sizes, np.column_stack([left, level - left]).ravel())

    def test_radix_three_marginals_are_theorem1_binomials(self):
        """With ``n`` children a node, a leaf's size is Binomial(count,
        product of its digits' split probabilities)."""
        split = np.array([[0.5, 0.3, 0.2], [0.6, 0.1, 0.3]])
        count, trials = 300, 4000
        gen = rng()
        sizes = np.array([split_scope_sizes(count, split, gen)
                          for _ in range(trials)])
        assert sizes.shape == (trials, 9)
        assert (sizes.sum(axis=1) == count).all()
        p = np.outer(split[0], split[1]).ravel()
        sem = np.sqrt(count * p * (1 - p) / trials)
        assert np.all(np.abs(sizes.mean(axis=0) - count * p) < 5 * sem)
        np.testing.assert_allclose(sizes.var(axis=0),
                                   count * p * (1 - p), rtol=0.1)
