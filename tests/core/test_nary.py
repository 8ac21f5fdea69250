"""Tests for the base-n (n x n seed) AVS generator."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.core.nary import NAryRecursiveVectorGenerator
from repro.core.generator import RecursiveVectorGenerator
from repro.core.seed import GRAPH500, SeedMatrix
from repro.errors import ConfigurationError

SEED3 = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                             [0.12, 0.10, 0.05],
                             [0.08, 0.05, 0.10]]))


class TestConstruction:
    def test_vertex_count(self):
        g = NAryRecursiveVectorGenerator(SEED3, 5, num_edges=1000)
        assert g.num_vertices == 3 ** 5

    def test_default_edges(self):
        g = NAryRecursiveVectorGenerator(SEED3, 4)
        assert g.num_edges == 16 * 81

    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            NAryRecursiveVectorGenerator(SEED3, 0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            NAryRecursiveVectorGenerator(SEED3, 4, num_edges=0)


class TestDigits:
    def test_row_probabilities_sum_to_one(self):
        g = NAryRecursiveVectorGenerator(SEED3, 4, num_edges=10)
        probs = g.row_probabilities(np.arange(81))
        assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_row_probability_matches_kronecker(self):
        g = NAryRecursiveVectorGenerator(SEED3, 3, num_edges=10)
        full = SEED3.kronecker_power(3)
        probs = g.row_probabilities(np.arange(27))
        np.testing.assert_allclose(probs, full.sum(axis=1), rtol=1e-10)


class TestGeneration:
    def test_edge_count_and_range(self):
        g = NAryRecursiveVectorGenerator(SEED3, 7, num_edges=30000,
                                         seed=1)
        e = g.edges()
        n = 3 ** 7
        assert abs(e.shape[0] - 30000) / 30000 < 0.05
        assert e.min() >= 0 and e.max() < n

    def test_no_duplicates(self):
        g = NAryRecursiveVectorGenerator(SEED3, 6, num_edges=8000, seed=2)
        e = g.edges()
        packed = e[:, 0] * (3 ** 6) + e[:, 1]
        assert np.unique(packed).size == e.shape[0]

    def test_deterministic(self):
        a = NAryRecursiveVectorGenerator(SEED3, 6, num_edges=5000,
                                         seed=3).edges()
        b = NAryRecursiveVectorGenerator(SEED3, 6, num_edges=5000,
                                         seed=3).edges()
        np.testing.assert_array_equal(a, b)

    def test_degrees_match_edges(self):
        g = NAryRecursiveVectorGenerator(SEED3, 6, num_edges=8000, seed=4)
        degrees = g.degrees()
        e = g.edges()
        realized = np.bincount(e[:, 0], minlength=3 ** 6)
        np.testing.assert_array_equal(degrees, realized)

    def test_dedup_off_keeps_duplicates(self):
        g = NAryRecursiveVectorGenerator(SEED3, 3, num_edges=3000,
                                         seed=5, dedup=False)
        e = g.edges()
        packed = e[:, 0] * 27 + e[:, 1]
        assert np.unique(packed).size < e.shape[0]

    def test_cell_distribution_matches_kronecker(self):
        """Generated (u, v) frequencies follow K^{(D)} (chi-square)."""
        g = NAryRecursiveVectorGenerator(SEED3, 3, num_edges=60000,
                                         seed=6, dedup=False)
        e = g.edges()
        counts = np.bincount(e[:, 0] * 27 + e[:, 1],
                             minlength=27 * 27).astype(float)
        expected = SEED3.kronecker_power(3).ravel() * e.shape[0]
        keep = expected > 5
        chi2 = (((counts[keep] - expected[keep]) ** 2)
                / expected[keep]).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4


class TestBinaryEquivalence:
    def test_n2_matches_main_generator_distribution(self):
        """With a 2x2 seed, the n-ary generator is the same process as
        the main recursive vector generator (KS on degrees)."""
        nary = NAryRecursiveVectorGenerator(GRAPH500, 11,
                                            num_edges=16 * 2048,
                                            seed=7).edges()
        binary = RecursiveVectorGenerator(11, 16, seed=8).edges()
        d1 = np.bincount(nary[:, 0], minlength=2048)
        d2 = np.bincount(binary[:, 0], minlength=2048)
        assert sps.ks_2samp(d1, d2).pvalue > 1e-4


class TestSaturation:
    def test_saturated_hub_handled(self):
        """High edge factor at small depth saturates hub scopes; the
        exact fallback must keep output duplicate-free."""
        g = NAryRecursiveVectorGenerator(SEED3, 3, num_edges=500, seed=9)
        e = g.edges()
        packed = e[:, 0] * 27 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]
        deg = np.bincount(e[:, 0], minlength=27)
        assert deg.max() <= 27
