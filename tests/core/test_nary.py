"""The AVS generator under n x n seeds: vertex ids are base-n digit
strings, ``|V| = n^scale``."""

import numpy as np
import pytest
from scipy import stats as sps

from repro.analysis.oracle import check_scope_law
from repro.core.generator import RecursiveVectorGenerator
from repro.core.reference import ReferenceGenerator
from repro.core.seed import SeedMatrix
from repro.errors import ConfigurationError

SEED3 = SeedMatrix(np.array([[0.30, 0.12, 0.08],
                             [0.12, 0.10, 0.05],
                             [0.08, 0.05, 0.10]]))
SEED4 = SeedMatrix(np.arange(1.0, 17.0).reshape(4, 4) / 136.0)


def nary(depth, **kwargs):
    return RecursiveVectorGenerator(depth, seed_matrix=SEED3, **kwargs)


class TestConstruction:
    def test_vertex_count(self):
        g = nary(5, num_edges=1000)
        assert g.num_vertices == 3 ** 5

    def test_default_edges(self):
        g = nary(4)
        assert g.num_edges == 16 * 81

    def test_rejects_bad_depth(self):
        with pytest.raises(ConfigurationError):
            nary(0)

    def test_rejects_bad_edges(self):
        with pytest.raises(ConfigurationError):
            nary(4, num_edges=0)


class TestDigits:
    def test_row_probabilities_sum_to_one(self):
        g = nary(4, num_edges=10)
        probs = g.process.row_probabilities(np.arange(81))
        assert abs(float(probs.sum()) - 1.0) < 1e-9

    def test_row_probability_matches_kronecker(self):
        g = nary(3, num_edges=10)
        full = SEED3.kronecker_power(3)
        probs = g.process.row_probabilities(np.arange(27))
        np.testing.assert_allclose(probs, full.sum(axis=1), rtol=1e-10)


class TestGeneration:
    def test_edge_count_and_range(self):
        g = nary(7, num_edges=30000, seed=1)
        e = g.edges()
        n = 3 ** 7
        assert abs(e.shape[0] - 30000) / 30000 < 0.05
        assert e.min() >= 0 and e.max() < n

    def test_no_duplicates(self):
        g = nary(6, num_edges=8000, seed=2)
        e = g.edges()
        packed = e[:, 0] * (3 ** 6) + e[:, 1]
        assert np.unique(packed).size == e.shape[0]

    def test_deterministic(self):
        a = nary(6, num_edges=5000, seed=3).edges()
        b = nary(6, num_edges=5000, seed=3).edges()
        np.testing.assert_array_equal(a, b)

    def test_degrees_match_edges(self):
        g = nary(6, num_edges=8000, seed=4)
        degrees = g.degrees()
        e = g.edges()
        realized = np.bincount(e[:, 0], minlength=3 ** 6)
        np.testing.assert_array_equal(degrees, realized)

    def test_dedup_off_keeps_duplicates(self):
        g = nary(3, num_edges=3000, seed=5, dedup=False)
        e = g.edges()
        packed = e[:, 0] * 27 + e[:, 1]
        assert np.unique(packed).size < e.shape[0]

    def test_cell_distribution_matches_kronecker(self):
        """Generated (u, v) frequencies follow K^{(D)} (chi-square)."""
        g = nary(3, num_edges=60000, seed=6, dedup=False)
        e = g.edges()
        counts = np.bincount(e[:, 0] * 27 + e[:, 1],
                             minlength=27 * 27).astype(float)
        expected = SEED3.kronecker_power(3).ravel() * e.shape[0]
        keep = expected > 5
        chi2 = (((counts[keep] - expected[keep]) ** 2)
                / expected[keep]).sum()
        dof = int(keep.sum()) - 1
        assert sps.chi2.sf(chi2, dof) > 1e-4


class TestSaturation:
    def test_saturated_hub_handled(self):
        """High edge factor at small depth saturates hub scopes; the
        exact fallback must keep output duplicate-free."""
        g = nary(3, num_edges=500, seed=9)
        e = g.edges()
        packed = e[:, 0] * 27 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]
        deg = np.bincount(e[:, 0], minlength=27)
        assert deg.max() <= 27


class TestOneGenerator:
    """What the binary generator gives every radix: an exact |E|, the
    scope-size law, per-block totals, and the 2x2-only refusals."""

    @pytest.mark.parametrize("seed_matrix, depth", [(SEED3, 7), (SEED4, 5)],
                             ids=["3x3", "4x4"])
    def test_degrees_add_up_to_num_edges_exactly(self, seed_matrix, depth):
        g = RecursiveVectorGenerator(depth, seed_matrix=seed_matrix,
                                     seed=11, block_size=100)
        degrees = g.degrees()
        assert degrees.size == seed_matrix.order ** depth
        assert int(degrees.sum()) == g.num_edges == 16 * degrees.size
        edges = g.edges()
        assert edges.shape[0] == g.num_edges
        np.testing.assert_array_equal(
            np.bincount(edges[:, 0], minlength=degrees.size), degrees)
        assert [g.block_total(b) for b in range(-(-degrees.size // 100))] \
            == [int(degrees[b:b + 100].sum())
                for b in range(0, degrees.size, 100)]

    def test_the_scope_law_holds(self):
        report = check_scope_law(nary(8, seed=5))
        assert report.passed, str(report)

    def test_the_split_tree_is_keyed_by_node(self):
        """A block's scope sizes do not depend on the blocks drawn
        before it: every block derives its root path on its own."""
        sweep = nary(6, num_edges=9000, seed=3, block_size=50)
        alone = nary(6, num_edges=9000, seed=3, block_size=50)
        sizes = [sweep.block_degrees(b) for b in range(15)]
        np.testing.assert_array_equal(alone.block_degrees(9), sizes[9])

    def test_noise_is_refused(self):
        with pytest.raises(ConfigurationError, match="2x2"):
            nary(4, noise=0.1)

    def test_the_reference_engine_is_refused(self):
        with pytest.raises(ConfigurationError, match="binary RecVec"):
            ReferenceGenerator(4, seed_matrix=SEED3)
