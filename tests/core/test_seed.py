"""Unit tests for repro.core.seed."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.seed import GRAPH500, UNIFORM, SeedMatrix
from repro.errors import SeedMatrixError


def positive_seed_entries():
    """Four positive weights; normalized to a valid seed in the test."""
    weight = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)
    return st.tuples(weight, weight, weight, weight)


def normalized(w):
    total = sum(w)
    return tuple(x / total for x in w)


class TestConstruction:
    def test_graph500_values(self):
        assert GRAPH500.as_tuple() == (0.57, 0.19, 0.19, 0.05)

    def test_uniform(self):
        assert UNIFORM.as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_bad_sum(self):
        with pytest.raises(SeedMatrixError):
            SeedMatrix.rmat(0.5, 0.5, 0.5, 0.5)

    def test_rejects_negative(self):
        with pytest.raises(SeedMatrixError):
            SeedMatrix.rmat(-0.1, 0.5, 0.5, 0.1)

    def test_rejects_non_square(self):
        with pytest.raises(SeedMatrixError):
            SeedMatrix(np.array([[0.5, 0.25, 0.25]]))

    def test_rejects_1x1(self):
        with pytest.raises(SeedMatrixError):
            SeedMatrix(np.array([[1.0]]))

    def test_nxn_accepted(self):
        k = SeedMatrix(np.full((3, 3), 1.0 / 9))
        assert k.order == 3
        assert not k.is_rmat

    def test_nxn_rejects_rmat_accessors(self):
        k = SeedMatrix(np.full((3, 3), 1.0 / 9))
        with pytest.raises(SeedMatrixError):
            _ = k.alpha

    def test_entries_read_only(self):
        with pytest.raises(ValueError):
            GRAPH500.entries[0, 0] = 0.9

    def test_near_one_sum_accepted_verbatim(self):
        # Entries within tolerance of 1.0 are stored as given (no
        # renormalization noise) — the paper's worked examples depend on it.
        k = SeedMatrix.rmat(0.3, 0.3, 0.2, 0.2 + 1e-12)
        assert float(k.entries[1, 1]) == 0.2 + 1e-12


class TestDerived:
    def test_row_sums(self):
        assert np.allclose(GRAPH500.row_sums(), [0.76, 0.24])

    def test_col_sums(self):
        assert np.allclose(GRAPH500.col_sums(), [0.76, 0.24])

    def test_kronecker_power_shape(self):
        k3 = GRAPH500.kronecker_power(3)
        assert k3.shape == (8, 8)
        assert math.isclose(float(k3.sum()), 1.0, abs_tol=1e-12)

    def test_kronecker_power_entry(self):
        # K^(2)[0,0] = alpha^2
        k2 = GRAPH500.kronecker_power(2)
        assert math.isclose(float(k2[0, 0]), 0.57**2)

    def test_kronecker_power_rejects_zero(self):
        with pytest.raises(ValueError):
            GRAPH500.kronecker_power(0)

    def test_out_zipf_slope_graph500(self):
        # log2(0.24) - log2(0.76) = -1.662... (paper Section 6.1)
        assert math.isclose(GRAPH500.out_zipf_slope(), -1.6630,
                            abs_tol=5e-3)

    def test_in_equals_out_for_symmetric_seed(self):
        assert math.isclose(GRAPH500.in_zipf_slope(),
                            GRAPH500.out_zipf_slope())

    def test_asymmetric_slopes_differ(self):
        k = SeedMatrix.rmat(0.5, 0.3, 0.1, 0.1)
        assert k.out_zipf_slope() != k.in_zipf_slope()

    def test_expected_ones_fraction(self):
        assert math.isclose(GRAPH500.expected_ones_fraction(), 0.24)
        assert math.isclose(UNIFORM.expected_ones_fraction(), 0.5)

    def test_lemma5_estimate_in_same_ballpark(self):
        # The printed formula, the exact marginal, and the paper's quoted
        # constant all say "recursions shrink ~4-5x" for Graph500.
        assert 0.15 < GRAPH500.lemma5_ones_fraction() < 0.35

    def test_transpose(self):
        k = SeedMatrix.rmat(0.5, 0.3, 0.1, 0.1)
        assert k.transpose().as_tuple() == (0.5, 0.1, 0.3, 0.1)

    def test_equality_and_hash(self):
        assert GRAPH500 == SeedMatrix.graph500()
        assert hash(GRAPH500) == hash(SeedMatrix.graph500())
        assert GRAPH500 != UNIFORM

    def test_str(self):
        assert "0.57" in str(GRAPH500)


class TestProperties:
    @given(positive_seed_entries())
    def test_normalized_always_valid(self, weights):
        a, b, c, d = normalized(weights)
        k = SeedMatrix.rmat(a, b, c, d)
        assert math.isclose(float(k.entries.sum()), 1.0, abs_tol=1e-12)

    @given(positive_seed_entries())
    def test_transpose_involution(self, weights):
        a, b, c, d = normalized(weights)
        k = SeedMatrix.rmat(a, b, c, d)
        assert k.transpose().transpose() == k

    @given(positive_seed_entries())
    def test_ones_fraction_in_unit_interval(self, weights):
        a, b, c, d = normalized(weights)
        k = SeedMatrix.rmat(a, b, c, d)
        assert 0.0 < k.expected_ones_fraction() < 1.0


class TestEqualityIsExact:
    """``==`` and ``hash`` agree: equal seeds hash alike, and a seed
    moved by 1e-12 is another seed (it may draw other bytes)."""

    def test_a_nudged_seed_is_another_seed(self):
        seed = SeedMatrix.rmat(0.57, 0.19, 0.19, 0.05)
        nudged = SeedMatrix(seed.entries + [[1e-12, -1e-12], [0.0, 0.0]])
        assert seed != nudged
        assert len({seed, nudged}) == 2

    def test_an_equal_seed_hashes_alike(self):
        seed = SeedMatrix.rmat(0.57, 0.19, 0.19, 0.05)
        copy = SeedMatrix(seed.entries.copy())
        assert copy == seed == GRAPH500
        assert hash(copy) == hash(seed) == hash(GRAPH500)
        assert len({seed, copy, GRAPH500}) == 1

    @given(positive_seed_entries(), positive_seed_entries())
    def test_equal_implies_equal_hash(self, left, right):
        a = SeedMatrix.rmat(*normalized(left))
        b = SeedMatrix.rmat(*normalized(right))
        for x, y in ((a, b), (a, SeedMatrix(a.entries.copy()))):
            assert (x == y) == (x.entries.tobytes() == y.entries.tobytes())
            if x == y:
                assert hash(x) == hash(y)
