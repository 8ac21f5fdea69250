"""Property-based tests for the AVS generator under n x n seeds
(general SKG)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.generator import RecursiveVectorGenerator
from repro.core.seed import SeedMatrix


@st.composite
def nxn_seeds(draw):
    order = draw(st.integers(min_value=2, max_value=4))
    weights = np.array([draw(st.floats(min_value=0.05, max_value=1.0))
                        for _ in range(order * order)])
    return SeedMatrix((weights / weights.sum()).reshape(order, order))


@settings(max_examples=15, deadline=None)
@given(nxn_seeds(), st.integers(min_value=2, max_value=5),
       st.integers(min_value=0, max_value=2**31))
def test_nary_wellformed_for_any_seed(seed_matrix, depth, rng_seed):
    """Any valid n x n seed yields in-range, duplicate-free edges whose
    realized count equals the drawn degree sequence."""
    n = seed_matrix.order ** depth
    g = RecursiveVectorGenerator(depth, seed_matrix=seed_matrix,
                                 num_edges=min(4 * n, 5000), seed=rng_seed)
    edges = g.edges()
    if edges.shape[0]:
        assert edges.min() >= 0
        assert edges.max() < n
        packed = edges[:, 0] * np.int64(n) + edges[:, 1]
        assert np.unique(packed).size == edges.shape[0]
    assert edges.shape[0] == int(g.degrees().sum())


@settings(max_examples=10, deadline=None)
@given(nxn_seeds(), st.integers(min_value=2, max_value=4))
def test_nary_row_probabilities_normalized(seed_matrix, depth):
    g = RecursiveVectorGenerator(depth, seed_matrix=seed_matrix,
                                 num_edges=10)
    total = g.process.row_probabilities(
        np.arange(seed_matrix.order ** depth)).sum()
    assert abs(float(total) - 1.0) < 1e-9


@settings(max_examples=10, deadline=None)
@given(nxn_seeds(), st.integers(min_value=2, max_value=4),
       st.integers(min_value=0, max_value=2**31))
def test_nary_deterministic(seed_matrix, depth, rng_seed):
    n = seed_matrix.order ** depth
    kwargs = dict(seed_matrix=seed_matrix, num_edges=min(2 * n, 2000),
                  seed=rng_seed)
    a = RecursiveVectorGenerator(depth, **kwargs).edges()
    b = RecursiveVectorGenerator(depth, **kwargs).edges()
    np.testing.assert_array_equal(a, b)
