"""Tests for ``symmetrize``, the undirected view that
``structure.effective_diameter`` walks."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import symmetrize


class TestSymmetrize:
    def test_adds_reverse_edges(self):
        edges = np.array([[0, 1], [2, 3]])
        out = symmetrize(edges, 4)
        pairs = set(map(tuple, out.tolist()))
        assert pairs == {(0, 1), (1, 0), (2, 3), (3, 2)}

    def test_idempotent(self):
        edges = np.array([[0, 1], [1, 0], [2, 2]])
        once = symmetrize(edges, 4)
        twice = symmetrize(once, 4)
        np.testing.assert_array_equal(once, twice)

    def test_empty(self):
        out = symmetrize(np.empty((0, 2), dtype=np.int64), 4)
        assert out.shape[0] == 0

    def test_no_duplicates(self):
        edges = np.array([[0, 1], [1, 0]])
        out = symmetrize(edges, 4)
        assert out.shape[0] == 2


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 15)),
                max_size=60))
def test_symmetrize_property(pairs):
    """Symmetrized graph contains every edge's reverse, exactly once."""
    edges = (np.array(pairs, dtype=np.int64) if pairs
             else np.empty((0, 2), dtype=np.int64))
    out = symmetrize(edges, 16)
    out_pairs = set(map(tuple, out.tolist()))
    assert len(out_pairs) == out.shape[0]          # no duplicates
    for u, v in out_pairs:
        assert (v, u) in out_pairs                 # closed under reverse
    for u, v in pairs:
        assert (u, v) in out_pairs                 # original preserved
