"""Unit tests for repro.core.recvec (Lemmas 2-4, Theorem 2, Algorithm 5)."""

import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.probability import brute_force_cdf, edge_probability
from repro.core.recvec import (build_recvec, build_recvec_decimal,
                               build_recvec_naive, build_recvecs,
                               determine_edge, determine_edge_cdf,
                               determine_edges, scale_symmetry_ratio, sigma_from_recvec)
from repro.core.seed import GRAPH500, SeedMatrix
from repro.errors import ConfigurationError

FIG3 = SeedMatrix.rmat(0.5, 0.2, 0.2, 0.1)


class TestBuildRecVec:
    def test_paper_example(self):
        # Section 4.2: RecVec for u=2, |V|=8 is [0.05, 0.07, 0.105, 0.147].
        rv = build_recvec(FIG3, 2, 3)
        assert np.allclose(rv, [0.05, 0.07, 0.105, 0.147])

    def test_matches_naive_definition(self):
        for u in range(8):
            fast = build_recvec(FIG3, u, 3)
            naive = build_recvec_naive(FIG3, u, 3)
            assert np.allclose(fast, naive)

    def test_monotone_nondecreasing(self):
        for u in (0, 5, 13, 255):
            rv = build_recvec(GRAPH500, u, 8)
            assert np.all(np.diff(rv) >= 0)

    def test_length(self):
        assert build_recvec(GRAPH500, 0, 12).size == 13

    def test_last_entry_is_row_probability(self):
        from repro.core.probability import row_probability
        rv = build_recvec(GRAPH500, 7, 6)
        assert math.isclose(float(rv[-1]), row_probability(GRAPH500, 7, 6))

    def test_batched_matches_scalar(self):
        us = np.arange(16, dtype=np.uint64)
        batch = build_recvecs(GRAPH500, us, 4)
        assert batch.shape == (16, 5)
        for u in range(16):
            assert np.allclose(batch[u], build_recvec(GRAPH500, u, 4))


class TestDecimalRecVec:
    def test_matches_float(self):
        dec = build_recvec_decimal(FIG3, 2, 3)
        flt = build_recvec(FIG3, 2, 3)
        for d, f in zip(dec, flt):
            assert math.isclose(float(d), float(f), rel_tol=1e-12)

    def test_returns_decimals(self):
        dec = build_recvec_decimal(GRAPH500, 5, 8)
        assert all(isinstance(d, Decimal) for d in dec)

    def test_high_precision_retains_digits(self):
        # At scale 40 float64 RecVec[0] underflows in relative precision
        # long before Decimal(60) does.
        import decimal as _decimal
        dec = build_recvec_decimal(GRAPH500, 0, 40, precision=60)
        assert dec[0] > 0
        # alpha/(alpha+beta) = 0.75 exactly; RecVec[0] = 0.75^40 * P(0->).
        with _decimal.localcontext(prec=60):
            expected = Decimal("0.75") ** 40 * (Decimal("0.76") ** 40)
            assert abs(dec[0] - expected) / expected < Decimal("1e-50")

    def test_determine_edge_accepts_decimal(self):
        # 0.12 is interior to cell v=4 (F(4)=0.105, F(5)=0.125); the paper's
        # 0.133 sits exactly on the F(6) knot and is representation-
        # sensitive, so an interior point is used here.
        dec = build_recvec_decimal(FIG3, 2, 3)
        assert determine_edge(Decimal("0.12"), dec) == 4

    def test_decimal_matches_float_at_interior_points(self):
        dec = build_recvec_decimal(FIG3, 2, 3)
        flt = build_recvec(FIG3, 2, 3)
        for x in ("0.01", "0.06", "0.08", "0.11", "0.14"):
            assert determine_edge(Decimal(x), dec) == determine_edge(
                float(x), flt)


class TestSymmetries:
    def test_scale_symmetry_examples(self):
        # Paper: for u=2, k=2 -> sigma = K[0,1]/K[0,0] = 0.2/0.5.
        assert math.isclose(scale_symmetry_ratio(FIG3, 2, 2), 0.4)
        # and k=1 -> sigma = K[1,1]/K[1,0] = 0.1/0.2.
        assert math.isclose(scale_symmetry_ratio(FIG3, 2, 1), 0.5)

    def test_scale_symmetry_in_pmf(self):
        """Lemma 3: P(u -> R+r) / P(u -> r) is constant over r < R."""
        for k in range(3):
            big_r = 1 << k
            expected = scale_symmetry_ratio(FIG3, 2, k)
            for r in range(big_r):
                ratio = (edge_probability(FIG3, 2, big_r + r, 3)
                         / edge_probability(FIG3, 2, r, 3))
                assert math.isclose(ratio, expected, rel_tol=1e-12)

    def test_translational_symmetry(self):
        """Lemma 4: F(R+r) = F(R) + sigma * F(r)."""
        cdf = brute_force_cdf(FIG3, 2, 3)
        for k in range(3):
            big_r = 1 << k
            sigma = scale_symmetry_ratio(FIG3, 2, k)
            for r in range(big_r + 1):
                assert math.isclose(float(cdf[big_r + r]),
                                    float(cdf[big_r] + sigma * cdf[r]),
                                    rel_tol=1e-12)

    def test_paper_lemma4_number(self):
        # F_2(6) = F_2(4) + sigma * F_2(2) = 0.105 + 0.4*0.07 = 0.133.
        cdf = brute_force_cdf(FIG3, 2, 3)
        assert math.isclose(float(cdf[6]), 0.105 + 0.4 * 0.07)

    def test_sigma_from_recvec_matches_seed_ratio(self):
        rv = build_recvec(FIG3, 2, 3)
        for k in range(3):
            assert math.isclose(sigma_from_recvec(rv, k),
                                scale_symmetry_ratio(FIG3, 2, k),
                                rel_tol=1e-12)


class TestDetermineEdge:
    def test_paper_worked_example(self):
        """Figure 5: u=2, x=0.133 resolves to destination 6."""
        rv = build_recvec(FIG3, 2, 3)
        assert determine_edge(0.133, rv) == 6

    def test_zero_region(self):
        rv = build_recvec(FIG3, 2, 3)
        assert determine_edge(0.01, rv) == 0
        assert determine_edge(0.0499, rv) == 0

    def test_inverts_cdf_exactly(self):
        """For every destination v, any x in [F(v), F(v+1)) maps to v."""
        cdf = brute_force_cdf(FIG3, 2, 3)
        rv = build_recvec(FIG3, 2, 3)
        for v in range(8):
            lo, hi = float(cdf[v]), float(cdf[v + 1])
            mid = (lo + hi) / 2
            assert determine_edge(mid, rv) == v

    def test_boundary_at_top(self):
        rv = build_recvec(FIG3, 2, 3)
        # x == RecVec[top] is out of the half-open support; must still
        # terminate and return a valid vertex.
        v = determine_edge(float(rv[-1]), rv)
        assert 0 <= v < 8

    def test_destination_in_range(self):
        rv = build_recvec(GRAPH500, 999, 10)
        rng = np.random.default_rng(1)
        xs = rng.uniform(0, rv[-1], size=2000)
        for x in xs:
            assert 0 <= determine_edge(x, rv) < 1024


class TestDetermineEdgeCdf:
    def test_binary_matches_recvec(self):
        cdf = brute_force_cdf(FIG3, 2, 3)
        rv = build_recvec(FIG3, 2, 3)
        rng = np.random.default_rng(2)
        for x in rng.uniform(0, 0.147, size=300):
            assert determine_edge_cdf(x, cdf) == determine_edge(x, rv)

    def test_linear_matches_binary(self):
        cdf = brute_force_cdf(GRAPH500, 5, 5)
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, cdf[-1], size=200):
            assert (determine_edge_cdf(x, cdf, "linear")
                    == determine_edge_cdf(x, cdf, "binary"))

    def test_unknown_strategy(self):
        cdf = brute_force_cdf(FIG3, 0, 3)
        with pytest.raises(ValueError):
            determine_edge_cdf(0.1, cdf, "ternary")


class TestVectorizedDetermine:
    def test_matches_scalar_single_recvec(self):
        rv = build_recvec(GRAPH500, 37, 9)
        rng = np.random.default_rng(4)
        xs = rng.uniform(0, rv[-1], size=1000)
        vec = determine_edges(xs, rv)
        scalar = [determine_edge(float(x), rv) for x in xs]
        assert vec.tolist() == scalar

    def test_empty_input(self):
        rv = build_recvec(GRAPH500, 0, 4)
        assert determine_edges(np.array([]), rv).size == 0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entries, levels, sources, knots", [
    pytest.param([[0.0, 0.6], [0.3, 0.1]], 3, range(8), False,
                 id="entries0"),
    pytest.param([[0.6, 0.3], [0.0, 0.1]], 3, range(8), False,
                 id="entries1"),
    # b == 0: a destination bit can be 1 only where the source's is, so
    # the intervals of the source's 0 bits have zero width.  Just below
    # a knot, the clamp used to land on one of them and divide by its
    # sigma of 0.
    pytest.param([[0.57, 0.0], [0.19, 0.24]], 8, [0b11111000], True,
                 id="entries2"),
])
def test_exact_zero_seed_inverts_cdf_or_raises(entries, levels, sources,
                                               knots):
    """A zero seed entry zeroes RecVec entries (column 0) or RecVec
    intervals (column 1): Algorithm 5 must invert the CDF or raise a
    ConfigurationError, never return a wrong vertex."""
    seed = SeedMatrix(entries)
    for u in sources:
        rv = build_recvec(seed, u, levels)
        cdf = brute_force_cdf(seed, u, levels)
        xs = np.linspace(0.0, rv[-1], 200, endpoint=False)
        if knots:
            xs = np.concatenate([xs, np.nextafter(rv, 0.0)])
        want = [determine_edge_cdf(x, cdf) for x in xs]
        for search in (determine_edge,
                       lambda x, rv: determine_edges(np.array([x]), rv)[0]):
            for x, v in zip(xs, want):
                try:
                    assert search(x, rv) == v
                except ConfigurationError as err:
                    assert "ScopeSampler" in str(err)
        try:
            assert determine_edges(xs, rv).tolist() == want
        except ConfigurationError as err:
            assert "ScopeSampler" in str(err)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=2**31 - 1))
def test_determine_edge_inverts_cdf_property(levels, u, raw):
    """Property: Algorithm 5 equals naive CDF inversion for random inputs."""
    u &= (1 << levels) - 1
    cdf = brute_force_cdf(GRAPH500, u, levels)
    rv = build_recvec(GRAPH500, u, levels)
    x = (raw / 2**31) * float(cdf[-1])
    assert determine_edge(x, rv) == determine_edge_cdf(x, cdf)
