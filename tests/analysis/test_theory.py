"""Tests for the closed-form expected degree distribution."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from repro import GRAPH500, RecursiveVectorGenerator
from repro.analysis import (binomial_pmf, expected_degree_ccdf,
                            expected_degree_distribution, out_degrees)
from repro.core.seed import UNIFORM


class TestBinomialPmf:
    def test_matches_scipy(self):
        ks = np.arange(0, 30)
        ours = binomial_pmf(100, 0.13, ks)
        theirs = sps.binom.pmf(ks, 100, 0.13)
        np.testing.assert_allclose(ours, theirs, rtol=1e-10)

    def test_huge_n_tiny_p_stable(self):
        # The Theorem 1 regime: n = 1e9 trials, p = 1e-8.
        ks = np.arange(0, 60)
        pmf = binomial_pmf(10**9, 1e-8, ks)
        assert np.all(np.isfinite(pmf))
        assert abs(pmf.sum() - 1.0) < 1e-6
        # Poisson(10) limit.
        poisson = sps.poisson.pmf(ks, 10.0)
        np.testing.assert_allclose(pmf, poisson, rtol=1e-5)

    def test_edge_cases(self):
        assert binomial_pmf(5, 0.0, np.array([0]))[0] == 1.0
        assert binomial_pmf(5, 1.0, np.array([5]))[0] == 1.0
        assert binomial_pmf(5, 0.3, np.array([-1, 6])).sum() == 0.0

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            binomial_pmf(10, 1.5, np.array([1]))


class TestExpectedDistribution:
    def test_pmf_normalized(self):
        ks, pmf = expected_degree_distribution(GRAPH500, 12, 16 * 4096)
        assert abs(pmf.sum() - 1.0) < 1e-6

    def test_mean_is_edge_factor(self):
        ks, pmf = expected_degree_distribution(GRAPH500, 12, 16 * 4096)
        mean = float((ks * pmf).sum())
        assert abs(mean - 16.0) < 0.2

    def test_uniform_seed_is_single_binomial(self):
        n, e = 1 << 10, 8 << 10
        ks, pmf = expected_degree_distribution(UNIFORM, 10, e)
        direct = binomial_pmf(e, 1.0 / n, ks)
        np.testing.assert_allclose(pmf, direct, rtol=1e-10)

    def test_ccdf_monotone(self):
        ks, tail = expected_degree_ccdf(GRAPH500, 12, 16 * 4096)
        assert np.all(np.diff(tail) <= 1e-15)
        assert abs(tail[0] - 1.0) < 1e-6

    def test_theory_shows_oscillation(self):
        """The mixture of geometrically spaced binomials produces the
        non-monotonic log-PMF that Figure 9(a) displays."""
        ks, pmf = expected_degree_distribution(GRAPH500, 16, 16 << 16)
        mid = pmf[5:200]
        diffs = np.diff(np.log(mid[mid > 0]))
        # Log-PMF slope changes sign repeatedly in the body.
        assert (np.diff(np.sign(diffs)) != 0).sum() > 3


class TestTheoryVsGenerated:
    SCALE, EF = 13, 16
    N = 1 << SCALE

    def chi2(self, method: str, seed: int) -> tuple[float, float]:
        ks, pmf = expected_degree_distribution(GRAPH500, self.SCALE,
                                               self.EF * self.N)
        g = RecursiveVectorGenerator(self.SCALE, self.EF, seed=seed,
                                     degree_method=method)
        deg = out_degrees(g.edges(), self.N)
        hist = np.bincount(deg, minlength=ks.size)[:ks.size]
        expected = pmf * self.N
        keep = expected > 10
        stat = float((((hist[keep] - expected[keep]) ** 2)
                      / expected[keep]).sum())
        dof = int(keep.sum()) - 1
        return stat / dof, float(sps.chi2.sf(stat, dof))

    def test_exact_binomial_method_matches_theory(self):
        """End-to-end correctness: generated degrees under the default
        ``split`` sizes — Theorem 1's exact binomials, drawn jointly —
        match the closed-form mixture."""
        chi2_per_dof, p = self.chi2("split", seed=1)
        assert p > 1e-3, f"chi2/dof={chi2_per_dof:.2f}"

    def test_normal_approximation_error_is_measurable(self):
        """Theorem 1's Normal approximation distorts the low-degree body
        measurably (most rows have np < 1, outside the CLT regime) —
        quantifying the approximation the paper adopts."""
        chi2_per_dof, _ = self.chi2("normal", seed=1)
        assert chi2_per_dof > 1.3
        # ... but the distortion is small in absolute terms.
        assert chi2_per_dof < 5.0
