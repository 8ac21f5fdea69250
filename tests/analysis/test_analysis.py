"""Tests for the analysis package (degree, fitting, stats, compare)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RecursiveVectorGenerator
from repro.analysis import (GraphStats, ccdf, chi2_two_sample_statistic,
                            degree_histogram, fit_gaussian,
                            fit_kronecker_class_slope, fit_zipf_slope,
                            graph_stats, histograms_similar, in_degrees,
                            ks_two_sample, log_binned_histogram,
                            oscillation_score, out_degrees)


class TestDegree:
    def test_out_in_degrees(self):
        edges = np.array([[0, 1], [0, 2], [1, 2]])
        assert out_degrees(edges, 4).tolist() == [2, 1, 0, 0]
        assert in_degrees(edges, 4).tolist() == [0, 1, 2, 0]

    def test_histogram_basic(self):
        hist = degree_histogram(np.array([0, 1, 1, 3, 3, 3]))
        assert hist.degrees.tolist() == [1, 3]
        assert hist.counts.tolist() == [2, 3]
        assert hist.num_edges == 1 * 2 + 3 * 3

    def test_histogram_keep_zero(self):
        hist = degree_histogram(np.array([0, 0, 2]), drop_zero=False)
        assert hist.degrees.tolist() == [0, 2]
        assert hist.num_vertices == 3

    def test_histogram_empty(self):
        hist = degree_histogram(np.array([], dtype=np.int64))
        assert hist.degrees.size == 0

    def test_loglog(self):
        hist = degree_histogram(np.array([1, 2, 2, 4, 4, 4, 4]))
        x, y = hist.loglog()
        assert x.tolist() == [0.0, 1.0, 2.0]
        assert y.tolist() == [0.0, 1.0, 2.0]

    def test_ccdf_monotone(self):
        degs, tail = ccdf(np.array([1, 1, 2, 5, 9]))
        assert tail[0] == 1.0
        assert np.all(np.diff(tail) <= 0)

    def test_log_binned(self):
        seq = np.concatenate([np.ones(100), np.full(10, 100)])
        centers, density = log_binned_histogram(seq)
        assert centers.size > 0
        assert density[0] > density[-1]


class TestFitting:
    def test_exact_power_law_slope(self):
        """A synthetic exact power law recovers its slope."""
        ranks = np.arange(1, 2049)
        freqs = 1e6 * ranks ** -1.5
        slope = fit_zipf_slope(freqs)  # already sorted descending
        assert abs(slope + 1.5) < 0.05

    def test_fit_requires_data(self):
        with pytest.raises(ValueError):
            fit_zipf_slope(np.array([1.0, 2.0]))

    def test_class_slope_exact(self):
        """Degrees exactly equal to the Lemma 6 class means recover the
        slope exactly."""
        levels = 12
        us = np.arange(1 << levels, dtype=np.uint64)
        ones = np.bitwise_count(us).astype(np.int64)
        degrees = 1e5 * (0.24 / 0.76) ** ones
        slope = fit_kronecker_class_slope(degrees)
        assert abs(slope - math.log2(0.24 / 0.76)) < 1e-6

    def test_class_slope_on_generated_graph(self):
        g = RecursiveVectorGenerator(13, 16, seed=5)
        deg = out_degrees(g.edges(), g.num_vertices)
        assert abs(fit_kronecker_class_slope(deg)
                   - g.seed_matrix.out_zipf_slope()) < 0.25

    def test_gaussian_fit(self):
        rng = np.random.default_rng(0)
        fit = fit_gaussian(rng.normal(16, 4, size=20000))
        assert fit.looks_gaussian
        assert abs(fit.mean - 16) < 0.2
        assert abs(fit.std - 4) < 0.2

    def test_gaussian_rejects_power_law(self):
        rng = np.random.default_rng(1)
        heavy = (1.0 / rng.random(20000)) ** 1.5
        assert not fit_gaussian(heavy).looks_gaussian

    def test_gaussian_fit_empty(self):
        with pytest.raises(ValueError):
            fit_gaussian(np.array([]))

    def test_gaussian_fit_constant(self):
        fit = fit_gaussian(np.full(10, 3.0))
        assert fit.std == 0.0

    def test_oscillation_drops_with_noise(self):
        """The Figure 9 effect, quantified."""
        plain = RecursiveVectorGenerator(15, 16, seed=6).edges()
        noisy = RecursiveVectorGenerator(15, 16, seed=6, noise=0.1).edges()
        s_plain = oscillation_score(out_degrees(plain, 1 << 15))
        s_noisy = oscillation_score(out_degrees(noisy, 1 << 15))
        assert s_noisy < s_plain

    def test_oscillation_short_sequence(self):
        assert oscillation_score(np.array([1, 2, 3])) == 0.0


class TestStats:
    def test_basic(self):
        edges = np.array([[0, 1], [1, 0], [1, 1]])
        s = graph_stats(edges, 3)
        assert s.num_edges == 3
        assert s.is_simple
        assert s.self_loops == 1
        assert s.max_out_degree == 2
        assert s.zero_out_degree_vertices == 1
        assert math.isclose(s.density, 3 / 9)

    def test_duplicates_detected(self):
        edges = np.array([[0, 1], [0, 1]])
        assert not graph_stats(edges, 2).is_simple

    def test_empty(self):
        s = graph_stats(np.empty((0, 2), dtype=np.int64), 5)
        assert s.num_edges == 0 and s.is_simple

    def test_str(self):
        s = graph_stats(np.array([[0, 1]]), 2)
        assert "|V|=2" in str(s)


class TestCompare:
    def test_ks_same_distribution(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=3000)
        b = rng.normal(size=3000)
        result = ks_two_sample(a, b)
        assert result.pvalue > 0.001

    def test_ks_different_distributions(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0, 1, size=3000)
        b = rng.normal(2, 1, size=3000)
        assert ks_two_sample(a, b).pvalue < 1e-6

    def test_ks_against_scipy(self):
        from scipy import stats as sps
        rng = np.random.default_rng(4)
        a = rng.exponential(size=500)
        b = rng.exponential(1.3, size=700)
        ours = ks_two_sample(a, b)
        theirs = sps.ks_2samp(a, b)
        assert abs(ours.statistic - theirs.statistic) < 1e-12
        assert abs(ours.pvalue - theirs.pvalue) < 0.02

    def test_ks_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample(np.array([]), np.array([1.0]))

    def test_chi2_identical(self):
        counts = np.array([100, 200, 300])
        stat, dof = chi2_two_sample_statistic(counts, counts)
        assert stat == 0.0 and dof == 2

    def test_chi2_shape_mismatch(self):
        with pytest.raises(ValueError):
            chi2_two_sample_statistic(np.array([1]), np.array([1, 2]))

    def test_chi2_drops_sparse_cells(self):
        a = np.array([1000, 1])
        b = np.array([1000, 2])
        stat, dof = chi2_two_sample_statistic(a, b)
        assert dof == 0  # only one usable cell -> no dof

    def test_histograms_similar_same_process(self):
        rng = np.random.default_rng(5)
        a = np.bincount(rng.poisson(10, 20000), minlength=40)
        b = np.bincount(rng.poisson(10, 20000), minlength=40)
        assert histograms_similar(a, b)

    def test_histograms_dissimilar(self):
        rng = np.random.default_rng(6)
        a = np.bincount(rng.poisson(8, 20000), minlength=40)
        b = np.bincount(rng.poisson(14, 20000), minlength=40)
        assert not histograms_similar(a, b)


@settings(max_examples=25)
@given(st.lists(st.integers(0, 50), min_size=1, max_size=500))
def test_histogram_conserves_counts(seq):
    hist = degree_histogram(np.array(seq), drop_zero=False)
    assert hist.num_vertices == len(seq)
    assert hist.num_edges == sum(seq)
