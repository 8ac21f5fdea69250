"""Tests for seed fitting and GSCALER-style scaling (repro.fit)."""

import numpy as np
import pytest

from repro import GRAPH500, RecursiveVectorGenerator, SeedMatrix
from repro.analysis import fit_kronecker_class_slope, out_degrees
from repro.errors import ConfigurationError
from repro.fit import GraphScaler, edge_bit_moments, fit_seed_matrix


class TestEdgeBitMoments:
    def test_known_values(self):
        # Edges (0,1) and (3,3) over 2 levels:
        # src bits: 0+2 -> 2/4; dst bits: 1+2 -> 3/4; both: 0+2 -> 2/4.
        edges = np.array([[0, 1], [3, 3]])
        src, dst, both = edge_bit_moments(edges, 2)
        assert (src, dst, both) == (0.5, 0.75, 0.5)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            edge_bit_moments(np.empty((0, 2), dtype=np.int64), 4)


class TestFitSeedMatrix:
    def test_recovers_graph500(self):
        edges = RecursiveVectorGenerator(14, 16, seed=1).edges()
        fit = fit_seed_matrix(edges, 1 << 14)
        got = np.array(fit.seed_matrix.as_tuple())
        want = np.array(GRAPH500.as_tuple())
        assert np.abs(got - want).max() < 0.03

    def test_recovers_uniform(self):
        from repro.core.seed import UNIFORM
        edges = RecursiveVectorGenerator(12, 16, UNIFORM, seed=2).edges()
        fit = fit_seed_matrix(edges, 1 << 12)
        got = np.array(fit.seed_matrix.as_tuple())
        assert np.abs(got - 0.25).max() < 0.02

    def test_recovers_asymmetric_seed(self):
        seed = SeedMatrix.rmat(0.45, 0.3, 0.15, 0.1)
        edges = RecursiveVectorGenerator(13, 16, seed, seed=3).edges()
        fit = fit_seed_matrix(edges, 1 << 13)
        got = np.array(fit.seed_matrix.as_tuple())
        assert np.abs(got - np.array(seed.as_tuple())).max() < 0.03

    def test_edge_factor(self):
        edges = RecursiveVectorGenerator(10, 8, seed=4).edges()
        fit = fit_seed_matrix(edges, 1 << 10)
        assert abs(fit.edge_factor - 8.0) < 0.5

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            fit_seed_matrix(np.array([[0, 1]]), 1000)

    def test_fitted_entries_positive_and_normalized(self):
        edges = np.array([[0, 0]] * 10)   # degenerate all-alpha sample
        fit = fit_seed_matrix(edges, 16)
        entries = np.array(fit.seed_matrix.as_tuple())
        assert (entries > 0).all()
        assert abs(entries.sum() - 1.0) < 1e-9


class TestGraphScaler:
    @pytest.fixture(scope="class")
    def scaler(self):
        small = RecursiveVectorGenerator(12, 16, seed=5).edges()
        return GraphScaler.fit(small, 1 << 12), small

    def test_scale_up_edge_count(self, scaler):
        s, _ = scaler
        big = s.scale_to(14, seed=6)
        assert abs(big.shape[0] - 16 * (1 << 14)) / (16 * (1 << 14)) < 0.1

    def test_scale_preserves_slope(self, scaler):
        s, small = scaler
        big = s.scale_to(14, seed=6)
        slope_small = fit_kronecker_class_slope(
            out_degrees(small, 1 << 12))
        slope_big = fit_kronecker_class_slope(out_degrees(big, 1 << 14))
        assert abs(slope_small - slope_big) < 0.35

    def test_scale_down(self, scaler):
        s, _ = scaler
        tiny = s.scale_to(9, seed=7)
        assert abs(tiny.shape[0] - 16 * 512) / (16 * 512) < 0.15

    def test_generator_passthrough(self, scaler):
        s, _ = scaler
        g = s.generator(11, seed=8, noise=0.1)
        assert g.noise == 0.1
        assert type(g) is RecursiveVectorGenerator
        assert g.edges().shape[0] > 0

    def test_rejects_bad_scale(self, scaler):
        s, _ = scaler
        with pytest.raises(ConfigurationError):
            s.generator(0)

    def test_deterministic(self, scaler):
        s, _ = scaler
        np.testing.assert_array_equal(s.scale_to(10, seed=9),
                                      s.scale_to(10, seed=9))
