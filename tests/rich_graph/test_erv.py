"""Tests for the ERV model and the schema-driven rich generator."""

import hashlib

import numpy as np
import pytest
from scipy import stats as sps

from repro.analysis import (fit_gaussian, fit_kronecker_class_slope,
                            in_degrees, out_degrees)
from repro.cli import main
from repro.errors import ConfigurationError
from repro.rich_graph import (ErvGenerator, Gaussian, RichGraphGenerator,
                              Uniform, Zipfian, bibliographical_config,
                              seed_for_in_slope)


class TestErvGenerator:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ErvGenerator(0, 10, 5, Gaussian(), Gaussian())
        with pytest.raises(ConfigurationError):
            ErvGenerator(10, 10, -1, Gaussian(), Gaussian())
        with pytest.raises(ConfigurationError):
            ErvGenerator(3, 3, 100, Gaussian(), Gaussian())
        # A run's key ``row << L | dest`` would overflow an int64.
        with pytest.raises(ConfigurationError, match="int64"):
            ErvGenerator(1 << 40, 1 << 30, 0, Uniform(1, 1), Gaussian())

    def test_edge_count_near_budget(self):
        g = ErvGenerator(4096, 4096, 40000, Zipfian(-1.5), Gaussian(),
                         seed=1)
        e = g.edges()
        assert abs(e.shape[0] - 40000) / 40000 < 0.05

    def test_edges_in_ranges(self):
        g = ErvGenerator(100, 300, 2000, Gaussian(), Gaussian(), seed=2)
        e = g.edges()
        assert e[:, 0].min() >= 0 and e[:, 0].max() < 100
        assert e[:, 1].min() >= 0 and e[:, 1].max() < 300

    def test_no_duplicates(self):
        g = ErvGenerator(256, 256, 5000, Zipfian(-1.0), Zipfian(-1.0),
                         seed=3)
        e = g.edges()
        packed = e[:, 0] * 256 + e[:, 1]
        assert np.unique(packed).size == e.shape[0]

    def test_duplicates_kept_when_dedup_off(self):
        """gMark's behaviour (repeated edges) is reproducible for
        comparison."""
        g = ErvGenerator(16, 16, 200, Gaussian(), Gaussian(),
                         dedup=False, seed=4)
        e = g.edges()
        packed = e[:, 0] * 16 + e[:, 1]
        assert np.unique(packed).size < e.shape[0]

    def test_deterministic(self):
        a = ErvGenerator(128, 128, 2000, Zipfian(-1.5), Gaussian(),
                         seed=5).edges()
        b = ErvGenerator(128, 128, 2000, Zipfian(-1.5), Gaussian(),
                         seed=5).edges()
        np.testing.assert_array_equal(a, b)

    def test_zipfian_out_slope_controlled(self):
        """Lemma 6 control: requested slope appears in the output."""
        for slope in (-1.0, -1.662, -2.2):
            g = ErvGenerator(8192, 8192, 120000, Zipfian(slope),
                             Gaussian(), seed=6)
            deg = np.bincount(g.edges()[:, 0], minlength=8192)
            measured = fit_kronecker_class_slope(deg)
            assert abs(measured - slope) < 0.25

    def test_gaussian_out_degrees(self):
        g = ErvGenerator(4096, 4096, 65536, Gaussian(), Gaussian(), seed=7)
        deg = np.bincount(g.edges()[:, 0], minlength=4096)
        fit = fit_gaussian(deg)
        assert fit.looks_gaussian
        assert abs(fit.mean - 16.0) < 0.5

    def test_uniform_out_degrees(self):
        g = ErvGenerator(2000, 2000, 0, Uniform(2, 5), Gaussian(), seed=8)
        deg = g.out_degrees()
        assert deg.min() >= 2 and deg.max() <= 5

    def test_zipfian_in_degrees_skewed(self):
        g = ErvGenerator(4096, 4096, 65536, Gaussian(), Zipfian(-1.662),
                         seed=9)
        in_deg = np.bincount(g.edges()[:, 1], minlength=4096)
        measured = fit_kronecker_class_slope(in_deg)
        assert abs(measured - (-1.662)) < 0.3

    def test_zipfian_destinations_match_kin_marginal(self):
        """Theorem 2 under ``Kin``: without dedup, every destination of a
        power-of-two range is one draw from the column marginal of
        ``Kin``, the product over its bits of Bernoulli(beta + delta).
        Full-cell chi-square; the rarest of the 256 cells expects about
        10 draws."""
        slope, levels = -1.4, 8
        g = ErvGenerator(2048, 1 << levels, 300_000, Gaussian(),
                         Zipfian(slope), dedup=False, seed=14)
        dests = g.edges()[:, 1]
        kin = seed_for_in_slope(slope)
        one = kin.beta + kin.delta
        ones = np.bitwise_count(np.arange(1 << levels, dtype=np.uint64))
        pmf = one ** ones * (1.0 - one) ** (levels - ones.astype(np.int64))
        expected = pmf / pmf.sum() * dests.size
        assert expected.min() > 5
        counts = np.bincount(dests, minlength=1 << levels)
        assert sps.chisquare(counts, expected).pvalue > 1e-4

    def test_different_src_dst_ranges(self):
        """The rectangle-matrix mapping covers non-square, non-power-of-
        two destination ranges."""
        g = ErvGenerator(1000, 300, 5000, Zipfian(-1.5), Zipfian(-1.5),
                         seed=10)
        e = g.edges()
        assert e[:, 1].max() < 300
        assert np.unique(e[:, 1]).size > 100


class TestRichGraphGenerator:
    @pytest.fixture(scope="class")
    def generated(self):
        cfg = bibliographical_config(1 << 13)
        return cfg, RichGraphGenerator(cfg, seed=11).generate()

    def test_all_rules_generated(self, generated):
        cfg, typed = generated
        assert len(typed) == len(cfg.rules)

    def test_edges_respect_type_ranges(self, generated):
        cfg, typed = generated
        for t in typed:
            src_lo, src_hi = cfg.vertex_range(t.rule.source)
            dst_lo, dst_hi = cfg.vertex_range(t.rule.target)
            assert t.edges[:, 0].min() >= src_lo
            assert t.edges[:, 0].max() < src_hi
            assert t.edges[:, 1].min() >= dst_lo
            assert t.edges[:, 1].max() < dst_hi

    def test_budgets_respected_for_stochastic_rules(self, generated):
        cfg, typed = generated
        for t in typed:
            if isinstance(t.rule.out_distribution, Uniform):
                continue  # uniform rules are degree-driven, not budgeted
            budget = cfg.rule_edge_budget(t.rule)
            assert abs(t.num_edges - budget) / budget < 0.05

    def test_figure10_property(self, generated):
        """Zipfian out / Gaussian in on the author rectangle."""
        cfg, typed = generated
        author = typed[0]
        src_lo, src_hi = cfg.vertex_range("researcher")
        dst_lo, dst_hi = cfg.vertex_range("paper")
        out_deg = np.bincount(author.edges[:, 0] - src_lo,
                              minlength=src_hi - src_lo)
        in_deg = np.bincount(author.edges[:, 1] - dst_lo,
                             minlength=dst_hi - dst_lo)
        assert abs(fit_kronecker_class_slope(out_deg) + 1.662) < 0.25
        assert fit_gaussian(in_deg).looks_gaussian
        assert not fit_gaussian(out_deg).looks_gaussian

    def test_triples(self, generated):
        cfg, typed = generated
        gen = RichGraphGenerator(cfg, seed=11)
        triples = gen.all_triples()
        assert triples.shape[1] == 3
        assert set(np.unique(triples[:, 1])) == {0, 1, 2}

    def test_no_duplicate_typed_edges(self, generated):
        cfg, typed = generated
        for t in typed:
            packed = (t.edges[:, 0] * cfg.num_vertices) + t.edges[:, 1]
            assert np.unique(packed).size == t.num_edges

    def test_ntriples_output(self, tmp_path):
        cfg = bibliographical_config(1 << 10)
        gen = RichGraphGenerator(cfg, seed=12)
        count = gen.write_ntriples(tmp_path / "bib.nt")
        lines = (tmp_path / "bib.nt").read_text().strip().split("\n")
        assert len(lines) == count
        assert "\tauthor\t" in lines[0] or "\tpublishedIn\t" in lines[0] \
            or "\tpresentedIn\t" in lines[0]

    def test_deterministic(self):
        cfg = bibliographical_config(1 << 10)
        a = RichGraphGenerator(cfg, seed=13).all_triples()
        b = RichGraphGenerator(cfg, seed=13).all_triples()
        np.testing.assert_array_equal(a, b)

    def test_rich_cli_bytes_are_pinned(self, tmp_path):
        """``trilliong rich`` writes the same triples byte for byte: the
        one digest over ERV's draw, dedup and top-up rounds."""
        assert _rich_digest("bibliographical", tmp_path) == (
            "232d532ae58eaeaa07a0fe28b0a1fb11181fd60c6a863d21ce5000d3551ba3cf")

    @pytest.mark.parametrize("schema, digest", [
        ("watdiv",
         "dee97488e7d381508fba9fd2a4ac306d8ca0929b07caebef0bd710ea26dc8922"),
        ("snb",
         "ec1e213052299cc6795f63235c319cb639a2353796723d0fcfcb563843ab7df2"),
        ("sp2bench",
         "4ceb80d64116274811bb83b5993658b976a916f341f9cced6a3ae4526bb63dd4"),
    ])
    def test_builtin_schema_bytes_are_pinned(self, schema, digest,
                                             tmp_path):
        """The other built-in schemas' triples are frozen alike."""
        assert _rich_digest(schema, tmp_path) == digest


def _rich_digest(schema, tmp_path):
    """SHA-256 of ``trilliong rich --vertices 4096 --seed 3``."""
    out = tmp_path / f"{schema}.nt"
    assert main(["rich", "--vertices", "4096", "--schema", schema,
                 "--seed", "3", "--output", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()
