"""Tests for the output validator (repro.validate)."""

import numpy as np
import pytest

from repro import GRAPH500, RecursiveVectorGenerator, SeedMatrix
from repro.validate import Check, ValidationReport, validate_edges


class TestChecksPass:
    def test_good_graph_passes_everything(self):
        g = RecursiveVectorGenerator(12, 16, seed=1)
        report = validate_edges(g.edges(), g.num_vertices,
                                seed_matrix=GRAPH500,
                                expected_edges=g.num_edges)
        assert report.ok, str(report)
        names = {c.name for c in report.checks}
        assert names == {"shape", "ids-in-range", "no-duplicate-edges",
                         "edge-count", "zipf-slope"}

    def test_edge_count_tolerates_the_scope_size_bias(self):
        """Clipping Normal scope sizes at 0 realizes up to +0.26 % more
        edges than the target; at scale 18 the 5-sigma term alone (0.24 %)
        rejected such graphs."""
        n, target = 1 << 18, 16 << 18
        i = np.arange(int(target * 1.0025), dtype=np.int64)
        report = validate_edges(np.column_stack([i % n, i // n]), n,
                                expected_edges=target, expect_simple=False)
        assert report.ok, str(report)

    def test_empty_graph(self):
        report = validate_edges(np.empty((0, 2), dtype=np.int64), 16)
        assert report.ok

    def test_optional_checks_skipped(self):
        g = RecursiveVectorGenerator(9, 8, seed=2)
        report = validate_edges(g.edges(), 512)
        names = {c.name for c in report.checks}
        assert "edge-count" not in names
        assert "zipf-slope" not in names


class TestChecksFail:
    def test_out_of_range_detected(self):
        edges = np.array([[0, 99]])
        report = validate_edges(edges, 16)
        assert not report.ok
        assert report.failed()[0].name == "ids-in-range"

    def test_duplicates_detected(self):
        edges = np.array([[1, 2], [1, 2]])
        report = validate_edges(edges, 16)
        assert any(c.name == "no-duplicate-edges" and not c.passed
                   for c in report.checks)

    def test_duplicates_allowed_when_not_expected_simple(self):
        edges = np.array([[1, 2], [1, 2]])
        report = validate_edges(edges, 16, expect_simple=False)
        assert report.ok

    def test_wrong_edge_count_detected(self):
        g = RecursiveVectorGenerator(10, 8, seed=3)
        edges = g.edges()[:100]
        report = validate_edges(edges, 1024, expected_edges=8192)
        assert any(c.name == "edge-count" and not c.passed
                   for c in report.checks)

    def test_wrong_slope_detected(self):
        """A uniform graph fails the Graph500 slope check."""
        from repro.core.seed import UNIFORM
        g = RecursiveVectorGenerator(12, 16, UNIFORM, seed=4)
        report = validate_edges(g.edges(), g.num_vertices,
                                seed_matrix=GRAPH500)
        assert any(c.name == "zipf-slope" and not c.passed
                   for c in report.checks)

    def test_bad_shape_short_circuits(self):
        report = validate_edges(np.zeros((3, 3), dtype=np.int64), 16)
        assert not report.ok
        assert len(report.checks) == 1

    def test_hub_clipping_tolerated(self):
        """At tiny scales with saturated hubs the realized count falls
        below target legitimately; the validator must not flag it."""
        g = RecursiveVectorGenerator(6, 32, seed=5)
        edges = g.edges()
        report = validate_edges(edges, 64, expected_edges=g.num_edges)
        count_check = next(c for c in report.checks
                           if c.name == "edge-count")
        assert count_check.passed, count_check.detail


class TestReportFormatting:
    def test_str_contains_marks(self):
        report = ValidationReport([Check("a", True, "fine"),
                                   Check("b", False, "broken")])
        text = str(report)
        assert "[PASS] a" in text
        assert "[FAIL] b" in text

    def test_failed_list(self):
        report = ValidationReport([Check("a", True, ""),
                                   Check("b", False, "")])
        assert [c.name for c in report.failed()] == ["b"]


class TestStreamed:
    """``validate_blocks`` folds a file's blocks into the checks that
    ``validate_edges`` makes of its whole edge array."""

    @pytest.fixture(params=["tsv", "adj6", "csr6"])
    def written(self, request, tmp_path):
        from repro.formats import get_format
        g = RecursiveVectorGenerator(12, 16, seed=1)
        fmt = get_format(request.param)
        path = tmp_path / f"g.{request.param}"
        fmt.write_blocks(path, g.iter_blocks(), g.num_vertices)
        return g, fmt, path

    def test_the_same_report_as_the_edge_array(self, written, monkeypatch):
        from repro.formats import adj6, csr6, tsv
        from repro.validate import validate_blocks
        g, fmt, path = written
        for module in (adj6, csr6, tsv):
            monkeypatch.setattr(module, "_SLICE_EDGES", 101)
        options = dict(seed_matrix=GRAPH500, expected_edges=g.num_edges)
        streamed = validate_blocks(fmt.read_blocks(path), g.num_vertices,
                                   **options)
        whole = validate_edges(fmt.read_edges(path), g.num_vertices,
                               **options)
        assert str(streamed) == str(whole)
        assert streamed.ok, str(streamed)

    def test_the_streamed_slope_is_the_degree_array_slope(self, written):
        from repro.analysis import fit_kronecker_class_slope, out_degrees
        from repro.analysis.fitting import fit_class_sums_slope
        from repro.validate import _Tally
        g, fmt, path = written
        tally = _Tally(g.num_vertices)
        for block in fmt.read_blocks(path):
            tally.add(block)
        degrees = out_degrees(fmt.read_edges(path), g.num_vertices)
        assert fit_class_sums_slope(tally.class_sums, g.num_vertices) == (
            fit_kronecker_class_slope(degrees))
