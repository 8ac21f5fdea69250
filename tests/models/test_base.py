"""Unit tests for the scope-based framework (repro.models.base)."""

import numpy as np
import pytest

from repro.core.seed import SeedMatrix
from repro.errors import ConfigurationError, OutOfMemoryError
from repro.models import (Graph500Generator, RmatMemGenerator, TegGenerator,
                          TrillionGSeqGenerator, dedup_edges)
from repro.models.base import GenerationReport


class TestGenerationReport:
    def test_phase_timer_accumulates(self):
        r = GenerationReport(model="x")
        with r.time_phase("a"):
            pass
        with r.time_phase("a"):
            pass
        with r.time_phase("b"):
            pass
        assert set(r.phase_seconds) == {"a", "b"}
        assert r.elapsed_seconds >= 0

    def test_elapsed_sums_phases(self):
        r = GenerationReport(model="x")
        r.phase_seconds = {"a": 1.0, "b": 2.5}
        assert r.elapsed_seconds == 3.5


class TestMemoryBudget:
    def test_rmat_mem_ooms_under_small_budget(self):
        g = RmatMemGenerator(12, 16, memory_budget=1024)
        with pytest.raises(OutOfMemoryError) as info:
            g.generate()
        assert info.value.required_bytes > info.value.budget_bytes

    def test_rmat_mem_fits_large_budget(self):
        g = RmatMemGenerator(8, 8, memory_budget=1 << 30)
        assert g.generate().shape[0] == 8 * 256

    def test_trilliong_fits_where_rmat_ooms(self):
        """The scale-up claim: under the same budget the AVS model runs
        where the WES model cannot (Figure 11(a)'s O.O.M bars)."""
        budget = 64 * 1024
        with pytest.raises(OutOfMemoryError):
            RmatMemGenerator(12, 16, memory_budget=budget).generate()
        g = TrillionGSeqGenerator(12, 16, memory_budget=budget,
                                  block_size=64)
        assert g.generate().shape[0] > 0

    def test_no_budget_means_no_check(self):
        g = RmatMemGenerator(8, 8)
        g.check_memory_budget()  # must not raise


class TestVertexCount:
    """An AVS model's ``|V|`` is its recipe's ``n^scale``; the other
    models keep ``2^scale`` (``scale`` is ``log2(|V|)`` for them)."""

    THREE = SeedMatrix(np.array([[0.3, 0.12, 0.08], [0.12, 0.1, 0.05],
                                 [0.08, 0.05, 0.1]]))

    def test_a_three_by_three_seed_has_three_to_the_scale_vertices(self):
        g = TrillionGSeqGenerator(5, 8, self.THREE, seed=1)
        assert g.num_vertices == g.inner.num_vertices == 243
        assert g.num_edges == 8 * 243
        assert g.report.num_vertices == 243
        edges = g.generate()
        assert edges.shape[0] == 8 * 243
        assert 32 <= int(edges.max()) < 243
        assert g.estimated_peak_bytes() == int(
            max(8 * g.inner.block_size * 4, 1024) * 8)

    def test_two_by_two_seeds_keep_two_to_the_scale(self):
        for cls in (TrillionGSeqGenerator, TegGenerator, Graph500Generator,
                    RmatMemGenerator):
            g = cls(7, 4, seed=2)
            assert g.num_vertices == 128 and g.num_edges == 512


class TestValidation:
    def test_bad_scale(self):
        with pytest.raises(ConfigurationError):
            RmatMemGenerator(0)

    def test_bad_num_edges(self):
        with pytest.raises(ConfigurationError):
            RmatMemGenerator(8, num_edges=0)


class TestPackUnpack:
    def test_roundtrip(self):
        g = RmatMemGenerator(8, 8)
        edges = np.array([[0, 0], [3, 200], [255, 255]], dtype=np.int64)
        packed = g.pack_edges(edges)
        np.testing.assert_array_equal(g.unpack_edges(packed), edges)


class TestDedupEdges:
    def test_removes_duplicates(self):
        edges = np.array([[1, 2], [1, 2], [3, 4]], dtype=np.int64)
        out, dropped = dedup_edges(edges, 16)
        assert dropped == 1
        assert out.tolist() == [[1, 2], [3, 4]]

    def test_empty(self):
        out, dropped = dedup_edges(np.empty((0, 2), dtype=np.int64), 16)
        assert out.shape[0] == 0
        assert dropped == 0

    def test_sorted_output(self):
        edges = np.array([[5, 1], [0, 9], [5, 0]], dtype=np.int64)
        out, _ = dedup_edges(edges, 16)
        assert out.tolist() == [[0, 9], [5, 0], [5, 1]]
