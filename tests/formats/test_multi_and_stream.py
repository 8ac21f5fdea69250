"""Tests for the incremental stream writers."""

import numpy as np
import pytest

from repro import RecursiveVectorGenerator
from repro.errors import FormatError
from repro.formats import get_format


@pytest.fixture()
def graph():
    g = RecursiveVectorGenerator(9, 8, seed=5)
    return g, g.edges()


def pairs(g):
    """``g``'s ``(vertex, neighbours)`` records, in order."""
    return [pair for block in g.iter_blocks()
            for pair in block.iter_adjacency()]


class TestStreamWriters:
    @pytest.mark.parametrize("fmt_name", ["tsv", "adj6", "csr6"])
    def test_incremental_equals_batch(self, fmt_name, graph, tmp_path):
        g, edges = graph
        fmt = get_format(fmt_name)
        batch_path = tmp_path / f"batch.{fmt_name}"
        inc_path = tmp_path / f"inc.{fmt_name}"
        fmt.write_blocks(batch_path, g.iter_blocks(), g.num_vertices)
        writer = fmt.open_writer(inc_path, g.num_vertices)
        for u, vs in pairs(g):
            writer.add(u, vs)
        result = writer.close()
        assert result.num_edges == edges.shape[0]
        assert batch_path.read_bytes() == inc_path.read_bytes()

    @pytest.mark.parametrize("fmt_name", ["tsv", "adj6", "csr6"])
    def test_context_manager(self, fmt_name, graph, tmp_path):
        g, edges = graph
        fmt = get_format(fmt_name)
        path = tmp_path / f"ctx.{fmt_name}"
        with fmt.open_writer(path, g.num_vertices) as writer:
            for u, vs in pairs(g):
                writer.add(u, vs)
        back = fmt.read_edges(path)
        np.testing.assert_array_equal(back, edges)

    def test_csr_stream_rejects_disorder_immediately(self, tmp_path):
        fmt = get_format("csr6")
        writer = fmt.open_writer(tmp_path / "bad.csr6", 8)
        writer.add(3, np.array([1]))
        with pytest.raises(FormatError):
            writer.add(1, np.array([2]))
        writer.close()

