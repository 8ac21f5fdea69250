"""Tests for the TSV / ADJ6 / CSR6 graph formats."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import RecursiveVectorGenerator
from repro.core.generator import AdjacencyBlock
from repro.errors import FormatError
from repro.formats import (Adj6Format, Csr6Format, TsvFormat,
                           adj6, available_formats, csr6, get_format, tsv)
from repro.models import RmatDiskGenerator
from repro.formats.base import decode_id6, encode_id6


def pairs_block(pairs):
    """One block of ``(vertex, neighbours)`` pairs, kept in the given
    order (the writers' own checks see any disorder)."""
    offsets = np.zeros(len(pairs) + 1, dtype=np.int64)
    np.cumsum([len(vs) for _, vs in pairs], out=offsets[1:])
    return AdjacencyBlock(
        np.array([u for u, _ in pairs], dtype=np.int64), offsets,
        np.concatenate([np.asarray(vs, dtype=np.int64) for _, vs in pairs]
                       or [np.empty(0, dtype=np.int64)]))


def write_pairs(fmt, path, pairs, num_vertices):
    return fmt.write_blocks(path, [pairs_block(pairs)], num_vertices)


class TestRegistry:
    def test_all_three_registered(self):
        assert available_formats() == ["adj6", "csr6", "tsv"]

    def test_lookup_case_insensitive(self):
        assert get_format("ADJ6").name == "adj6"

    def test_unknown_format(self):
        with pytest.raises(FormatError):
            get_format("parquet")


class TestId6Codec:
    def test_roundtrip(self):
        vals = np.array([0, 1, 2**24, 2**40, 2**48 - 1], dtype=np.int64)
        assert decode_id6(encode_id6(vals)).tolist() == vals.tolist()

    def test_six_bytes_each(self):
        assert len(encode_id6(np.array([7, 8], dtype=np.int64))) == 12

    def test_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            encode_id6(np.array([2**48], dtype=np.int64))
        with pytest.raises(FormatError):
            encode_id6(np.array([-1], dtype=np.int64))

    def test_rejects_truncated(self):
        with pytest.raises(FormatError):
            decode_id6(b"\x00" * 7)

    @given(st.lists(st.integers(min_value=0, max_value=2**48 - 1),
                    min_size=0, max_size=100))
    def test_roundtrip_property(self, values):
        arr = np.array(values, dtype=np.int64)
        assert decode_id6(encode_id6(arr)).tolist() == values


@pytest.fixture(scope="module")
def graph():
    g = RecursiveVectorGenerator(9, 8, seed=77)
    return g, g.edges()


@pytest.mark.parametrize("fmt_name", ["tsv", "adj6", "csr6"])
class TestRoundTrip:
    def test_adjacency_roundtrip(self, fmt_name, graph, tmp_path):
        g, edges = graph
        fmt = get_format(fmt_name)
        res = fmt.write_blocks(tmp_path / f"g.{fmt_name}", g.iter_blocks(),
                               512)
        assert res.num_edges == edges.shape[0]
        back = fmt.read_edges(res.path)
        np.testing.assert_array_equal(back, edges)

    def test_write_edges_roundtrip(self, fmt_name, graph, tmp_path):
        _, edges = graph
        fmt = get_format(fmt_name)
        res = fmt.write_edges(tmp_path / f"e.{fmt_name}", edges, 512)
        back = fmt.read_edges(res.path)
        np.testing.assert_array_equal(back, edges)

    def test_empty_graph(self, fmt_name, tmp_path):
        fmt = get_format(fmt_name)
        res = fmt.write_blocks(tmp_path / f"empty.{fmt_name}", [], 16)
        assert res.num_edges == 0
        assert fmt.read_edges(res.path).shape == (0, 2)

    def test_read_blocks_hold_whole_bounded_sources(self, fmt_name, graph,
                                                    tmp_path, monkeypatch):
        """``read_blocks`` concatenates to the edges the file was written
        from, each source in one block, and a block holds at most the
        format's ``_SLICE_EDGES`` edges unless one source has more.
        Tiny slices and reads put a join everywhere."""
        g, edges = graph
        fmt = get_format(fmt_name)
        path = tmp_path / f"b.{fmt_name}"
        fmt.write_blocks(path, g.iter_blocks(), 512)
        module = {"adj6": adj6, "csr6": csr6, "tsv": tsv}[fmt_name]
        monkeypatch.setattr(module, "_SLICE_EDGES", 7)
        if fmt_name != "csr6":
            monkeypatch.setattr(module, "_READ_BYTES", 61)
        blocks = list(fmt.read_blocks(path))
        assert all(b.num_edges <= 7 or b.sources.size == 1 for b in blocks)
        assert np.all(np.diff(np.concatenate([b.sources for b in blocks]))
                      > 0)
        np.testing.assert_array_equal(
            np.concatenate([b.edge_array() for b in blocks]), edges)

    def test_a_disk_baseline_reads_back(self, fmt_name, tmp_path):
        """RMAT-disk's blocks come from the external sort's key stream
        (``blocks_from_sorted_keys``); they read back as its edges."""
        path = tmp_path / f"r.{fmt_name}"
        RmatDiskGenerator(9, 8, seed=3).write_to(path, fmt=fmt_name)
        np.testing.assert_array_equal(
            get_format(fmt_name).read_edges(path),
            RmatDiskGenerator(9, 8, seed=3).generate())

    def test_bytes_written_matches_file(self, fmt_name, graph, tmp_path):
        g, _ = graph
        fmt = get_format(fmt_name)
        res = fmt.write_blocks(tmp_path / f"s.{fmt_name}", g.iter_blocks(),
                               512)
        assert res.bytes_written == res.path.stat().st_size


class TestAdj6Specifics:
    def test_record_size(self, tmp_path):
        fmt = Adj6Format()
        res = write_pairs(fmt, tmp_path / "one.adj6",
                          [(3, np.array([1, 2, 5]))], 8)
        # 6 (id) + 4 (degree) + 3*6 (neighbours)
        assert res.bytes_written == 6 + 4 + 18

    def test_truncated_file_detected(self, tmp_path):
        fmt = Adj6Format()
        write_pairs(fmt, tmp_path / "t.adj6", [(3, np.array([1, 2, 5]))], 8)
        data = (tmp_path / "t.adj6").read_bytes()
        (tmp_path / "t.adj6").write_bytes(data[:-3])
        with pytest.raises(FormatError):
            list(fmt.iter_adjacency(tmp_path / "t.adj6"))

    def test_smaller_than_tsv_at_large_ids(self, tmp_path):
        """The paper's size claim: ADJ6 is ~3-4x smaller than TSV once
        vertex ids are long (trillion-scale ids are 12-13 digits)."""
        rng = np.random.default_rng(0)
        base = 2**40
        adjacency = [(base + u,
                      np.sort(rng.integers(base, base + 10**6, size=16)))
                     for u in range(200)]
        adj = write_pairs(Adj6Format(), tmp_path / "b.adj6", adjacency,
                          2**41)
        tsv = write_pairs(TsvFormat(), tmp_path / "b.tsv", adjacency, 2**41)
        assert tsv.bytes_written > 3 * adj.bytes_written


class TestCsr6Specifics:
    def test_header_magic(self, tmp_path):
        fmt = Csr6Format()
        write_pairs(fmt, tmp_path / "h.csr6", [(0, np.array([1]))], 4)
        assert (tmp_path / "h.csr6").read_bytes()[:4] == b"CSR6"

    def test_rejects_unsorted_vertices(self, tmp_path):
        fmt = Csr6Format()
        with pytest.raises(FormatError):
            write_pairs(fmt, tmp_path / "u.csr6",
                        [(3, np.array([1])), (1, np.array([2]))], 8)

    def test_rejects_unsorted_neighbours(self, tmp_path):
        fmt = Csr6Format()
        with pytest.raises(FormatError):
            write_pairs(fmt, tmp_path / "n.csr6", [(0, np.array([5, 1]))], 8)

    def test_rejects_out_of_range_vertex(self, tmp_path):
        fmt = Csr6Format()
        with pytest.raises(FormatError):
            write_pairs(fmt, tmp_path / "r.csr6", [(9, np.array([1]))], 8)

    def test_rejects_non_csr_file(self, tmp_path):
        (tmp_path / "junk.csr6").write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(FormatError):
            Csr6Format().read_csr(tmp_path / "junk.csr6")

    def test_read_csr_arrays(self, tmp_path, graph):
        g, edges = graph
        fmt = Csr6Format()
        fmt.write_blocks(tmp_path / "c.csr6", g.iter_blocks(), 512)
        indptr, indices = fmt.read_csr(tmp_path / "c.csr6")
        assert indptr.size == 513
        assert indptr[-1] == edges.shape[0]
        deg = np.bincount(edges[:, 0], minlength=512)
        np.testing.assert_array_equal(np.diff(indptr), deg)


class TestTsvSpecifics:
    def test_malformed_line(self, tmp_path):
        (tmp_path / "bad.tsv").write_text("1\t2\nnot a line\n")
        with pytest.raises(FormatError):
            list(TsvFormat().iter_adjacency(tmp_path / "bad.tsv"))

    def test_blank_lines_skipped(self, tmp_path):
        (tmp_path / "blank.tsv").write_text("1\t2\n\n1\t3\n")
        pairs = list(TsvFormat().iter_adjacency(tmp_path / "blank.tsv"))
        assert pairs[0][0] == 1
        assert pairs[0][1].tolist() == [2, 3]


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(
    st.tuples(st.integers(0, 200),
              st.lists(st.integers(0, 255), max_size=8, unique=True)),
    max_size=12, unique_by=lambda t: t[0]))
def test_formats_agree_property(tmp_path, records):
    """All three formats store exactly the same adjacency structure."""
    records = sorted((u, np.array(sorted(vs), dtype=np.int64))
                     for u, vs in records)
    results = {}
    for name in available_formats():
        fmt = get_format(name)
        path = tmp_path / f"p-{name}"
        write_pairs(fmt, path, records, 256)
        results[name] = fmt.read_edges(path).tolist()
    assert results["tsv"] == results["adj6"] == results["csr6"]
