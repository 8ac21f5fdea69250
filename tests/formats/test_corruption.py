"""Failure injection: corrupted, truncated, and inconsistent graph files.

Readers must fail loudly (FormatError) on damaged inputs rather than
silently returning wrong graphs — the failure mode that matters for a
generator whose outputs feed benchmarks.
"""

import struct

import numpy as np
import pytest

from repro import RecursiveVectorGenerator
from repro.errors import FormatError
from repro.formats import Adj6Format, Csr6Format, TsvFormat, get_format


@pytest.fixture()
def written(tmp_path):
    """One valid file per format."""
    g = RecursiveVectorGenerator(8, 8, seed=1)
    paths = {}
    for name in ("tsv", "adj6", "csr6"):
        path = tmp_path / f"g.{name}"
        get_format(name).write_blocks(path, g.iter_blocks(), 256)
        paths[name] = path
    return paths


class TestTruncation:
    @pytest.mark.parametrize("fmt_name,cut", [("adj6", 1), ("adj6", 7),
                                              ("csr6", 3), ("csr6", 11)])
    def test_truncated_binary_detected(self, written, fmt_name, cut):
        path = written[fmt_name]
        data = path.read_bytes()
        path.write_bytes(data[:-cut])
        with pytest.raises(FormatError):
            get_format(fmt_name).read_edges(path)

    def test_truncated_tsv_line_detected(self, written):
        path = written["tsv"]
        text = path.read_text()
        # Cut mid-line: the partial last line is malformed.
        path.write_text(text[:-4])
        with pytest.raises(FormatError):
            get_format("tsv").read_edges(path)

    def test_empty_binary_file_is_empty_graph(self, tmp_path):
        # Zero bytes is a legal (empty) ADJ6 file, not corruption.
        path = tmp_path / "empty.adj6"
        path.write_bytes(b"")
        assert Adj6Format().read_edges(path).shape[0] == 0


class TestGarbage:
    def test_random_bytes_csr6(self, tmp_path):
        path = tmp_path / "junk.csr6"
        path.write_bytes(np.random.default_rng(0).bytes(200))
        with pytest.raises(FormatError):
            Csr6Format().read_csr(path)

    def test_wrong_magic_csr6(self, written):
        path = written["csr6"]
        data = bytearray(path.read_bytes())
        data[0:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            Csr6Format().read_csr(path)

    def test_text_in_binary_adj6(self, tmp_path):
        path = tmp_path / "text.adj6"
        path.write_text("0\t1\n0\t2\n")
        # Interpreted as binary records this is a truncated/garbage file;
        # it must raise, not return nonsense silently.
        with pytest.raises(FormatError):
            list(Adj6Format().iter_adjacency(path))

    def test_non_numeric_tsv(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("zero\tone\n")
        with pytest.raises(FormatError):
            TsvFormat().read_edges(path)

    def test_too_many_columns_tsv(self, tmp_path):
        path = tmp_path / "cols.tsv"
        path.write_text("1\t2\t3\n")
        with pytest.raises(FormatError):
            TsvFormat().read_edges(path)


class TestInconsistency:
    def test_csr6_indptr_vs_edge_count(self, written):
        """Header edge count inconsistent with indptr is rejected."""
        path = written["csr6"]
        data = bytearray(path.read_bytes())
        # Patch the header's num_edges down by one.
        magic, n, m = struct.unpack_from("<4sQQ", data, 0)
        struct.pack_into("<4sQQ", data, 0, magic, n, m - 1)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            Csr6Format().read_csr(path)

    def test_adj6_degree_field_beyond_eof(self, tmp_path):
        """A record claiming more neighbours than the file holds."""
        path = tmp_path / "deg.adj6"
        from repro.formats.base import encode_id6
        with open(path, "wb") as f:
            f.write(encode_id6(np.array([5], dtype=np.int64)))
            f.write(struct.pack("<I", 100))      # degree 100 ...
            f.write(encode_id6(np.array([1, 2], dtype=np.int64)))  # 2 ids
        with pytest.raises(FormatError):
            list(Adj6Format().iter_adjacency(path))
