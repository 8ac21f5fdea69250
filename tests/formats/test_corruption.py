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

    def test_adj6_largest_degree_field_reads_no_more_than_the_file(
            self, tmp_path):
        """A degree of 2^32 - 1 claims 24 GiB of neighbours: the reader
        asks the file for what it holds and reports the truncation."""
        path = tmp_path / "huge.adj6"
        from repro.formats.base import encode_id6
        path.write_bytes(encode_id6(np.array([5], dtype=np.int64))
                         + struct.pack("<I", 0xFFFFFFFF) + b"\0" * 12)
        with pytest.raises(FormatError, match="truncated ADJ6 record body"):
            Adj6Format().read_edges(path)


def _id6(values):
    return np.asarray(values, dtype="<i8").view(np.uint8).reshape(
        -1, 8)[:, :6].tobytes()


def _encode(fmt_name, records, num_vertices):
    """The file bytes of ``(vertex, neighbours)`` records, in the given
    order and unchecked (the writers refuse a broken layout)."""
    if fmt_name == "tsv":
        return "".join(f"{u}\t{v}\n" for u, vs in records
                       for v in vs).encode("ascii")
    if fmt_name == "adj6":
        return b"".join(_id6([u]) + struct.pack("<I", len(vs)) + _id6(vs)
                        for u, vs in records)
    degrees = np.zeros(num_vertices, dtype=np.int64)
    for u, vs in records:
        degrees[u] = len(vs)
    return (struct.pack("<4sQQ", b"CSR6", num_vertices, degrees.sum())
            + np.concatenate([[0], np.cumsum(degrees)]).astype(
                "<u8").tobytes()
            + _id6(np.concatenate([vs for _, vs in records])))


def _swap_records(records):
    i = len(records) // 2
    records[i], records[i + 1] = records[i + 1], records[i]


def _unsort_a_row(records):
    vs = next(vs for _, vs in reversed(records) if len(vs) >= 2)
    vs[-2], vs[-1] = vs[-1], vs[-2]


def _duplicate_a_destination(records):
    vs = next(vs for _, vs in reversed(records) if len(vs) >= 2)
    vs[-1] = vs[-2]


def _id_out_of_range(records):
    records[-1][1][-1] = 1 << 10


#: Each mutation of a valid file and the check ``verify`` must fail; the
#: first two passed while ``verify`` loaded whole edge arrays.
MUTATIONS = {
    "swapped-records": (_swap_records, "no-duplicate-edges",
                        "not in the sorted layout"),
    "row-out-of-order": (_unsort_a_row, "no-duplicate-edges",
                         "not in the sorted layout"),
    "duplicate": (_duplicate_a_destination, "no-duplicate-edges",
                  "1 duplicate pairs"),
    "id-out-of-range": (_id_out_of_range, "ids-in-range", "|V|=1024"),
}


class TestVerifyMutations:
    """``trilliong verify`` of a small ``generate`` output in each format,
    untouched and under each mutation: every mutation exits 1 naming the
    failed check, or with a one-line ``FormatError``."""

    @pytest.fixture(params=["tsv", "adj6", "csr6"])
    def output(self, request, tmp_path):
        from repro.cli import main
        fmt_name = request.param
        path = tmp_path / f"g.{fmt_name}"
        main(["generate", "--scale", "10", "--format", fmt_name,
              "--seed", "5", "--output", str(path)])
        records = [(u, vs.tolist())
                   for u, vs in get_format(fmt_name).iter_adjacency(path)]
        assert _encode(fmt_name, records, 1024) == path.read_bytes()
        return fmt_name, path, records

    @staticmethod
    def verify(fmt_name, path, capsys):
        from repro.cli import main
        code = main(["verify", "--input", str(path), "--format", fmt_name,
                     "--vertices", "1024", "--expected-edges", "16384"])
        return code, capsys.readouterr().out

    def test_the_untouched_file_passes(self, output, capsys):
        fmt_name, path, records = output
        code, out = self.verify(fmt_name, path, capsys)
        assert code == 0, out
        edges = sum(len(vs) for _, vs in records)
        assert f"edge array shape ({edges}, 2)" in out

    # A CSR6 row's source is its indptr position: records cannot swap.
    @pytest.mark.parametrize("output,name", [
        (fmt_name, name) for fmt_name in ("tsv", "adj6", "csr6")
        for name in sorted(MUTATIONS)
        if (fmt_name, name) != ("csr6", "swapped-records")],
        indirect=["output"])
    def test_a_mutation_fails_its_check(self, output, name, capsys):
        fmt_name, path, records = output
        mutate, check, detail = MUTATIONS[name]
        mutate(records)
        path.write_bytes(_encode(fmt_name, records, 1024))
        code, out = self.verify(fmt_name, path, capsys)
        failed = [line for line in out.splitlines()
                  if line.startswith("[FAIL]")]
        assert code == 1
        assert len(failed) == 1 and failed[0].startswith(
            f"[FAIL] {check}: ") and detail in failed[0], out

    def test_a_record_truncated_mid_body_exits_in_one_line(self, output,
                                                           capsys):
        fmt_name, path, _ = output
        data = path.read_bytes()
        # TSV: the last line loses its destination; binary: 3 id bytes.
        cut = data.rindex(b"\t") + 1 if fmt_name == "tsv" else len(data) - 3
        path.write_bytes(data[:cut])
        with pytest.raises(SystemExit) as exc:
            self.verify(fmt_name, path, capsys)
        message = str(exc.value.code)
        assert message.startswith("verify: ") and "\n" not in message
        assert ("truncated" in message if fmt_name != "tsv"
                else "malformed TSV line" in message)
