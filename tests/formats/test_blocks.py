"""The block-streaming output path: vectorized encoders, the write
pipeline, and the context-manager / range-check satellites.

The load-bearing property is byte-identity: for every format, feeding
whole :class:`AdjacencyBlock`s through ``add_block`` (at any writer
queue depth) must produce exactly the bytes the per-vertex ``add``
fallback produces — including degree-0 vertices, empty blocks, partial
first/last blocks, and the AVS-I flipped direction.
"""

import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RecursiveVectorGenerator
from repro.core.generator import AdjacencyBlock
from repro.errors import FormatError
from repro.formats import (ThreadedSink, TsvFormat,
                           WriteResult, block_from_edges, get_format,
                           id6_byte_view, pipeline)
from repro.core import tables
from repro.formats import adj6, csr6, tsv
from repro.telemetry import Counter, Stopwatch

FORMATS = ["adj6", "csr6", "tsv"]

#: Writer queue depths: constant back-pressure, the default, never full.
QUEUE_DEPTHS = [1, 8, 64]


@pytest.fixture(scope="module")
def hub_block():
    """The scale-18 hub block (19 % of |E|) and the graph's |V|."""
    gen = RecursiveVectorGenerator(18, seed=7)
    per_block = gen.degrees().reshape(-1, gen.block_size).sum(axis=1)
    return gen.generate_block(int(per_block.argmax())), gen.num_vertices


def make_generator(scale=10, **kwargs):
    kwargs.setdefault("seed", 5)
    kwargs.setdefault("block_size", 128)
    return RecursiveVectorGenerator(scale, 8, **kwargs)


def per_vertex_bytes(fmt_name, path, blocks, num_vertices):
    """Reference output: the per-vertex ``add`` fallback."""
    writer = get_format(fmt_name).open_writer(path, num_vertices)
    with writer:
        for block in blocks:
            for u, vs in block.iter_adjacency():
                writer.add(u, vs)
    return path.read_bytes()


def block_bytes(fmt_name, path, blocks, num_vertices):
    writer = get_format(fmt_name).open_writer(path, num_vertices)
    with writer:
        for block in blocks:
            writer.add_block(block)
    return path.read_bytes()


def hand_block(sources, lists):
    counts = [len(vs) for vs in lists]
    offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    dests = (np.concatenate([np.asarray(vs, dtype=np.int64)
                             for vs in lists])
             if any(counts) else np.empty(0, dtype=np.int64))
    return AdjacencyBlock(np.array(sources, dtype=np.int64), offsets,
                          dests)


def assert_add_block_is_slice_bounded(fmt_name, module, hub_block,
                                      tmp_path, monkeypatch):
    """``add_block``'s traced peak, the sink one slice deep, is a few of
    the block's slices plus slice-sized scratch: it holds no more on a
    block four times the scale-18 hub block (808 183 edges) than on the
    hub block itself.  The writer thread may be behind by the queued
    slice and the one it writes, or not, as the interpreter schedules
    it, so the two peaks agree within 10 % or two slices."""
    hub, num_vertices = hub_block
    quadruple = AdjacencyBlock(hub.sources, 4 * hub.offsets,
                               np.repeat(hub.destinations, 4))
    monkeypatch.setattr(pipeline, "DEFAULT_PIPELINE_DEPTH", 1)
    peaks = []
    for name, block in (("hub", hub), ("quadruple", quadruple)):
        writer = get_format(fmt_name).open_writer(tmp_path / f"{name}.s",
                                                  num_vertices)
        slice_bytes = max(memoryview(piece).nbytes
                          for piece in writer._encode_slices(block))
        writer.close()
        writer = get_format(fmt_name).open_writer(tmp_path / name,
                                                  num_vertices)
        tracemalloc.start()
        try:
            writer.add_block(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            writer.close()
        assert block.num_edges > 10 * module._SLICE_EDGES
        # One slice queued, one being written, one being encoded.
        assert peak <= 3 * slice_bytes + 64 * module._SLICE_EDGES
        peaks.append(peak)
    assert abs(peaks[1] - peaks[0]) <= max(peaks[0] / 10,
                                           2 * slice_bytes), peaks


def assert_refused_before_the_first_slice(fmt_name, bad, num_vertices,
                                          tmp_path, match):
    """Write a good block, then ``bad``: ``FormatError`` naming
    ``match``, and the file holds the good block's bytes only."""
    good = hand_block([0], [[1]])
    expected = block_bytes(fmt_name, tmp_path / "good", [good],
                           num_vertices)
    writer = get_format(fmt_name).open_writer(tmp_path / "g", num_vertices)
    writer.add_block(good)
    with pytest.raises(FormatError, match=match):
        writer.add_block(bad)
    writer.close()
    assert (tmp_path / "g").read_bytes() == expected
    assert writer.result.num_edges == 1


class TestByteIdentity:
    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_generated_blocks(self, fmt_name, tmp_path):
        gen = make_generator()
        blocks = list(gen.iter_blocks())
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks,
                                    gen.num_vertices)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks,
                           gen.num_vertices) == expected

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_degree_zero_vertices(self, fmt_name, tmp_path):
        blocks = [hand_block([0, 1, 2, 3, 4],
                             [[1, 2], [], [0, 3, 4], [], []]),
                  hand_block([5, 6, 7], [[], [0], []])]
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks, 8)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks, 8) \
            == expected

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_empty_blocks(self, fmt_name, tmp_path):
        empty = hand_block([], [])
        blocks = [empty, hand_block([2], [[0, 1]]), empty]
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks, 4)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks, 4) \
            == expected

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_all_degree_zero(self, fmt_name, tmp_path):
        blocks = [hand_block([0, 1, 2], [[], [], []])]
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks, 3)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks, 3) \
            == expected

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_partial_first_and_last_blocks(self, fmt_name, tmp_path):
        """iter_blocks(start, stop) slices mid-block on both ends."""
        gen = make_generator()
        start, stop = 37, gen.num_vertices - 41
        blocks = list(gen.iter_blocks(start, stop))
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks,
                                    gen.num_vertices)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks,
                           gen.num_vertices) == expected

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_avs_in_direction(self, fmt_name, tmp_path):
        gen = make_generator(direction="in")
        blocks = list(gen.iter_blocks())
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks,
                                    gen.num_vertices)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks,
                           gen.num_vertices) == expected

    @pytest.mark.parametrize("depth", QUEUE_DEPTHS)
    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_queue_depth_equivalence(self, fmt_name, depth, tmp_path,
                                     monkeypatch):
        gen = make_generator()
        blocks = list(gen.iter_blocks())
        expected = per_vertex_bytes(fmt_name, tmp_path / "pv", blocks,
                                    gen.num_vertices)
        monkeypatch.setattr(pipeline, "DEFAULT_PIPELINE_DEPTH", depth)
        assert block_bytes(fmt_name, tmp_path / "blk", blocks,
                           gen.num_vertices) == expected

    def test_write_pairs_matches_blocks(self, tmp_path):
        """``GraphFormat.write_blocks`` over a sweep is byte-identical to
        the sweep's pairs through per-vertex ``add``, in every format."""
        gen = make_generator()
        for n in FORMATS:
            expected = per_vertex_bytes(n, tmp_path / f"p.{n}",
                                        gen.iter_blocks(), gen.num_vertices)
            get_format(n).write_blocks(tmp_path / f"b.{n}",
                                       gen.iter_blocks(), gen.num_vertices)
            assert (tmp_path / f"b.{n}").read_bytes() == expected

    def test_write_many_blocks_matches_pairs(self, tmp_path):
        """One sweep of blocks, each handed to a writer of every format
        in turn, gives each format the bytes of its per-vertex ``add``:
        no encoder alters a block another writer still has to read."""
        gen = make_generator()
        writers = {n: get_format(n).open_writer(tmp_path / f"b.{n}",
                                                gen.num_vertices)
                   for n in FORMATS}
        for block in gen.iter_blocks():
            for writer in writers.values():
                writer.add_block(block)
        for writer in writers.values():
            writer.close()
        for n in FORMATS:
            expected = per_vertex_bytes(n, tmp_path / f"p.{n}",
                                        gen.iter_blocks(), gen.num_vertices)
            assert (tmp_path / f"b.{n}").read_bytes() == expected


def tsv_text(blocks):
    """The format's definition, spelled with Python's own int → str."""
    return "".join(f"{u}\t{v}\n" for block in blocks
                   for u, vs in block.iter_adjacency()
                   for v in vs.tolist()).encode("ascii")


#: Both sides of every decimal width up to 15 digits, of the uint32
#: digit loop's limit, and the largest id the binary formats hold.
WIDTH_BOUNDARIES = sorted(
    {0, (1 << 32) - 1, 1 << 32, (1 << 48) - 1}
    | {10 ** k - 1 for k in range(1, 15)}
    | {10 ** k for k in range(1, 15)})


class TestTsvBlockEncoder:
    """The lane-table encoder against ``str(int)``: every id width, the
    pad of each lane, edge slices, and the ids it must refuse."""

    @pytest.mark.parametrize("top", WIDTH_BOUNDARIES)
    def test_one_edge_block_at_every_width_boundary(self, top, tmp_path):
        blocks = [hand_block([top], [[top]])]
        assert block_bytes("tsv", tmp_path / "g", blocks, top + 1) \
            == f"{top}\t{top}\n".encode("ascii")

    @pytest.mark.parametrize("top", WIDTH_BOUNDARIES[1:])
    def test_narrower_ids_padded_to_the_widest(self, top, tmp_path):
        """``top`` fixes the matrix width; every narrower boundary id
        beside it must lose exactly its own pad, as source and as
        destination."""
        ids = [b for b in WIDTH_BOUNDARIES if b <= top]
        blocks = [hand_block(ids, [ids] * len(ids))]
        assert block_bytes("tsv", tmp_path / "g", blocks, top + 1) \
            == tsv_text(blocks)

    def test_degree_zero_sources_between_non_empty_ones(self, tmp_path):
        # The widest source has no edge: it must not show in any line.
        blocks = [hand_block([7, 12345, 80, 999999, 100000],
                             [[3, 1000], [], [0], [], [99, 5, 10]])]
        assert block_bytes("tsv", tmp_path / "g", blocks, 10 ** 6) \
            == b"7\t3\n7\t1000\n80\t0\n100000\t99\n100000\t5\n100000\t10\n"

    def test_empty_block_writes_nothing_and_is_not_counted(self, tmp_path):
        writer = get_format("tsv").open_writer(tmp_path / "g", 4)
        writes = []
        writer._sink.write = writes.append
        writer._blocks_counter = Counter()      # format.blocks_encoded
        writer.add_block(hand_block([], []))
        writer.add_block(hand_block([0, 1], [[], []]))
        writer.close()
        assert writes == [] and writer._blocks_counter.value == 0
        assert (tmp_path / "g").read_bytes() == b""

    @pytest.mark.parametrize("direction", ["out", "in"])
    @pytest.mark.parametrize("depth", QUEUE_DEPTHS)
    def test_generated_blocks(self, direction, depth, tmp_path,
                              monkeypatch):
        monkeypatch.setattr(pipeline, "DEFAULT_PIPELINE_DEPTH", depth)
        gen = make_generator(direction=direction)
        blocks = list(gen.iter_blocks())
        assert block_bytes("tsv", tmp_path / "g", blocks,
                           gen.num_vertices) == tsv_text(blocks)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(0, (1 << 63) - 1),
                  st.lists(st.integers(0, (1 << 63) - 1), max_size=6)),
        max_size=10))
    def test_any_block(self, tmp_path_factory, records):
        blocks = [hand_block([u for u, _ in records],
                             [vs for _, vs in records])]
        path = tmp_path_factory.mktemp("tsv") / "g"
        assert block_bytes("tsv", path, blocks, 1 << 63) \
            == tsv_text(blocks)

    def test_slices_join_where_a_source_straddles_them(self, tmp_path):
        """Four slices: sources' edges cross the first and third slice
        boundaries; the second falls between two sources, on a degree-0
        one."""
        size = tsv._SLICE_EDGES
        rng = np.random.default_rng(3)

        def ids(count):
            return rng.integers(0, 10 ** rng.integers(1, 13, count))

        lists = [ids(size - 5), ids(10), [], ids(size - 5), [],
                 ids(size + 10)]
        blocks = [hand_block([3, 42, 0, 999999, 7, 10 ** 12], lists)]
        assert blocks[0].offsets.tolist() == [
            0, size - 5, size + 5, size + 5, 2 * size, 2 * size,
            3 * size + 10]
        assert block_bytes("tsv", tmp_path / "g", blocks, 10 ** 13) \
            == tsv_text(blocks)

    @pytest.mark.parametrize("slice_edges", [1, 5, 64, 97])
    def test_small_slices(self, slice_edges, tmp_path, monkeypatch):
        monkeypatch.setattr(tsv, "_SLICE_EDGES", slice_edges)
        gen = make_generator(scale=8)
        blocks = list(gen.iter_blocks())
        assert block_bytes("tsv", tmp_path / "g", blocks,
                           gen.num_vertices) == tsv_text(blocks)

    @pytest.mark.parametrize("slice_edges", [1, 5, 1 << 16])
    @pytest.mark.parametrize("labels", [["a", "bc", "def", "ghij"],
                                        ["presentedIn", "", "author"]])
    def test_labelled_blocks_are_triples(self, labels, slice_edges,
                                         tmp_path, monkeypatch):
        """A label of every length modulo 4 (its lanes' pad) between the
        ids, at slice joins; no label is the plain edge list."""
        monkeypatch.setattr(tsv, "_SLICE_EDGES", slice_edges)
        gen = make_generator(scale=8)
        blocks = list(gen.iter_blocks())
        writer = get_format("tsv").open_writer(tmp_path / "g", 256)
        with writer:
            for i, block in enumerate(blocks):
                writer.add_block(block, label=labels[i % len(labels)])
        expected = "".join(
            f"{u}\t{labels[i % len(labels)]}\t{v}\n"
            if labels[i % len(labels)] else f"{u}\t{v}\n"
            for i, block in enumerate(blocks)
            for u, vs in block.iter_adjacency() for v in vs.tolist())
        assert (tmp_path / "g").read_bytes() == expected.encode("ascii")
        assert writer.result.num_edges == sum(b.num_edges for b in blocks)

    def test_label_with_a_nul_is_refused(self, tmp_path):
        writer = get_format("tsv").open_writer(tmp_path / "g", 4)
        with pytest.raises(FormatError, match="NUL"):
            writer.add_block(hand_block([1], [[2]]), label="a\0b")
        writer.close()
        assert (tmp_path / "g").read_bytes() == b""

    def test_hub_block_scratch_is_bounded_by_the_slice(
            self, hub_block, tmp_path, monkeypatch):
        assert_add_block_is_slice_bounded("tsv", tsv, hub_block, tmp_path,
                                          monkeypatch)

    @pytest.mark.parametrize("sources,lists", [
        ([3, -4], [[1, 5, 6], [2]]),
        ([3, 4], [[1, 5], [2, -1]]),
    ])
    def test_negative_id_is_refused_before_anything_is_written(
            self, sources, lists, tmp_path, monkeypatch):
        """One edge a slice: the negative id is in the block's last."""
        monkeypatch.setattr(tsv, "_SLICE_EDGES", 1)
        good = hand_block([1], [[2]])
        bad = hand_block(sources, lists)
        writer = get_format("tsv").open_writer(tmp_path / "blk", 8)
        writer.add_block(good)
        with pytest.raises(FormatError, match="negative"):
            writer.add_block(bad)
        writer.close()
        assert (tmp_path / "blk").read_bytes() == b"1\t2\n"
        assert writer.result.num_edges == 1

        writer = get_format("tsv").open_writer(tmp_path / "pv", 8)
        writer.add(1, np.array([2], dtype=np.int64))
        with pytest.raises(FormatError, match="negative"):
            for u, vs in bad.iter_adjacency():
                writer.add(u, vs)
        writer.close()
        # Per-vertex granularity: the adjacency before the bad one stays.
        assert (tmp_path / "pv").read_bytes().startswith(b"1\t2\n")
        assert b"-" not in (tmp_path / "pv").read_bytes()


class TestAdj6BlockEncoder:
    """The neighbours are placed a bounded slice of edges at a time into
    the one output buffer: any slice size writes the per-vertex bytes."""

    @pytest.mark.parametrize("slice_edges", [1, 5, 97])
    def test_small_slices(self, slice_edges, tmp_path, monkeypatch):
        monkeypatch.setattr(adj6, "_SLICE_EDGES", slice_edges)
        gen = make_generator(scale=8)
        blocks = list(gen.iter_blocks())
        blocks.append(hand_block([3, 42, 0, 999999, 7, 10 ** 12],
                                 [range(150), range(10), [], range(94),
                                  [], range(200)]))
        expected = per_vertex_bytes("adj6", tmp_path / "pv", blocks,
                                    10 ** 13)
        assert block_bytes("adj6", tmp_path / "blk", blocks, 10 ** 13) \
            == expected

    def test_hub_block_scratch_is_bounded_by_the_slice(
            self, hub_block, tmp_path, monkeypatch):
        assert_add_block_is_slice_bounded("adj6", adj6, hub_block,
                                          tmp_path, monkeypatch)

    @pytest.mark.parametrize("bad,match", [
        (hand_block([3, 4], [range(5), [6, 7, 1 << 48]]), "6-byte range"),
        (hand_block([3, 4], [range(5), [6, 7, -1]]), "6-byte range"),
        (AdjacencyBlock(np.array([3, 4, 5], dtype=np.int64),
                        np.array([0, 5, 8, 9 + (1 << 32)], dtype=np.int64),
                        np.broadcast_to(np.int64(0), (9 + (1 << 32),))),
         "degree 4294967297 of vertex 5"),
    ])
    def test_bad_block_is_refused_before_its_first_slice(
            self, bad, match, tmp_path, monkeypatch):
        """Slices of two edges; what is wrong is in the last one."""
        monkeypatch.setattr(adj6, "_SLICE_EDGES", 2)
        assert_refused_before_the_first_slice("adj6", bad, 1 << 20,
                                              tmp_path, match)


@pytest.mark.parametrize("fmt_name", FORMATS)
def test_slice_sizes_change_no_byte_of_a_graph(fmt_name, tmp_path,
                                               monkeypatch):
    """The kernel draws, dedups and merges its keys, and the encoders
    place them, a slice at a time; a small odd slice everywhere writes
    the scale-12 graph byte for byte."""
    def write(path):
        gen = RecursiveVectorGenerator(12, seed=3)
        get_format(fmt_name).write_blocks(path, gen.iter_blocks(),
                                          gen.num_vertices)
        return path.read_bytes()

    expected = write(tmp_path / "whole")
    for module, name in ((tables, "_SLICE_KEYS"), (adj6, "_SLICE_EDGES"),
                         (csr6, "_SLICE_EDGES"), (tsv, "_SLICE_EDGES")):
        assert getattr(module, name) == 1 << 16
        monkeypatch.setattr(module, name, 97)
    assert write(tmp_path / "sliced") == expected


class TestTsvBulkRead:
    """``TsvFormat`` parses a read buffer of lines at a time, vectorized;
    a per-line reference parser is the authority on what a valid file is
    (an empty line, or ``digits<TAB>digits`` with an optional CR) and on
    the error text."""

    @staticmethod
    def line_reader(path):
        rows = []
        data = path.read_bytes()
        lines = data.split(b"\n")
        if lines[-1] == b"":
            lines.pop()
        for line_no, raw in enumerate(lines, 1):
            line = raw[:-1] if raw.endswith(b"\r") else raw
            if not line:
                continue
            match = re.fullmatch(rb"([0-9]{1,18})\t([0-9]{1,18})", line)
            if match is None:
                raise FormatError(
                    f"{path}:{line_no}: malformed TSV line "
                    f"{raw.decode('ascii', 'replace')!r}")
            rows.append([int(match[1]), int(match[2])])
        return np.array(rows, dtype=np.int64).reshape(-1, 2)

    @settings(max_examples=300, deadline=None)
    @given(text=st.text(alphabet="0123456789\t\n\r x", max_size=60),
           read_bytes=st.integers(1, 16))
    def test_any_text_reads_as_the_line_reader_reads_it(
            self, text, read_bytes, tmp_path_factory):
        """Short reads cut lines and runs anywhere; the edges or the
        error are the line reader's."""
        path = tmp_path_factory.mktemp("tsv") / "g.tsv"
        path.write_bytes(text.encode("ascii"))
        try:
            expected = self.line_reader(path)
        except FormatError as exc:
            expected = str(exc)
        saved = tsv._READ_BYTES, tsv._SLICE_EDGES
        tsv._READ_BYTES, tsv._SLICE_EDGES = read_bytes, 2
        try:
            got = TsvFormat().read_edges(path)
        except FormatError as exc:
            got = str(exc)
        finally:
            tsv._READ_BYTES, tsv._SLICE_EDGES = saved
        if isinstance(expected, str):
            assert got == expected
        else:
            assert np.array_equal(got, expected)

    def test_equals_line_reader_on_generated_file(self, tmp_path):
        gen = make_generator(scale=12)
        path = tmp_path / "g.tsv"
        get_format("tsv").write_blocks(path, gen.iter_blocks(),
                                       gen.num_vertices)
        bulk = TsvFormat().read_edges(path)
        assert bulk.dtype == np.int64 and bulk.shape[0] > 30000
        assert np.array_equal(bulk, self.line_reader(path))

    @pytest.mark.parametrize("text,expected", [
        ("", []),
        ("\n\n", []),
        ("1\t2\n\n1\t3\n", [[1, 2], [1, 3]]),
        ("1\t2\n3\t4", [[1, 2], [3, 4]]),
        ("5\t6\n", [[5, 6]]),
    ])
    def test_blank_lines_and_empty_files(self, text, expected, tmp_path):
        path = tmp_path / "g.tsv"
        path.write_text(text)
        edges = TsvFormat().read_edges(path)
        assert edges.shape == (len(expected), 2)
        assert edges.dtype == np.int64
        assert edges.tolist() == expected

    @pytest.mark.parametrize("text", [
        "1\t2\n3\t4\n5\t",            # truncated mid-line
        "1\t2\nzero\tone\n",           # non-numeric
        "1\t2\t3\n",                    # too many columns
        "1\t2\n1\t2\t3\n",            # ... on a later line only
        "7\n",                           # too few
        "1\t2\n# 3\t4\n",              # no comment syntax in TSV
    ])
    def test_corrupt_file_raises_the_line_readers_error(self, text,
                                                        tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(text)
        with pytest.raises(FormatError) as from_lines:
            self.line_reader(path)
        with pytest.raises(FormatError) as from_bulk:
            TsvFormat().read_edges(path)
        assert str(from_bulk.value) == str(from_lines.value)
        assert f"{path}:" in str(from_bulk.value)


class TestBlockHelpers:
    def test_block_from_edges_groups_sources(self):
        edges = np.array([[0, 1], [0, 2], [2, 0], [5, 3]], dtype=np.int64)
        block = block_from_edges(edges)
        assert block.sources.tolist() == [0, 2, 5]
        assert block.offsets.tolist() == [0, 2, 3, 4]
        assert block.destinations.tolist() == [1, 2, 0, 3]

    def test_block_from_edges_empty(self):
        block = block_from_edges(np.empty((0, 2), dtype=np.int64))
        assert block.sources.size == 0
        assert block.num_edges == 0

    def test_id6_byte_view_rejects_out_of_range(self):
        with pytest.raises(FormatError):
            id6_byte_view(np.array([1 << 48], dtype=np.int64))
        with pytest.raises(FormatError):
            id6_byte_view(np.array([-1], dtype=np.int64))


class TestWriterContract:
    def test_exit_records_result_on_normal_path(self, tmp_path):
        """Satellite: the WriteResult of a ``with`` block is never lost."""
        writer = get_format("adj6").open_writer(tmp_path / "g.adj6", 4)
        with writer:
            writer.add(0, np.array([1, 2], dtype=np.int64))
        assert isinstance(writer.result, WriteResult)
        assert writer.result.num_edges == 2
        assert writer.result.bytes_written == \
            (tmp_path / "g.adj6").stat().st_size

    @pytest.mark.parametrize("fmt_name", FORMATS)
    def test_close_idempotent(self, fmt_name, tmp_path):
        writer = get_format(fmt_name).open_writer(tmp_path / "g", 4)
        writer.add(1, np.array([0, 2], dtype=np.int64))
        first = writer.close()
        assert writer.close() is first

    def test_exit_preserves_inflight_exception(self, tmp_path):
        with pytest.raises(RuntimeError, match="boom"):
            with get_format("adj6").open_writer(tmp_path / "g", 4) as w:
                w.add(0, np.array([1], dtype=np.int64))
                raise RuntimeError("boom")

    def test_throughput_fields_populated(self, tmp_path):
        gen = make_generator()
        result = get_format("adj6").write_blocks(
            tmp_path / "g.adj6", gen.iter_blocks(), gen.num_vertices)
        assert result.elapsed_seconds > 0
        assert result.edges_per_second > 0
        assert result.bytes_per_second > 0
        assert result.encode_seconds >= 0
        # Encode and write each fit inside the writer's open-to-close
        # window; they overlap (the write runs on the sink thread), so
        # only the per-component bounds hold, not their sum.
        assert result.encode_seconds <= result.elapsed_seconds
        assert 0 <= result.write_seconds <= result.elapsed_seconds

    def test_untimed_result_reports_zero_throughput(self, tmp_path):
        result = WriteResult(tmp_path / "x", 1, 10, 100)
        assert result.edges_per_second == 0.0
        assert result.bytes_per_second == 0.0


class TestDegreeRange:
    def test_add_rejects_degree_over_uint32(self, tmp_path):
        writer = get_format("adj6").open_writer(tmp_path / "g", 4)
        huge = np.broadcast_to(np.int64(0), ((1 << 32) + 1,))
        with pytest.raises(FormatError, match="degree"):
            writer.add(0, huge)
        writer.close()

    def test_add_block_rejects_degree_over_uint32(self, tmp_path):
        n = (1 << 32) + 1
        block = AdjacencyBlock(
            np.array([3], dtype=np.int64),
            np.array([0, n], dtype=np.int64),
            np.broadcast_to(np.int64(0), (n,)))
        writer = get_format("adj6").open_writer(tmp_path / "g", 4)
        with pytest.raises(FormatError, match="vertex 3"):
            writer.add_block(block)
        writer.close()


class TestCsr6BlockValidation:
    def test_rejects_unsorted_row_inside_block(self, tmp_path):
        block = hand_block([0, 1], [[2, 1], [0]])
        writer = get_format("csr6").open_writer(tmp_path / "g", 4)
        with pytest.raises(FormatError, match="vertex 0"):
            writer.add_block(block)
        writer.close()

    def test_allows_descent_at_row_boundary(self, tmp_path):
        # 0 -> [5, 7], 1 -> [2]: the 7 -> 2 drop is a legal boundary.
        block = hand_block([0, 1], [[5, 7], [2]])
        writer = get_format("csr6").open_writer(tmp_path / "g.csr6", 8)
        writer.add_block(block)
        writer.close()
        indptr, indices = get_format("csr6").read_csr(tmp_path / "g.csr6")
        assert indices.tolist() == [5, 7, 2]

    def test_rejects_nonincreasing_sources_across_blocks(self, tmp_path):
        writer = get_format("csr6").open_writer(tmp_path / "g", 8)
        writer.add_block(hand_block([4], [[1]]))
        with pytest.raises(FormatError, match="increasing"):
            writer.add_block(hand_block([4], [[2]]))
        writer.close()

    def test_rejects_out_of_range_vertex(self, tmp_path):
        writer = get_format("csr6").open_writer(tmp_path / "g", 4)
        with pytest.raises(FormatError, match="range"):
            writer.add_block(hand_block([9], [[0]]))
        writer.close()

    @pytest.mark.parametrize("slice_edges", [1, 5, 97])
    def test_small_slices(self, slice_edges, tmp_path, monkeypatch):
        monkeypatch.setattr(csr6, "_SLICE_EDGES", slice_edges)
        gen = make_generator(scale=8)
        blocks = list(gen.iter_blocks())
        blocks.append(hand_block([1 << 8, 300, 301, 400],
                                 [range(150), [], range(94), range(200)]))
        expected = per_vertex_bytes("csr6", tmp_path / "pv", blocks, 401)
        assert block_bytes("csr6", tmp_path / "blk", blocks, 401) \
            == expected

    def test_hub_block_scratch_is_bounded_by_the_slice(
            self, hub_block, tmp_path, monkeypatch):
        assert_add_block_is_slice_bounded("csr6", csr6, hub_block,
                                          tmp_path, monkeypatch)

    @pytest.mark.parametrize("bad,match", [
        (hand_block([3, 4], [range(5), [6, 7, 1 << 48]]), "6-byte range"),
        (hand_block([3, 4], [range(5), [6, 8, 7]]), "vertex 4"),
        (hand_block([3, 4, 5], [range(5), [6, 7], [9, 8]]), "vertex 5"),
    ])
    def test_bad_block_is_refused_before_its_first_slice(
            self, bad, match, tmp_path, monkeypatch):
        """Slices of two edges; what is wrong is in the last one."""
        monkeypatch.setattr(csr6, "_SLICE_EDGES", 2)
        assert_refused_before_the_first_slice("csr6", bad, 8, tmp_path,
                                              match)

    def test_leading_degree_zero_rows(self, tmp_path):
        # Regression: boundary mask must not wrap around offsets[1:]-1
        # when the first rows are empty.
        block = hand_block([0, 1, 2], [[], [], [3, 1]])
        writer = get_format("csr6").open_writer(tmp_path / "g", 4)
        with pytest.raises(FormatError, match="vertex 2"):
            writer.add_block(block)
        writer.close()


class TestThreadedSink:
    def test_write_error_reraised_to_producer(self, tmp_path):
        path = tmp_path / "f.bin"
        handle = open(path, "wb")
        sink = ThreadedSink(handle, depth=2)
        handle.close()                      # next write hits a dead file
        with pytest.raises(ValueError):
            for _ in range(100):            # must not deadlock
                sink.write(b"x")
                sink.drain()
        sink.close()

    def test_any_write_error_reaches_the_producer(self):
        """Not only OSError/ValueError: whatever ``file.write`` raises
        must neither kill the writer thread silently (a short file
        behind a clean ``close()``) nor leave the producer blocked on a
        full queue nobody drains."""

        class SecondWriteFails:
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise TypeError("not bytes-like (injected)")

        raised = []

        def produce():
            # Five submissions against depth 1: more than fit in the
            # queue if the writer thread died on the second.  The error
            # surfaces from a later write() or from close(), whichever
            # comes first.
            sink = ThreadedSink(SecondWriteFails(), depth=1)
            try:
                for _ in range(5):
                    sink.write(b"x")
            except TypeError as exc:
                raised.append(exc)
            try:
                sink.close()
            except TypeError as exc:
                raised.append(exc)

        producer = threading.Thread(target=produce, daemon=True)
        producer.start()
        producer.join(timeout=10)
        assert not producer.is_alive(), \
            "producer deadlocked behind a dead writer thread"
        assert [str(exc) for exc in raised] == \
            ["not bytes-like (injected)"]

    def test_writer_never_writes_after_its_first_failure(self):
        """Once the producer has collected the writer's error, buffers
        still queued behind the failed one must not reach the file: a
        file holding ``A, C, D`` with ``B`` missing is a silently wrong
        graph."""
        all_queued = threading.Event()
        paused = threading.Event()
        resume = threading.Event()
        written: list[bytes] = []

        class SecondWriteFails:
            writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 1:
                    all_queued.wait(10)
                if self.writes == 2:
                    raise OSError("disk full")
                written.append(bytes(data))

        file = SecondWriteFails()
        sink = ThreadedSink(file, depth=8)

        class PauseAfterFailure(Stopwatch):
            """Holds the writer thread right after the failed write."""

            def stop(self):
                seconds = super().stop()
                if (threading.current_thread() is sink._thread
                        and file.writes == 2 and not paused.is_set()):
                    paused.set()
                    resume.wait(10)
                return seconds

        sink._watch = PauseAfterFailure()
        for buffer in (b"A", b"B", b"C", b"D"):
            sink.write(buffer)
        all_queued.set()
        assert paused.wait(10)
        raised = []
        try:
            sink.write(b"E")
        except OSError as exc:
            raised.append(exc)
        resume.set()
        try:
            sink.close()
        except OSError as exc:
            raised.append(exc)
        assert written == [b"A"]
        assert [str(exc) for exc in raised][:1] == ["disk full"]

    def test_write_after_close_rejected(self, tmp_path):
        with open(tmp_path / "f.bin", "wb") as handle:
            sink = ThreadedSink(handle, depth=2)
            sink.close()
            with pytest.raises(ValueError):
                sink.write(b"x")

    def test_preserves_order(self, tmp_path):
        path = tmp_path / "f.bin"
        with open(path, "wb") as handle:
            sink = ThreadedSink(handle, depth=3)
            for i in range(50):
                sink.write(bytes([i]))
            sink.close()
            assert not sink._thread.is_alive()
        assert path.read_bytes() == bytes(range(50))
