"""TSV — the edge-list text format (one ``source<TAB>destination`` line per
edge).  Verbose, as the paper notes (1.8x the bytes of ADJ6 at scale 18,
3-4x at paper-scale id widths), but it is the only format most generators
support, so it is the interchange default.  The block encoder builds the
bytes of an :class:`~repro.core.generator.AdjacencyBlock` directly, the
way the ADJ6 encoder does, by table lookup: every id is a row of
little-endian ``uint32`` lanes, three decimal digits per lane taken from
a small lane table, with NUL for every pad byte and the separator (tab or
newline) in the lowest lane's fourth byte.  A fixed-width row of lanes is
one line, and ``bytes.translate`` deleting the NULs turns the rows into
text in one C pass — digits, tab and newline are never NUL.  The block is
encoded a bounded slice of edges at a time and each slice's text goes to
the sink on its own, so the scratch and the text in hand stay slice-sized
however large the block is, and there is no Python object per edge.  A
block may carry a label (a rich graph's predicate), rendered once per
source after its id, which makes each line a triple.  The reader parses
a read buffer of whole lines at a time, one digit column at a time, and
the first line it refuses is named in its error."""

from __future__ import annotations

from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..core.tables import _slice_rows
from ..errors import FormatError
from .base import (GraphFormat, StreamWriter, WriteResult, _bounded_rows,
                   block_from_edges, register_format)
from .pipeline import ThreadedSink

__all__ = ["TsvFormat"]


#: Edges encoded per slice.  The lanes, the text and the lookup rows of
#: one slice stay about a MiB at scale 18 whatever the block's size, so a
#: hub block costs a few slices and not its whole text.  The reader's
#: blocks hold at most this many edges too.
_SLICE_EDGES = 1 << 16

#: Bytes the reader parses at a time: some 20 000 lines at scale 18.
#: Its scratch is about 16 bytes a byte (2^20 peaked 15 MiB higher).
_READ_BYTES = 1 << 18

_TAB, _NEWLINE, _RETURN, _ZERO = 9, 10, 13, 48

#: Digits of the widest id the reader takes: any 18 digits fit an int64.
_MAX_DIGITS = 18


def _lane_table(separator: str) -> np.ndarray:
    """Every three-digit chunk ``c`` as a little-endian ``uint32`` lane,
    twice: row ``c`` is ``c`` NUL-padded on the left (an id's leading
    lane), row ``1000 + c`` is ``c`` zero-padded (every lane below it).
    Every lane's fourth byte is ``separator``."""
    rows = [str(c).rjust(3, "\0") for c in range(1000)]
    rows += [f"{c:03d}" for c in range(1000)]
    text = "".join(row + separator for row in rows)
    return np.frombuffer(text.encode("ascii"), dtype="<u4").copy()


#: Lanes above an id's lowest one: no separator, and row 0 (a lane above
#: the id's leading digit) is all pad.  The lowest lane carries the
#: separator and keeps row 0's ``"0"``: the id 0 is one digit, not pad.
_LANES = _lane_table("\0")
_LANES[0] = 0
_TAB_LANES = _lane_table("\t")
_NEWLINE_LANES = _lane_table("\n")


def _refuse_negative(lowest: int, what: str) -> None:
    """Decimal rendering here has no sign column, and wrong digits must
    not reach the file (ADJ6/CSR6 refuse the same ids in
    :func:`~repro.formats.base.id6_byte_view`)."""
    if lowest < 0:
        raise FormatError(
            f"negative {what} id {lowest} has no TSV rendering")


def _largest_id(vertex_ids: np.ndarray, what: str) -> int:
    """Largest of the (non-empty, non-negative) ``vertex_ids``."""
    _refuse_negative(int(vertex_ids.min()), what)
    return int(vertex_ids.max())


def _lane_count(largest: int) -> int:
    """Three-digit lanes of the widest id, ``largest``."""
    return (len(str(largest)) + 2) // 3


def _render_lanes(vertex_ids: np.ndarray, largest: int,
                  lowest: np.ndarray, lanes: np.ndarray) -> None:
    """Right-aligned decimal text of non-negative ``vertex_ids`` into the
    ``uint32`` columns ``lanes``, most significant lane first, wide enough
    for ``largest``; the lowest lane comes from the table ``lowest``.

    One division by 1000 per lane below the first: the quotient is what
    the lanes above hold, so a lane whose quotient is 0 leads the id and
    takes the NUL-padded row of what is left, and every other lane the
    zero-padded row of its chunk.  In ``uint32`` when every id fits.
    """
    rest = vertex_ids.astype(np.uint32 if largest < 1 << 32 else np.uint64)
    thousand = rest.dtype.type(1000)
    table = lowest
    for col in range(lanes.shape[1] - 1, 0, -1):
        above = rest // thousand
        # rest - 1000 * (above - 1), the chunk plus 1000, when lanes above
        # hold digits; rest itself when this lane leads.  Unsigned wrap
        # cancels out: the row is always below 2000.
        row = rest + thousand
        row -= np.maximum(above, 1) * thousand
        np.take(table, row, out=lanes[:, col], mode="clip")
        table, rest = _LANES, above
    np.take(table, rest, out=lanes[:, 0], mode="clip")


def _label_lanes(label: str) -> np.ndarray:
    """``label`` and a tab as NUL-padded ``uint32`` lanes; none for no
    label.  A NUL in it would vanish from the file, so it is refused."""
    if not label:
        return np.empty(0, dtype="<u4")
    if "\0" in label:
        raise FormatError(f"label {label!r} holds a NUL byte")
    text = (label + "\t").encode("ascii")
    return np.frombuffer(text.rjust(-(-len(text) // 4) * 4, b"\0"),
                         dtype="<u4")


class _TsvWriter(StreamWriter):
    def __init__(self, path: Path | str, num_vertices: int) -> None:
        super().__init__(path, num_vertices)
        self._file = open(self.path, "wb")
        self._sink = ThreadedSink(self._file)

    def add(self, vertex: int, neighbours: np.ndarray) -> None:
        if len(neighbours) == 0:
            return
        _refuse_negative(vertex, "source")
        _refuse_negative(int(np.asarray(neighbours).min()), "destination")
        self._sink.write(
            "".join(f"{vertex}\t{v}\n" for v in neighbours).encode("ascii"))
        self.num_edges += len(neighbours)

    def add_block(self, block: AdjacencyBlock, label: str = "") -> None:
        """Append one block; with a ``label``, each line is the triple
        ``source<TAB>label<TAB>destination``."""
        self._add_slices(self._encode_slices(block, label), block.num_edges)

    def _encode_slices(self, block: AdjacencyBlock,
                       label: str = "") -> Iterator[bytes]:
        if block.num_edges == 0:
            return
        sources = np.asarray(block.sources, dtype=np.int64)
        dests = np.asarray(block.destinations, dtype=np.int64)
        offsets = block.offsets
        top_source = _largest_id(sources, "source")
        top_dest = _largest_id(dests, "destination")
        label_lanes = _label_lanes(label)
        ls = _lane_count(top_source) + label_lanes.size
        ld = _lane_count(top_dest)
        # Sources, and the label after each, are rendered once per source
        # and repeated per edge as one V(4 ls) item; destinations are
        # rendered in place.
        source_lanes = np.empty((sources.size, ls), dtype="<u4")
        _render_lanes(sources, top_source, _TAB_LANES,
                      source_lanes[:, :ls - label_lanes.size])
        source_lanes[:, ls - label_lanes.size:] = label_lanes
        source_items = source_lanes.view(f"V{4 * ls}").ravel()
        lines = np.empty((min(dests.size, _SLICE_EDGES), ls + ld),
                         dtype="<u4")
        for first in range(0, dests.size, _SLICE_EDGES):
            stop = min(first + _SLICE_EDGES, dests.size)
            lo, hi, repeats = _slice_rows(offsets, first, stop)
            rows = lines[:stop - first]
            rows[:, :ls].view(f"V{4 * ls}")[:, 0] = np.repeat(
                source_items[lo:hi], repeats)
            _render_lanes(dests[first:stop], top_dest, _NEWLINE_LANES,
                          rows[:, ls:])
            yield rows.tobytes().translate(None, b"\0")

    def _finalize(self) -> WriteResult:
        # A deferred pipeline I/O error re-raises out of sink.close();
        # the file handle must be released either way.
        try:
            self._sink.close()
        finally:
            self._file.close()
        return self._build_result(self.path.stat().st_size)


class TsvFormat(GraphFormat):
    """Plain-text edge list."""

    name = "tsv"

    def open_writer(self, path: Path | str,
                    num_vertices: int) -> _TsvWriter:
        return _TsvWriter(path, num_vertices)

    def read_blocks(self, path: Path | str) -> Iterator[AdjacencyBlock]:
        """A source's lines are a row while they run on; the last run of
        each parsed read is held until the next read shows where it ends."""
        edges = np.empty((0, 2), dtype=np.int64)
        for more in _parsed_chunks(path):
            edges = np.concatenate([edges, more])
            opens = np.flatnonzero(edges[1:, 0] != edges[:-1, 0]) + 1
            last = int(opens[-1]) if opens.size else 0
            yield from _row_blocks(edges[:last])
            edges = edges[last:]
        yield from _row_blocks(edges)


def _row_blocks(edges: np.ndarray) -> Iterator[AdjacencyBlock]:
    """:func:`block_from_edges` of ``edges``, cut into blocks of at most
    ``_SLICE_EDGES`` edges unless one row has more."""
    whole = block_from_edges(edges)
    offsets = whole.offsets
    for lo, hi in _bounded_rows(offsets, _SLICE_EDGES):
        yield AdjacencyBlock(whole.sources[lo:hi],
                             offsets[lo:hi + 1] - offsets[lo],
                             whole.destinations[offsets[lo]:offsets[hi]])


def _parsed_chunks(path: Path | str) -> Iterator[np.ndarray]:
    """The ``(m, 2)`` edges of the file's lines, one read of
    ``_READ_BYTES`` at a time, cut after its last newline; a last line
    without one ends at the end of the file."""
    lines_before, rest = 0, b""
    with open(path, "rb") as f:
        while True:
            more = f.read(_READ_BYTES)
            if not more:
                if rest:
                    yield _parse_lines(rest + b"\n", path, lines_before)
                return
            data = rest + more
            cut = data.rfind(b"\n") + 1
            if cut:
                yield _parse_lines(data[:cut], path, lines_before)
                lines_before += data.count(b"\n", 0, cut)
            rest = data[cut:]


def _parse_lines(data: bytes, path: Path | str, lines_before: int
                 ) -> np.ndarray:
    """The edges of the lines of ``data``, which ends with a newline and
    starts at the file's line ``lines_before + 1``.  A line is empty
    (skipped) or ``digits<TAB>digits``, optionally ending in a carriage
    return; any other raises the :class:`FormatError` that names
    ``path:line_no``."""
    text = np.frombuffer(data, dtype=np.uint8)
    line_ends = np.flatnonzero(text == _NEWLINE)
    line_starts = np.concatenate([[0], line_ends[:-1] + 1])
    # A CRLF line ends at its CR.
    line_ends -= ((line_ends > line_starts)
                  & (text[line_ends - 1] == _RETURN))
    filled = np.flatnonzero(line_ends > line_starts)
    starts, ends = line_starts[filled], line_ends[filled]
    marks = np.flatnonzero(text - _ZERO > 9)    # every byte but a digit
    first = np.searchsorted(marks, starts)
    tab = marks[first]
    digits = np.stack([tab - starts, ends - tab - 1])
    good = ((text[tab] == _TAB) & (np.append(marks, -1)[first + 1] == ends)
            & (digits.min(axis=0) >= 1) & (digits.max(axis=0) <= _MAX_DIGITS))
    if not good.all():
        line = int(filled[np.argmin(good)])
        raw = data[line_starts[line]:data.index(b"\n", line_starts[line])]
        raise FormatError(
            f"{path}:{lines_before + line + 1}: malformed TSV line "
            f"{raw.decode('ascii', 'replace')!r}")
    return np.column_stack([_decimal(text, starts, tab),
                            _decimal(text, tab + 1, ends)])


def _decimal(text: np.ndarray, starts: np.ndarray, stops: np.ndarray
             ) -> np.ndarray:
    """The numbers whose decimal digits are ``text[starts[i]:stops[i]]``,
    one digit column at a time, right-aligned."""
    value = np.zeros(starts.size, dtype=np.int64)
    for width in range(int((stops - starts).max(initial=0)), 0, -1):
        at = stops - width
        digit = np.take(text, at, mode="clip").astype(np.int64) - _ZERO
        value *= 10
        value += np.where(at >= starts, digit, 0)
    return value


register_format(TsvFormat())
