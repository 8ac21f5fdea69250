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
the file in bulk and falls back to the line reader for the error message
when the bulk parse refuses it."""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..core.tables import _slice_rows
from ..errors import FormatError
from .base import GraphFormat, StreamWriter, WriteResult, register_format
from .pipeline import ThreadedSink

__all__ = ["TsvFormat"]


#: Edges encoded per slice.  The lanes, the text and the lookup rows of
#: one slice stay about a MiB at scale 18 whatever the block's size, so a
#: hub block costs a few slices and not its whole text.
_SLICE_EDGES = 1 << 16


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

    def iter_adjacency(self, path: Path | str
                       ) -> Iterator[tuple[int, np.ndarray]]:
        current_u: int | None = None
        neighbours: list[int] = []
        with open(path, "r", encoding="ascii") as f:
            for line_no, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                try:
                    u_text, v_text = line.split("\t")
                    u, v = int(u_text), int(v_text)
                except ValueError as exc:
                    raise FormatError(
                        f"{path}:{line_no}: malformed TSV line "
                        f"{line!r}") from exc
                if u != current_u:
                    if current_u is not None:
                        yield current_u, np.array(neighbours,
                                                  dtype=np.int64)
                    current_u = u
                    neighbours = []
                neighbours.append(v)
        if current_u is not None:
            yield current_u, np.array(neighbours, dtype=np.int64)

    def read_edges(self, path: Path | str) -> np.ndarray:
        """Materialize the file as an ``(m, 2)`` edge array with one bulk
        parse.  Whatever the bulk parser refuses goes to the line reader,
        which either accepts it or raises the :class:`FormatError` that
        names ``path:line_no``."""
        try:
            with warnings.catch_warnings():
                # An empty file is a legal empty graph, not a warning.
                warnings.simplefilter("ignore", UserWarning)
                edges = np.loadtxt(path, dtype=np.int64, delimiter="\t",
                                   comments=None, ndmin=2,
                                   encoding="ascii")
        except (ValueError, OverflowError):
            return super().read_edges(path)
        if edges.shape[1] != 2:         # also what an empty file parses to
            return super().read_edges(path)
        return edges


register_format(TsvFormat())
