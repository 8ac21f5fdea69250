"""TSV — the edge-list text format (one ``source<TAB>destination`` line per
edge).  Verbose, as the paper notes (1.8x the bytes of ADJ6 at scale 18,
3-4x at paper-scale id widths), but it is the only format most generators
support, so it is the interchange default.  The block encoder builds the
bytes of an :class:`~repro.core.generator.AdjacencyBlock` directly, the
way the ADJ6 encoder does: a fixed-width ``uint8`` matrix holds one line
per row — right-aligned decimal digits of the source, a tab, the digits
of the destination, a newline — filled one digit column at a time, and a
boolean mask drops every id's leading pad, so the block costs a handful
of C passes and one ``write()`` and no Python object per edge.  The
reader parses the file in bulk and falls back to the line reader for the
error message when the bulk parse refuses it."""

from __future__ import annotations

import warnings
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..errors import FormatError
from .base import GraphFormat, StreamWriter, WriteResult, register_format
from .pipeline import ThreadedSink

__all__ = ["TsvFormat"]


_TAB, _NEWLINE, _ZERO = 0x09, 0x0A, 0x30


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


def _render_decimal(vertex_ids: np.ndarray, largest: int,
                    digits: np.ndarray, keep: np.ndarray) -> None:
    """Right-aligned ascii decimal digits of non-negative ``vertex_ids``
    into the ``uint8`` columns ``digits`` (zero-padded on the left, wide
    enough for ``largest``); ``keep`` is set where a column is part of
    the number rather than pad.

    One division per digit column over the whole array, peeling digits
    from the right; what is left of an id at a column is non-zero exactly
    when that column is not leading pad.  The loop runs in ``uint32``
    when every id fits, where numpy divides about 4x faster.
    """
    rest = vertex_ids.astype(np.uint32 if largest < 1 << 32 else np.uint64)
    ten = rest.dtype.type(10)
    last = digits.shape[1] - 1
    for col in range(last, -1, -1):
        np.not_equal(rest, 0, out=keep[:, col])
        quotient = rest // ten
        np.subtract(rest, quotient * ten, out=digits[:, col],
                    casting="unsafe")
        rest = quotient
    keep[:, last] = True                # "0" is one digit, not all pad
    digits += _ZERO


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

    def add_block(self, block: AdjacencyBlock) -> None:
        if block.num_edges == 0:
            return
        with self._encode_watch:
            buffer = self._encode_block(block)
        self._blocks_counter.inc()
        self._sink.write(buffer)
        self.num_edges += block.num_edges

    def _encode_block(self, block: AdjacencyBlock) -> np.ndarray:
        sources = np.asarray(block.sources, dtype=np.int64)
        dests = np.asarray(block.destinations, dtype=np.int64)
        degrees = block.degrees
        top_source = _largest_id(sources, "source")
        top_dest = _largest_id(dests, "destination")
        ws, wd = len(str(top_source)), len(str(top_dest))
        # One line per row: ws source digits, tab, wd destination digits,
        # newline.  Sources are rendered once per source and gathered per
        # edge; destinations are rendered in place.
        lines = np.empty((dests.size, ws + 1 + wd + 1), dtype=np.uint8)
        keep = np.empty(lines.shape, dtype=bool)
        source_digits = np.empty((sources.size, ws), dtype=np.uint8)
        source_keep = np.empty(source_digits.shape, dtype=bool)
        _render_decimal(sources, top_source, source_digits, source_keep)
        lines[:, :ws] = np.repeat(source_digits, degrees, axis=0)
        keep[:, :ws] = np.repeat(source_keep, degrees, axis=0)
        _render_decimal(dests, top_dest,
                        lines[:, ws + 1:-1], keep[:, ws + 1:-1])
        lines[:, ws] = _TAB
        lines[:, -1] = _NEWLINE
        keep[:, ws] = keep[:, -1] = True
        return lines[keep]

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
                    num_vertices: int) -> StreamWriter:
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
