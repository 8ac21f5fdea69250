"""ADJ6 — the 6-byte adjacency-list binary format (Section 5).

Record layout (little-endian), one record per vertex with degree > 0::

    vertex_id   : 6 bytes
    degree      : 4 bytes (uint32)
    neighbours  : degree x 6 bytes

ADJ6 is TrillionG's preferred format: each vertex's neighbours are
generated on the same worker, so records stream straight to disk, and the
file is 3-4x smaller than the equivalent TSV.  The block encoder
assembles the records of an :class:`~repro.core.generator.AdjacencyBlock`
one bounded slice of edges at a time: a slice's buffer holds its 6-byte
neighbours and the 10-byte header of every record whose first edge falls
in it, each placed with one fancy assignment into a byte-window view of
the buffer, and goes to the sink on its own.  The scratch and the bytes
in hand stay slice-sized however large the block is.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..core.tables import _slice_rows
from ..errors import FormatError
from .base import (SIX_BYTES, GraphFormat, StreamWriter, WriteResult,
                   decode_id6, encode_id6, id6_byte_view, register_format)
from .pipeline import ThreadedSink

__all__ = ["Adj6Format"]

_DEGREE = struct.Struct("<I")
_MAX_DEGREE = 0xFFFFFFFF
_HEADER_BYTES = SIX_BYTES + _DEGREE.size

#: Edges placed per slice.  The byte offsets of one slice are half a MiB,
#: so a hub block costs a few slices and not its whole record buffer.
_SLICE_EDGES = 1 << 16


def _windows(out: np.ndarray, width: int) -> np.ndarray:
    """``out``'s ``width``-byte windows: item ``j`` is bytes ``[j, j + width)``."""
    return np.ndarray(shape=(out.size - width + 1,), dtype=f"V{width}",
                      buffer=out, strides=(1,))


class _Adj6Writer(StreamWriter):
    def __init__(self, path: Path | str, num_vertices: int) -> None:
        super().__init__(path, num_vertices)
        self._file = open(self.path, "wb")
        self._sink = ThreadedSink(self._file)

    def add(self, vertex: int, neighbours: np.ndarray) -> None:
        degree = len(neighbours)
        if degree == 0:
            return
        if degree > _MAX_DEGREE:
            raise FormatError(
                f"degree {degree} of vertex {vertex} exceeds the ADJ6 "
                f"uint32 degree field (max {_MAX_DEGREE})")
        self._sink.write(
            encode_id6(np.array([vertex], dtype=np.int64))
            + _DEGREE.pack(degree)
            + encode_id6(np.asarray(neighbours, dtype=np.int64)))
        self.num_edges += degree

    def _encode_slices(self, block: AdjacencyBlock
                       ) -> Iterator[np.ndarray]:
        degrees = block.degrees
        mask = degrees > 0
        if not mask.any():
            return
        sources = np.ascontiguousarray(block.sources, dtype=np.int64)[mask]
        deg = degrees[mask].astype(np.int64)
        if int(deg.max()) > _MAX_DEGREE:
            vertex = int(sources[int(np.argmax(deg))])
            raise FormatError(
                f"degree {int(deg.max())} of vertex {vertex} exceeds the "
                f"ADJ6 uint32 degree field (max {_MAX_DEGREE})")
        # The guard above makes the `<u4` degree view below a safe cast.
        headers = np.empty((sources.size, _HEADER_BYTES), dtype=np.uint8)
        headers[:, :SIX_BYTES] = id6_byte_view(sources)
        headers[:, SIX_BYTES:] = (
            deg.astype("<u4").view(np.uint8).reshape(-1, 4))
        header_items = headers.view(f"V{_HEADER_BYTES}")[:, 0]
        dests = np.ascontiguousarray(block.destinations, dtype="<i8")
        id6_byte_view(dests)  # rejects ids outside [0, 2^48)
        # Low six bytes of each `<i8`, from `dests` itself (not `.base`).
        neighbours = np.ndarray((dests.size,), dtype=f"V{SIX_BYTES}",
                                buffer=dests, strides=(8,))
        # Records sit back to back: header r at byte 10 r + 6 (edges
        # before r), neighbour i of record r at byte 6 i + 10 (r + 1).
        # A slice of edges [first, stop) is the bytes from 10 h0 + 6 first
        # on, h0 the records that start before it: its neighbours and the
        # headers of the records that start inside it.
        offsets = block.offsets
        starts = offsets[:-1][mask]
        # 10 (r + 1) per vertex, r + 1 the non-empty records up to it.
        headers_through = _HEADER_BYTES * np.cumsum(mask)
        for first in range(0, dests.size, _SLICE_EDGES):
            stop = min(first + _SLICE_EDGES, dests.size)
            h0, h1 = np.searchsorted(starts, (first, stop)).tolist()
            out = np.empty(_HEADER_BYTES * (h1 - h0)
                           + SIX_BYTES * (stop - first), dtype=np.uint8)
            if h1 > h0:     # else out may be narrower than one header
                _windows(out, _HEADER_BYTES)[
                    _HEADER_BYTES * np.arange(h1 - h0)
                    + SIX_BYTES * (starts[h0:h1] - first)] = (
                        header_items[h0:h1])
            lo, hi, inside = _slice_rows(offsets, first, stop)
            at = np.repeat(headers_through[lo:hi] - _HEADER_BYTES * h0,
                           inside)
            at += np.arange(0, SIX_BYTES * (stop - first), SIX_BYTES)
            _windows(out, SIX_BYTES)[at] = neighbours[first:stop]
            yield out

    def _finalize(self) -> WriteResult:
        # A deferred pipeline I/O error re-raises out of sink.close();
        # the file handle must be released either way.
        try:
            self._sink.close()
        finally:
            self._file.close()
        return self._build_result(self.path.stat().st_size)


class Adj6Format(GraphFormat):
    """6-byte adjacency-list binary format."""

    name = "adj6"

    def open_writer(self, path: Path | str,
                    num_vertices: int) -> StreamWriter:
        return _Adj6Writer(path, num_vertices)

    def iter_adjacency(self, path: Path | str
                       ) -> Iterator[tuple[int, np.ndarray]]:
        with open(path, "rb") as f:
            while True:
                head = f.read(SIX_BYTES + _DEGREE.size)
                if not head:
                    return
                if len(head) != SIX_BYTES + _DEGREE.size:
                    raise FormatError(f"{path}: truncated ADJ6 record head")
                u = int(decode_id6(head[:SIX_BYTES])[0])
                (degree,) = _DEGREE.unpack(head[SIX_BYTES:])
                body = f.read(degree * SIX_BYTES)
                if len(body) != degree * SIX_BYTES:
                    raise FormatError(f"{path}: truncated ADJ6 record body")
                yield u, decode_id6(body)


register_format(Adj6Format())
