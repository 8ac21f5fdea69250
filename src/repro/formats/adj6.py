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
in hand stay slice-sized however large the block is.  The reader is the
mirror: it walks the record headers over a read buffer and gathers a
block's ids through the same byte windows.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..core.tables import _slice_rows
from ..errors import FormatError
from .base import (SIX_BYTES, GraphFormat, StreamWriter, WriteResult,
                   _id6_values, encode_id6, id6_byte_view, register_format)
from .pipeline import ThreadedSink

__all__ = ["Adj6Format"]

_DEGREE = struct.Struct("<I")
_MAX_DEGREE = 0xFFFFFFFF
_HEADER_BYTES = SIX_BYTES + _DEGREE.size

#: Edges placed per slice.  The byte offsets of one slice are half a MiB,
#: so a hub block costs a few slices and not its whole record buffer.
#: The reader's blocks hold at most this many edges too.
_SLICE_EDGES = 1 << 16

#: Bytes the reader asks the file for at a time: some 2^17 ids at 16
#: edges a record, so most blocks end at ``_SLICE_EDGES``.
_READ_BYTES = 1 << 20


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

    def read_blocks(self, path: Path | str) -> Iterator[AdjacencyBlock]:
        """Walk the record headers over a read buffer, a block's records
        at a time, then gather the block's ids through byte windows in
        one pass.  A record longer than the buffer is read whole."""
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            data, pos = b"", 0
            while True:
                starts: list[int] = []
                degrees: list[int] = []
                edges, wanted = 0, pos + _HEADER_BYTES
                while wanted <= len(data):
                    (degree,) = _DEGREE.unpack_from(data,
                                                    wanted - _DEGREE.size)
                    if starts and edges + degree > _SLICE_EDGES:
                        break
                    wanted += SIX_BYTES * degree
                    if wanted > len(data):
                        break
                    starts.append(pos)
                    degrees.append(degree)
                    edges += degree
                    pos, wanted = wanted, wanted + _HEADER_BYTES
                if starts:
                    yield _records_block(data, starts, degrees)
                    continue
                # Never more than the file holds: a corrupt degree field
                # must not size the read.
                more = f.read(min(max(_READ_BYTES, wanted - len(data)),
                                  size - f.tell()))
                if not more:
                    if pos < len(data):
                        part = ("head" if len(data) - pos < _HEADER_BYTES
                                else "body")
                        raise FormatError(
                            f"{path}: truncated ADJ6 record {part}")
                    return
                data, pos = data[pos:] + more, 0


def _records_block(data: bytes, starts: list[int], degrees: list[int]
                   ) -> AdjacencyBlock:
    """The block of the whole records of ``data`` that begin at byte
    ``starts`` and hold ``degrees`` ids each."""
    windows = _windows(np.frombuffer(data, dtype=np.uint8), SIX_BYTES)
    heads = np.array(starts, dtype=np.int64)
    offsets = np.zeros(heads.size + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    # Neighbour i of the record at byte h sits at h + 10 + 6 i.
    at = np.repeat(heads + _HEADER_BYTES - SIX_BYTES * offsets[:-1],
                   degrees)
    at += np.arange(0, SIX_BYTES * int(offsets[-1]), SIX_BYTES)
    return AdjacencyBlock(_id6_values(windows[heads]), offsets,
                          _id6_values(windows[at]))


register_format(Adj6Format())
