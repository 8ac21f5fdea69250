"""ADJ6 — the 6-byte adjacency-list binary format (Section 5).

Record layout (little-endian), one record per vertex with degree > 0::

    vertex_id   : 6 bytes
    degree      : 4 bytes (uint32)
    neighbours  : degree x 6 bytes

ADJ6 is TrillionG's preferred format: each vertex's neighbours are
generated on the same worker, so records stream straight to disk, and the
file is 3-4x smaller than the equivalent TSV.  The block encoder
assembles every record of an :class:`~repro.core.generator.AdjacencyBlock`
into one buffer — the 10-byte headers with one fancy assignment into a
byte-window view of it, the 6-byte neighbours with one such assignment
per bounded slice of edges, so the scratch stays slice-sized however
large the block is — and emits a single ``write()`` per block.
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

#: Edges placed per pass.  The byte offsets of one slice are half a MiB,
#: so a hub block costs its encoded bytes and not block-sized offsets.
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

    def add_block(self, block: AdjacencyBlock) -> None:
        with self._encode_watch:
            buffer = self._encode_block(block)
        self._blocks_counter.inc()
        if buffer is not None:
            self._sink.write(buffer)
        self.num_edges += block.num_edges

    def _encode_block(self, block: AdjacencyBlock) -> np.ndarray | None:
        degrees = block.degrees
        mask = degrees > 0
        if not mask.any():
            return None
        sources = np.ascontiguousarray(block.sources, dtype=np.int64)[mask]
        deg = degrees[mask].astype(np.int64)
        if int(deg.max()) > _MAX_DEGREE:
            vertex = int(sources[int(np.argmax(deg))])
            raise FormatError(
                f"degree {int(deg.max())} of vertex {vertex} exceeds the "
                f"ADJ6 uint32 degree field (max {_MAX_DEGREE})")
        # The guard above makes the `<u4` degree view below a safe cast.
        dests = np.ascontiguousarray(block.destinations, dtype="<i8")
        k, m = sources.size, dests.size
        headers = np.empty((k, _HEADER_BYTES), dtype=np.uint8)
        headers[:, :SIX_BYTES] = id6_byte_view(sources)
        headers[:, SIX_BYTES:] = (
            deg.astype("<u4").view(np.uint8).reshape(-1, 4))
        # Records sit back to back: header r at byte 10 r + 6 (edges
        # before r), neighbour i of record r at byte 6 i + 10 (r + 1).
        offsets = block.offsets
        out = np.empty(_HEADER_BYTES * k + SIX_BYTES * m, dtype=np.uint8)
        _windows(out, _HEADER_BYTES)[
            _HEADER_BYTES * np.arange(k) + SIX_BYTES * offsets[:-1][mask]] = (
                headers.view(f"V{_HEADER_BYTES}")[:, 0])
        id6_byte_view(dests)  # rejects ids outside [0, 2^48)
        # Low six bytes of each `<i8`, from `dests` itself (not `.base`).
        neighbours = np.ndarray((m,), dtype=f"V{SIX_BYTES}", buffer=dests,
                                strides=(8,))
        slots = _windows(out, SIX_BYTES)
        # 10 (r + 1) per vertex, r + 1 the non-empty records up to it.
        headers_through = _HEADER_BYTES * np.cumsum(mask)
        for first in range(0, m, _SLICE_EDGES):
            stop = min(first + _SLICE_EDGES, m)
            lo, hi, inside = _slice_rows(offsets, first, stop)
            at = np.repeat(headers_through[lo:hi], inside)
            at += np.arange(SIX_BYTES * first, SIX_BYTES * stop, SIX_BYTES)
            slots[at] = neighbours[first:stop]
        return out

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
