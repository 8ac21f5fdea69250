"""CSR6 — the 6-byte Compressed Sparse Row binary format (Section 5).

Layout (little-endian)::

    magic        : 4 bytes  (b"CSR6")
    num_vertices : 8 bytes (uint64)
    num_edges    : 8 bytes (uint64)
    indptr       : (num_vertices + 1) x 8 bytes (uint64 prefix sums)
    indices      : num_edges x 6 bytes (destination ids)

CSR requires vertices in order and each adjacency list sorted — which is
exactly how the AVS generator emits them, so TrillionG writes CSR6 in one
streaming pass.  The block encoder validates the ordering of a whole
:class:`~repro.core.generator.AdjacencyBlock` with vectorized
comparisons, a bounded slice of edges at a time, before any of it is
written, then hands the sink its destination ids 6-byte-packed, one
slice at a time.  The reader reads ``indptr`` and ``indices`` back a
window of vertices and a block of edges at a time.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..errors import FormatError
from ..telemetry import Stopwatch
from .base import (SIX_BYTES, GraphFormat, StreamWriter, WriteResult,
                   _bounded_rows, decode_id6, encode_id6, id6_byte_view,
                   register_format)
from .pipeline import ThreadedSink

__all__ = ["Csr6Format"]

_MAGIC = b"CSR6"
_HEADER = struct.Struct("<4sQQ")

#: Edges checked and packed per slice: 384 KiB of ids, however large
#: the block.  The reader's blocks hold at most this many edges, and it
#: reads ``indptr`` this many vertices at a time.
_SLICE_EDGES = 1 << 16


class _Csr6Writer(StreamWriter):
    """Two-section streaming writer: indices stream behind a placeholder
    header + indptr block that is backpatched on close."""

    def __init__(self, path: Path | str, num_vertices: int) -> None:
        super().__init__(path, num_vertices)
        self._degrees = np.zeros(num_vertices, dtype=np.int64)
        self._last_u = -1
        self._file = open(self.path, "wb")
        self._file.write(_HEADER.pack(_MAGIC, num_vertices, 0))
        self._file.write(b"\x00" * ((num_vertices + 1) * 8))
        self._sink = ThreadedSink(self._file)

    def _check_sources(self, sources: np.ndarray) -> None:
        if int(sources[0]) <= self._last_u or (
                sources.size > 1 and bool((np.diff(sources) <= 0).any())):
            raise FormatError(
                "CSR6 requires vertices in strictly increasing order "
                f"(block starting at {int(sources[0])} after "
                f"{self._last_u})")
        if int(sources[-1]) >= self.num_vertices:
            raise FormatError(
                f"vertex {int(sources[-1])} out of range for "
                f"|V|={self.num_vertices}")

    @staticmethod
    def _check_sorted_rows(block: AdjacencyBlock) -> None:
        """Vectorized per-row sortedness, a slice of edges at a time: a
        drop in the concatenated destinations is legal only where a row
        starts."""
        dests, offsets = block.destinations, block.offsets
        for first in range(1, dests.size, _SLICE_EDGES):
            stop = min(first + _SLICE_EDGES, dests.size)
            drops = np.flatnonzero(
                dests[first:stop] < dests[first - 1:stop - 1]) + first
            inside = drops[offsets[np.searchsorted(offsets, drops)] != drops]
            if inside.size:
                row = int(np.searchsorted(offsets, inside[0],
                                          side="right")) - 1
                raise FormatError(
                    "CSR6 requires sorted adjacency lists "
                    f"(vertex {int(block.sources[row])})")

    def add(self, vertex: int, neighbours: np.ndarray) -> None:
        if vertex <= self._last_u:
            raise FormatError(
                "CSR6 requires vertices in strictly increasing order "
                f"(got {vertex} after {self._last_u})")
        if vertex >= self.num_vertices:
            raise FormatError(
                f"vertex {vertex} out of range for "
                f"|V|={self.num_vertices}")
        vs = np.asarray(neighbours, dtype=np.int64)
        if vs.size and np.any(np.diff(vs) < 0):
            raise FormatError(
                f"CSR6 requires sorted adjacency lists (vertex {vertex})")
        self._last_u = vertex
        self._degrees[vertex] = vs.size
        self._sink.write(encode_id6(vs))
        self.num_edges += int(vs.size)

    def _encode_slices(self, block: AdjacencyBlock) -> Iterator[bytes]:
        sources = np.ascontiguousarray(block.sources, dtype=np.int64)
        if sources.size == 0:
            return
        self._check_sources(sources)
        self._check_sorted_rows(block)
        # Rejects ids outside [0, 2^48) before the first slice.
        ids = id6_byte_view(block.destinations)
        self._degrees[sources] = block.degrees
        self._last_u = int(sources[-1])
        for first in range(0, len(ids), _SLICE_EDGES):
            yield ids[first:first + _SLICE_EDGES].tobytes()

    def _finalize(self) -> WriteResult:
        # A deferred pipeline I/O error re-raises out of sink.close();
        # the handle must be released either way, but on the happy path
        # the close stays inside the backpatch watch (below) so the
        # timing decomposition is unchanged.
        try:
            self._sink.close()
            # The backpatch happens after the sink has drained, on the
            # main thread, inside the writer's open-to-close window —
            # timing it with its own watch (rather than folding it into
            # encode_seconds) keeps the check_write_result decomposition
            # exact: encode + write + backpatch are disjoint intervals.
            backpatch = Stopwatch()
            with backpatch:
                self._file.seek(0)
                self._file.write(_HEADER.pack(_MAGIC, self.num_vertices,
                                              self.num_edges))
                indptr = np.zeros(self.num_vertices + 1, dtype="<u8")
                np.cumsum(self._degrees, out=indptr[1:])
                self._file.write(indptr.tobytes())
                self._file.close()
        finally:
            if not self._file.closed:
                self._file.close()
        return self._build_result(self.path.stat().st_size,
                                  extra_write_seconds=backpatch.seconds)


class Csr6Format(GraphFormat):
    """6-byte CSR binary format."""

    name = "csr6"

    def open_writer(self, path: Path | str,
                    num_vertices: int) -> StreamWriter:
        return _Csr6Writer(path, num_vertices)

    def read_blocks(self, path: Path | str) -> Iterator[AdjacencyBlock]:
        """Two handles on the file: one reads ``indptr`` a window of
        ``_SLICE_EDGES`` vertices at a time, the other the ``indices`` of
        each block of the window's non-empty rows."""
        with open(path, "rb") as ptrs, open(path, "rb") as ids:
            num_vertices = _read_header(ptrs, path)
            ids.seek(_HEADER.size + 8 * (num_vertices + 1))
            end = 0
            for first in range(0, num_vertices, _SLICE_EDGES):
                ends = np.frombuffer(ptrs.read(8 * min(
                    _SLICE_EDGES, num_vertices - first)), dtype="<u8")
                degrees = np.diff(ends.astype(np.int64), prepend=end)
                if (degrees < 0).any():
                    raise FormatError(f"{path}: inconsistent CSR6 indptr")
                rows = np.flatnonzero(degrees)
                offsets = np.concatenate([[0], np.cumsum(degrees[rows])])
                end = int(ends[-1])
                for lo, hi in _bounded_rows(offsets, _SLICE_EDGES):
                    yield AdjacencyBlock(
                        rows[lo:hi] + first, offsets[lo:hi + 1] - offsets[lo],
                        decode_id6(ids.read(SIX_BYTES * int(
                            offsets[hi] - offsets[lo]))))

    def read_csr(self, path: Path | str) -> tuple[np.ndarray, np.ndarray]:
        """Read the raw (indptr, indices) pair."""
        with open(path, "rb") as f:
            indptr = np.zeros(_read_header(f, path) + 1, dtype=np.int64)
        indices = [np.empty(0, dtype=np.int64)]
        for block in self.read_blocks(path):
            indptr[block.sources + 1] = block.degrees
            indices.append(block.destinations)
        return np.cumsum(indptr), np.concatenate(indices)


def _read_header(f: BinaryIO, path: Path | str) -> int:
    """``|V|`` of the CSR6 file open as ``f``, once its header is checked
    against the file's size and ``indptr``'s first and last entries;
    leaves ``f`` at ``indptr[1]``."""
    head = f.read(_HEADER.size)
    if len(head) != _HEADER.size:
        raise FormatError(f"{path}: truncated CSR6 header")
    magic, num_vertices, num_edges = _HEADER.unpack(head)
    if magic != _MAGIC:
        raise FormatError(f"{path}: not a CSR6 file")
    indices_at = _HEADER.size + 8 * (num_vertices + 1)
    size = os.fstat(f.fileno()).st_size
    if size < indices_at:
        raise FormatError(f"{path}: truncated CSR6 indptr")
    if size < indices_at + SIX_BYTES * num_edges:
        raise FormatError(f"{path}: truncated CSR6 indices")
    f.seek(indices_at - 8)
    last = f.read(8)
    f.seek(_HEADER.size)
    if f.read(8) != bytes(8) or int.from_bytes(last, "little") != num_edges:
        raise FormatError(f"{path}: inconsistent CSR6 indptr")
    return num_vertices


register_format(Csr6Format())
