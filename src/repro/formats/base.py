"""Graph output format framework (Section 5).

TrillionG supports three formats: the edge-list text format (TSV), the
6-byte adjacency-list binary format (ADJ6), and the 6-byte Compressed
Sparse Row binary format (CSR6).  The unit of the write path is the
:class:`~repro.core.generator.AdjacencyBlock` — the CSR-like triplet the
AVS engines produce natively — and a block is encoded with vectorized
numpy buffer assembly a bounded slice of edges at a time, each slice
handed to the background writer as soon as it is encoded, so nothing
block-sized is built on the way to disk (see ``docs/formats.md``).
:meth:`StreamWriter.add` writes one ``(vertex, neighbours)`` pair: the
per-vertex byte reference every block encoder is tested against.
The read side mirrors the write side: :meth:`GraphFormat.read_blocks`
streams a file back as blocks of whole sources, and every other reader
(``iter_adjacency``, ``read_edges``, ``trilliong verify``) is built on it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core import tables
from ..core.generator import AdjacencyBlock
from ..errors import FormatError
from ..telemetry import Stopwatch, registry, span
from .pipeline import ThreadedSink

__all__ = ["WriteResult", "GraphFormat", "StreamWriter", "register_format",
           "get_format", "available_formats", "SIX_BYTES", "encode_id6",
           "decode_id6", "id6_byte_view", "block_from_edges",
           "blocks_from_sorted_keys"]

#: Width of a vertex ID in the binary formats.  6 bytes covers 2^48
#: vertices — the paper's minimum for trillion-scale graphs.
SIX_BYTES = 6


@dataclass(frozen=True)
class WriteResult:
    """Outcome of writing a graph file, with throughput observability.

    ``encode_seconds`` is wall time spent turning adjacency into format
    bytes; ``write_seconds`` is wall time inside ``file.write`` (measured
    in the background writer thread, so encode and write time may
    overlap); ``elapsed_seconds`` is writer-open to close.
    """

    path: Path
    num_vertices: int
    num_edges: int
    bytes_written: int
    encode_seconds: float = 0.0
    write_seconds: float = 0.0
    elapsed_seconds: float = 0.0

    @property
    def edges_per_second(self) -> float:
        """Edge throughput over the writer's lifetime (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.num_edges / self.elapsed_seconds

    @property
    def bytes_per_second(self) -> float:
        """Byte throughput over the writer's lifetime (0 when untimed)."""
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.bytes_written / self.elapsed_seconds


class StreamWriter(ABC):
    """Incremental writer: feed whole :class:`AdjacencyBlock`s (fast
    path) or ``(vertex, neighbours)`` pairs (the per-vertex byte
    reference), then :meth:`close` to finalize the file.

    ``close`` is idempotent; the first call finalizes the file and
    caches its :class:`WriteResult` in :attr:`result`, which
    context-manager use also populates so the outcome of a ``with``
    block is never lost.
    """

    #: The ordered background writer every encoded slice goes to.
    _sink: ThreadedSink

    def __init__(self, path: Path | str, num_vertices: int) -> None:
        self.path = Path(path)
        self.num_vertices = num_vertices
        self.num_edges = 0
        #: Set by the first :meth:`close` (including via ``with``).
        self.result: WriteResult | None = None
        #: Accumulates wall time spent encoding blocks into format
        #: bytes; format writers wrap their encoders in
        #: ``with self._encode_watch:``.
        self._encode_watch = Stopwatch()
        #: Open-to-close wall time; stopped by :meth:`_build_result`.
        self._elapsed_watch = Stopwatch().start()
        self._blocks_counter = registry().counter("format.blocks_encoded")

    @property
    def encode_seconds(self) -> float:
        """Wall time spent encoding blocks into format bytes."""
        return self._encode_watch.seconds

    @abstractmethod
    def add(self, vertex: int, neighbours: np.ndarray) -> None:
        """Append one vertex's adjacency (per-vertex fallback path)."""

    def add_block(self, block: AdjacencyBlock) -> None:
        """Append one generated block, a bounded slice at a time.

        Each slice of :meth:`_encode_slices` goes to the sink as soon as
        it is encoded, so nothing block-sized is built; only the
        ``next()`` calls are timed as encoding, never the sink's
        backpressure.  A block is counted once, when it wrote a slice.
        """
        self._add_slices(self._encode_slices(block), block.num_edges)

    def _add_slices(self, slices: Iterator[bytes | np.ndarray],
                    num_edges: int) -> None:
        """Send each encoded slice of one block of ``num_edges`` edges to
        the sink, timing only the encoding."""
        wrote = False
        while True:
            with self._encode_watch:
                buffer = next(slices, None)
            if buffer is None:
                break
            self._sink.write(buffer)
            wrote = True
        if wrote:
            self._blocks_counter.inc()
        self.num_edges += num_edges

    def _encode_slices(self, block: AdjacencyBlock
                       ) -> Iterator[bytes | np.ndarray]:
        """The format bytes of ``block`` (``bytes`` or ``uint8`` arrays),
        in slices of a bounded number of edges, byte-identical to
        per-vertex :meth:`add` calls.  Every check over the whole block
        runs before the first slice."""
        raise NotImplementedError(
            f"{type(self).__name__} has no block encoder")

    @abstractmethod
    def _finalize(self) -> WriteResult:
        """Flush, close the file, and build the :class:`WriteResult`."""

    def close(self) -> WriteResult:
        """Finalize the file and return the outcome (idempotent)."""
        if self.result is None:
            self.result = self._finalize()
        return self.result

    def _sink_write_seconds(self) -> float:
        sink: ThreadedSink | None = getattr(self, "_sink", None)
        return sink.write_seconds if sink is not None else 0.0

    def _build_result(self, bytes_written: int,
                      extra_write_seconds: float = 0.0) -> WriteResult:
        """Assemble the :class:`WriteResult` with the timing fields."""
        result = WriteResult(
            self.path, self.num_vertices, self.num_edges, bytes_written,
            encode_seconds=self.encode_seconds,
            write_seconds=self._sink_write_seconds() + extra_write_seconds,
            elapsed_seconds=self._elapsed_watch.stop())
        reg = registry()
        reg.counter("format.bytes_written").inc(bytes_written)
        reg.counter("format.edges_written").inc(self.num_edges)
        return result

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            # Normal path: errors propagate and the WriteResult is
            # recorded on self.result rather than silently dropped.
            self.close()
        else:
            # Best effort: release the handle; the partial file remains.
            # Only I/O and format finalization errors are swallowed — the
            # in-flight exception stays primary; anything else propagates.
            try:
                self.close()
            except (OSError, FormatError):
                pass


class GraphFormat(ABC):
    """A graph file format: symmetric write/read pair."""

    #: Short name used on the CLI and in benchmarks ("tsv", "adj6", "csr6").
    name: str = "abstract"

    @abstractmethod
    def open_writer(self, path: Path | str,
                    num_vertices: int) -> StreamWriter:
        """Open an incremental writer for this format."""

    def write_blocks(self, path: Path | str,
                     blocks: Iterable[AdjacencyBlock],
                     num_vertices: int) -> WriteResult:
        """Write a stream of :class:`AdjacencyBlock`s to ``path``.

        This is the fast path: each block is encoded a slice at a time
        and written in bulk, pipelined with generation.  A block is let
        go once it is encoded, before the next one is drawn.
        """
        with span("format.write_blocks", format=self.name):
            writer = self.open_writer(path, num_vertices)
            with writer:
                for block in blocks:
                    writer.add_block(block)
                    del block
        assert writer.result is not None
        return writer.result

    @abstractmethod
    def read_blocks(self, path: Path | str) -> Iterator[AdjacencyBlock]:
        """Stream ``path`` back as :class:`AdjacencyBlock`s, in file order
        — the mirror of :meth:`write_blocks`.

        A block holds whole sources (a TSV source is a run of lines) and
        at most the format's ``_SLICE_EDGES`` edges, unless one source
        alone has more; then that source is a block of its own.  A
        damaged file raises :class:`~repro.errors.FormatError`.
        """

    def iter_adjacency(self, path: Path | str
                       ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream ``(vertex, neighbours)`` pairs back from ``path``."""
        for block in self.read_blocks(path):
            yield from block.iter_adjacency()

    def read_edges(self, path: Path | str) -> np.ndarray:
        """Materialize the file as an ``(m, 2)`` edge array."""
        return np.concatenate([np.empty((0, 2), dtype=np.int64)] + [
            block.edge_array() for block in self.read_blocks(path)])

    def write_edges(self, path: Path | str, edges: np.ndarray,
                    num_vertices: int) -> WriteResult:
        """Convenience: write an edge array (grouped by source first)."""
        edges = np.asarray(edges, dtype=np.int64)
        order = np.argsort(edges[:, 0] * np.int64(num_vertices)
                           + edges[:, 1], kind="stable")
        block = block_from_edges(edges[order])
        return self.write_blocks(path, [block], num_vertices)


def block_from_edges(sorted_edges: np.ndarray) -> AdjacencyBlock:
    """Group source-sorted ``(m, 2)`` edges into one
    :class:`AdjacencyBlock`, a row per run of one source."""
    edges = np.asarray(sorted_edges, dtype=np.int64).reshape(-1, 2)
    starts = np.flatnonzero(np.diff(edges[:, 0], prepend=edges[:1, 0] - 1))
    return AdjacencyBlock(edges[starts, 0], np.append(starts, len(edges)),
                          np.ascontiguousarray(edges[:, 1]))


def _bounded_rows(offsets: np.ndarray, bound: int
                  ) -> Iterator[tuple[int, int]]:
    """Cut the rows of a CSR ``offsets`` into runs ``[lo, hi)`` of at
    most ``bound`` edges; a row with more is a run of its own."""
    lo = 0
    while lo < offsets.size - 1:
        hi = int(np.searchsorted(offsets, offsets[lo] + bound,
                                 side="right")) - 1
        hi = max(hi, lo + 1)
        yield lo, hi
        lo = hi


def _block_from_keys(keys: np.ndarray, n: np.int64) -> AdjacencyBlock:
    """One block straight from ascending packed keys ``u * n + v``, which
    it consumes: a slice at a time, one division finds the slice's
    sources and turns each key into its destination in place, so
    ``keys`` becomes the block's destinations and nothing key-sized is
    allocated (an ``(m, 2)`` edge array for :func:`block_from_edges` to
    slice apart again would cost twice the keys)."""
    starts, sources = [], []
    last = np.int64(-1)
    scratch = np.empty(min(keys.size, tables._SLICE_KEYS), dtype=np.int64)
    for first in range(0, keys.size, tables._SLICE_KEYS):
        part = keys[first:first + tables._SLICE_KEYS]
        quotient = np.floor_divide(part, n, out=scratch[:part.size])
        opens = np.flatnonzero(quotient[1:] != quotient[:-1]) + 1
        if quotient[0] != last:
            opens = np.concatenate([[0], opens])
        starts.append(opens + first)
        sources.append(quotient[opens])
        last = quotient[-1]
        quotient *= n
        part -= quotient
    offsets = np.concatenate([*starts, [keys.size]])
    return AdjacencyBlock(np.concatenate([*sources, np.empty(0, np.int64)]),
                          offsets, keys)


def blocks_from_sorted_keys(chunks: Iterable[np.ndarray],
                            num_vertices: int
                            ) -> Iterator[AdjacencyBlock]:
    """Regroup a sorted packed-key stream into :class:`AdjacencyBlock`s.

    ``chunks`` is an ascending stream of packed int64 edge keys
    (``u * |V| + v``) — e.g. the bounded-RAM merge
    :func:`repro.util.external_sort.iter_unique_keys` — and the blocks
    come out byte-identical to a single whole-array
    :func:`block_from_edges` pass: a chunk boundary falling inside one
    source's neighbour list would split that source across two blocks
    (and, for per-source formats like ADJ6, change the output bytes), so
    the trailing source of every chunk is held back (as a copy) until
    the chunk that ends it, and then goes out as a block of its own.
    Each chunk is consumed: the block built from it
    (:func:`_block_from_keys`) is the chunk, its keys turned into
    destinations, so what this holds while a block is consumed is that
    block plus one source's neighbours.
    """
    n = np.int64(num_vertices)
    held = np.empty(0, dtype=np.int64)
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        if held.size:
            # The held source's keys that open this chunk.
            ends = int(np.searchsorted(chunk, (held[0] // n + 1) * n))
            if ends == chunk.size:
                held = np.concatenate([held, chunk])
                del chunk
                continue
            yield _block_from_keys(np.concatenate([held, chunk[:ends]]), n)
            chunk = chunk[ends:]
        cut = int(np.searchsorted(chunk, chunk[-1] // n * n, side="left"))
        held = chunk[cut:].copy()
        block = _block_from_keys(chunk[:cut], n)
        del chunk
        if block.num_edges:     # not a chunk of one source
            yield block
        del block
    if held.size:
        yield _block_from_keys(held, n)


_REGISTRY: dict[str, GraphFormat] = {}


def register_format(fmt: GraphFormat) -> GraphFormat:
    """Register a format instance under its name."""
    _REGISTRY[fmt.name] = fmt
    return fmt


def get_format(name: str) -> GraphFormat:
    """Look up a registered format by name."""
    try:
        return _REGISTRY[name.lower()]
    except KeyError:
        raise FormatError(
            f"unknown graph format {name!r}; available: "
            f"{sorted(_REGISTRY)}") from None


def available_formats() -> list[str]:
    """Registered format names."""
    return sorted(_REGISTRY)


def id6_byte_view(values: np.ndarray) -> np.ndarray:
    """Vertex IDs as an ``(n, 6)`` uint8 array of little-endian 6-byte
    integers (the numpy byte-view trick behind the block encoders: view
    int64 as bytes, stride-slice the low six).

    Rejects IDs outside ``[0, 2^48)`` — truncating would silently alias
    vertices.
    """
    arr = np.ascontiguousarray(values, dtype="<i8")
    if arr.size and (arr.min() < 0 or arr.max() >= 1 << 48):
        raise FormatError("vertex id out of 6-byte range")
    return arr.view(np.uint8).reshape(-1, 8)[:, :SIX_BYTES]


def encode_id6(values: np.ndarray) -> bytes:
    """Encode int64 vertex IDs as packed little-endian 6-byte integers.

    IDs outside ``[0, 2^48)`` raise :class:`~repro.errors.FormatError`
    rather than being truncated.
    """
    return id6_byte_view(values).tobytes()


def decode_id6(data: bytes) -> np.ndarray:
    """Decode packed little-endian 6-byte integers to int64."""
    if len(data) % SIX_BYTES:
        raise FormatError("truncated 6-byte id block")
    return _id6_values(np.frombuffer(data, dtype=f"V{SIX_BYTES}"))


def _id6_values(items: np.ndarray) -> np.ndarray:
    """``V6`` items (6-byte little-endian ids, e.g. gathered from a
    byte-window view of a read buffer) as int64, each into the low six
    bytes of its value: the inverse of :func:`id6_byte_view`."""
    values = np.zeros(items.size, dtype="<i8")
    np.ndarray((items.size,), dtype=f"V{SIX_BYTES}", buffer=values,
               strides=(8,))[:] = items
    return values.astype(np.int64, copy=False)
