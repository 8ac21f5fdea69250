"""Graph output format framework (Section 5).

TrillionG supports three formats: the edge-list text format (TSV), the
6-byte adjacency-list binary format (ADJ6), and the 6-byte Compressed
Sparse Row binary format (CSR6).  The unit of the write path is the
:class:`~repro.core.generator.AdjacencyBlock` — the CSR-like triplet the
AVS engines produce natively — so whole blocks are encoded with
vectorized numpy buffer assembly and hit the disk as one ``write()``
each (see ``docs/formats.md``).  ``(vertex, neighbours)`` pairs remain
supported as the compatibility surface: :meth:`StreamWriter.add` is the
per-vertex fallback, and :meth:`GraphFormat.write` batches pair streams
into blocks internally.  Readers provide both full-edge materialization
and adjacency streaming, and are used by tests and the example
applications.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..core.generator import AdjacencyBlock
from ..errors import FormatError
from ..telemetry import Stopwatch, registry, span
from .pipeline import ThreadedSink

__all__ = ["WriteResult", "GraphFormat", "StreamWriter", "register_format",
           "get_format", "available_formats", "SIX_BYTES", "encode_id6",
           "decode_id6", "id6_byte_view", "blocks_from_adjacency",
           "block_from_edges", "blocks_from_sorted_keys"]

#: Width of a vertex ID in the binary formats.  6 bytes covers 2^48
#: vertices — the paper's minimum for trillion-scale graphs.
SIX_BYTES = 6

#: Sources per block when batching a ``(vertex, neighbours)`` pair stream
#: into :class:`AdjacencyBlock` units for the vectorized encoders.
_PAIR_BATCH = 4096


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
    path) or ``(vertex, neighbours)`` pairs (fallback), then
    :meth:`close` to finalize the file.

    Enables single-pass teeing of one generation stream into several
    formats (see :func:`repro.formats.multi.write_many_blocks`) without
    buffering the graph.  ``close`` is idempotent; the first call
    finalizes the file and caches its :class:`WriteResult` in
    :attr:`result`, which context-manager use also populates so the
    outcome of a ``with`` block is never lost.
    """

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
        """Append one generated block.

        Format writers override this with a vectorized whole-block
        encoder; the base implementation falls back to per-vertex
        :meth:`add` calls and produces byte-identical output.
        """
        for vertex, neighbours in block.iter_adjacency():
            self.add(vertex, neighbours)

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

        This is the fast path: each block is encoded as one buffer and
        written in bulk, pipelined with generation.
        """
        with span("format.write_blocks", format=self.name):
            writer = self.open_writer(path, num_vertices)
            with writer:
                for block in blocks:
                    writer.add_block(block)
        assert writer.result is not None
        return writer.result

    def write(self, path: Path | str,
              adjacency: Iterable[tuple[int, np.ndarray]],
              num_vertices: int) -> WriteResult:
        """Write ``(vertex, neighbours)`` pairs to ``path``.

        The pair stream is batched into blocks internally so it still
        takes the vectorized encoder path; output is byte-identical to
        per-vertex :meth:`StreamWriter.add` calls.
        """
        return self.write_blocks(path, blocks_from_adjacency(adjacency),
                                 num_vertices)

    @abstractmethod
    def iter_adjacency(self, path: Path | str
                       ) -> Iterator[tuple[int, np.ndarray]]:
        """Stream ``(vertex, neighbours)`` pairs back from ``path``."""

    def read_edges(self, path: Path | str) -> np.ndarray:
        """Materialize the file as an ``(m, 2)`` edge array."""
        chunks = []
        for u, vs in self.iter_adjacency(path):
            if len(vs):
                chunk = np.empty((len(vs), 2), dtype=np.int64)
                chunk[:, 0] = u
                chunk[:, 1] = vs
                chunks.append(chunk)
        if not chunks:
            return np.empty((0, 2), dtype=np.int64)
        return np.concatenate(chunks)

    def write_edges(self, path: Path | str, edges: np.ndarray,
                    num_vertices: int) -> WriteResult:
        """Convenience: write an edge array (grouped by source first)."""
        edges = np.asarray(edges, dtype=np.int64)
        order = np.argsort(edges[:, 0] * np.int64(num_vertices)
                           + edges[:, 1], kind="stable")
        block = block_from_edges(edges[order])
        return self.write_blocks(path, [block], num_vertices)


def block_from_edges(sorted_edges: np.ndarray) -> AdjacencyBlock:
    """Group source-sorted ``(m, 2)`` edges into one :class:`AdjacencyBlock`."""
    sorted_edges = np.asarray(sorted_edges, dtype=np.int64)
    if sorted_edges.shape[0] == 0:
        return AdjacencyBlock(np.empty(0, dtype=np.int64),
                              np.zeros(1, dtype=np.int64),
                              np.empty(0, dtype=np.int64))
    sources_all = sorted_edges[:, 0]
    boundaries = np.nonzero(np.diff(sources_all))[0] + 1
    starts = np.concatenate([[0], boundaries])
    offsets = np.concatenate([starts, [sorted_edges.shape[0]]])
    return AdjacencyBlock(sources_all[starts].copy(),
                          offsets.astype(np.int64),
                          np.ascontiguousarray(sorted_edges[:, 1]))


def _block_from_keys(keys: np.ndarray, n: np.int64) -> AdjacencyBlock:
    """One block straight from ascending packed keys ``u * n + v``, with
    one division: building an ``(m, 2)`` edge array for
    :func:`block_from_edges` to slice apart again costs twice as much."""
    sources_all = keys // n
    boundaries = np.flatnonzero(sources_all[1:] != sources_all[:-1]) + 1
    offsets = np.concatenate([[0], boundaries, [keys.size]])
    return AdjacencyBlock(sources_all[offsets[:-1]], offsets,
                          keys - sources_all * n)


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
    the trailing partial source group of every chunk is held back and
    prepended to the next.  Peak memory is one chunk plus one source's
    neighbours.
    """
    n = np.int64(num_vertices)
    held = np.empty(0, dtype=np.int64)
    for chunk in chunks:
        chunk = np.asarray(chunk, dtype=np.int64)
        if chunk.size == 0:
            continue
        current = np.concatenate([held, chunk]) if held.size else chunk
        last_source = current[-1] // n
        cut = int(np.searchsorted(current, last_source * n, side="left"))
        if cut:
            yield _block_from_keys(current[:cut], n)
        held = current[cut:]
    if held.size:
        yield _block_from_keys(held, n)


def blocks_from_adjacency(adjacency: Iterable[tuple[int, np.ndarray]],
                          batch_size: int = _PAIR_BATCH
                          ) -> Iterator[AdjacencyBlock]:
    """Batch a ``(vertex, neighbours)`` pair stream into blocks.

    The compatibility shim between the legacy pair surface and the
    vectorized block encoders: pairs are buffered in arrival order and
    flushed every ``batch_size`` sources.
    """
    sources: list[int] = []
    lists: list[np.ndarray] = []
    for u, vs in adjacency:
        sources.append(int(u))
        lists.append(np.asarray(vs, dtype=np.int64))
        if len(sources) >= batch_size:
            yield _pairs_to_block(sources, lists)
            sources, lists = [], []
    if sources:
        yield _pairs_to_block(sources, lists)


def _pairs_to_block(sources: list[int],
                    lists: list[np.ndarray]) -> AdjacencyBlock:
    counts = np.fromiter((v.size for v in lists), dtype=np.int64,
                         count=len(lists))
    offsets = np.zeros(len(lists) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    destinations = (np.concatenate(lists) if lists
                    else np.empty(0, dtype=np.int64))
    return AdjacencyBlock(np.array(sources, dtype=np.int64), offsets,
                          destinations)


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
    count = len(data) // SIX_BYTES
    raw = np.frombuffer(data, dtype=np.uint8).reshape(count, SIX_BYTES)
    out = np.zeros((count, 8), dtype=np.uint8)
    out[:, :SIX_BYTES] = raw
    return out.view("<i8").ravel().astype(np.int64)
