"""Merge distributed part files into one graph file.

The Figure 6 partitioner hands each worker a *contiguous* vertex range, so
part files are disjoint and ordered: merging is a pure stream
concatenation of their blocks (:meth:`~repro.formats.GraphFormat.read_blocks`),
with no sort, dedup or regrouping — memory is one block regardless of
graph size, and the output takes the vectorized block encoders.  Formats
may differ between input and output (e.g. ADJ6 parts merged into one
CSR6 file).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

from ..core.generator import AdjacencyBlock
from ..errors import FormatError
from ..formats import WriteResult, get_format

__all__ = ["merge_parts"]


def _range_ordered(paths: list[Path], fmt_name: str
                   ) -> Iterator[AdjacencyBlock]:
    """The parts' blocks in turn, each checked to start after the last
    source before it."""
    reader = get_format(fmt_name)
    last_vertex = -1
    for path in paths:
        for block in reader.read_blocks(path):
            first = int(block.sources[0])
            if first <= last_vertex:
                raise FormatError(
                    f"part files are not range-ordered: vertex {first} in "
                    f"{path} after {last_vertex}; merge_parts requires "
                    "Figure 6 (contiguous-range) parts in order")
            last_vertex = int(block.sources[-1])
            yield block


def merge_parts(part_paths: Iterable[Path | str], num_vertices: int,
                out_path: Path | str, *, in_format: str = "adj6",
                out_format: str | None = None) -> WriteResult:
    """Concatenate ordered part files into one output file.

    Parameters
    ----------
    part_paths:
        Part files in vertex-range order (e.g.
        :attr:`repro.dist.DistributedResult.paths`).
    num_vertices:
        ``|V|`` of the full graph.
    out_path:
        Destination file.
    in_format / out_format:
        Format names; ``out_format`` defaults to ``in_format``.
    """
    paths = [Path(p) for p in part_paths]
    if not paths:
        raise ValueError("merge_parts needs at least one part file")
    writer = get_format(out_format if out_format is not None
                        else in_format)
    return writer.write_blocks(out_path, _range_ordered(paths, in_format),
                               num_vertices)
