"""Graph output formats: TSV, ADJ6, and CSR6 (Section 5).

The write path is block-streaming: whole
:class:`~repro.core.generator.AdjacencyBlock`s are encoded with
vectorized numpy buffer assembly and pushed to disk through a pipelined
background writer (see ``docs/formats.md``).
"""

from .adj6 import Adj6Format
from .base import (GraphFormat, StreamWriter, WriteResult,
                   available_formats, block_from_edges,
                   blocks_from_sorted_keys, decode_id6, encode_id6,
                   get_format, id6_byte_view, register_format)
from .csr6 import Csr6Format
from .pipeline import DEFAULT_PIPELINE_DEPTH, ThreadedSink
from .tsv import TsvFormat

__all__ = [
    "Adj6Format", "Csr6Format", "TsvFormat", "GraphFormat", "WriteResult",
    "available_formats", "get_format", "register_format", "StreamWriter",
    "block_from_edges", "blocks_from_sorted_keys",
    "encode_id6", "decode_id6", "id6_byte_view",
    "DEFAULT_PIPELINE_DEPTH", "ThreadedSink",
]
