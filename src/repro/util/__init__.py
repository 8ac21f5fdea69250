"""Layer-free algorithmic utilities.

``util`` sits at the bottom of the package layering (see
``docs/static_analysis.md``): it may be imported from anywhere —
``core``, ``models``, ``dist``, ``formats`` — and must not import any of
those layers back.  It holds the spill and external-sort machinery of
the disk-based WES baselines (``models``) and the hash-shuffle counts of
WES/p.
"""

from .external_sort import (DEFAULT_CHUNK_ITEMS, collect_chunks,
                            iter_unique_keys, unique_sorted, write_run)
from .shuffle import mix64, partition_sizes
from .spill import SpillStore

__all__ = [
    "DEFAULT_CHUNK_ITEMS", "collect_chunks",
    "iter_unique_keys", "unique_sorted", "write_run",
    "SpillStore",
    "mix64", "partition_sizes",
]
