"""Layer-free algorithmic utilities.

``util`` sits at the bottom of the package layering (see
``docs/static_analysis.md``): it may be imported from anywhere —
``core``, ``models``, ``dist``, ``formats`` — and must not import any of
those layers back.  It currently holds the external-sort machinery and
the hash shuffle, which the WES baselines (``models``) and the
distributed runners (``dist``) share.
"""

from .external_sort import (DEFAULT_CHUNK_ITEMS, collect_chunks,
                            external_sort_unique, iter_unique_keys,
                            unique_sorted, write_run)
from .shuffle import (hash_partition, mix64, partition_sizes,
                      partition_slices)
from .spill import SpillStore

__all__ = [
    "DEFAULT_CHUNK_ITEMS", "collect_chunks", "external_sort_unique",
    "iter_unique_keys", "unique_sorted", "write_run",
    "SpillStore",
    "hash_partition", "mix64", "partition_sizes", "partition_slices",
]
