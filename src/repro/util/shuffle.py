"""Hash shuffle of packed edge keys across workers (WES/p's line 7).

The shuffle hashes each edge key to a destination worker.  A multiplicative
mix (Fibonacci hashing) is applied first so that the skewed key space of a
scale-free graph does not map whole hub rows to one worker — although, as
the paper observes, hubs still concentrate and the resulting partition skew
is what limits WES/p's scalability.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "hash_partition", "partition_slices",
           "partition_sizes", "partition_skew"]

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


def mix64(keys: np.ndarray) -> np.ndarray:
    """SplitMix64-style finalizer over an int array (vectorized)."""
    x = keys.astype(np.uint64)
    x = (x + _GOLDEN)
    z = x
    z ^= z >> np.uint64(30)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> np.uint64(27)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z


def partition_slices(keys: np.ndarray,
                     num_workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Single-pass hash partition as ``(grouped_keys, offsets)``.

    ``grouped_keys`` holds every key reordered so worker ``w``'s
    partition is the contiguous slice
    ``grouped_keys[offsets[w]:offsets[w + 1]]`` — one stable argsort of
    the worker assignment plus one bincount, instead of ``num_workers``
    full boolean-mask passes over the key array.  Within each partition
    the original key order is preserved (the sort is stable), so
    consumers observe exactly the per-worker sequences the masked
    implementation produced.  ``offsets`` has ``num_workers + 1``
    entries; slicing it is zero-copy (numpy views).
    """
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
    keys = np.asarray(keys, dtype=np.int64)
    if num_workers == 1:
        return keys, np.array([0, keys.size], dtype=np.int64)
    worker = (mix64(keys) % np.uint64(num_workers)).astype(np.int64)
    order = np.argsort(worker, kind="stable")
    counts = np.bincount(worker, minlength=num_workers)
    offsets = np.zeros(num_workers + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return keys[order], offsets


def hash_partition(keys: np.ndarray, num_workers: int) -> list[np.ndarray]:
    """Split ``keys`` into ``num_workers`` hash partitions.

    A thin list view over :func:`partition_slices`: the returned arrays
    are zero-copy slices of one grouped buffer.
    """
    grouped, offsets = partition_slices(keys, num_workers)
    return [grouped[offsets[w]:offsets[w + 1]]
            for w in range(num_workers)]


def partition_sizes(keys: np.ndarray, num_workers: int) -> np.ndarray:
    """Sizes of the hash partitions (for skew accounting)."""
    if num_workers == 1:
        return np.array([len(keys)], dtype=np.int64)
    worker = (mix64(np.asarray(keys)) % np.uint64(num_workers))
    return np.bincount(worker.astype(np.int64),
                       minlength=num_workers).astype(np.int64)


def partition_skew(sizes) -> float:
    """Largest over mean partition size: the skew the paper blames for
    WES/p's scaling wall (1.0 when every partition is empty)."""
    sizes = np.asarray(sizes, dtype=np.float64)
    return float(sizes.max() / sizes.mean()) if sizes.any() else 1.0
