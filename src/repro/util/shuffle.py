"""Hash shuffle of packed edge keys across workers (WES/p's line 7),
counted for the skew.

The shuffle hashes each edge key to a destination worker.  A multiplicative
mix (Fibonacci hashing) is applied first so that the skewed key space of a
scale-free graph does not map whole hub rows to one worker — although, as
the paper observes, hubs still concentrate and the resulting partition skew
is what limits WES/p's scalability.
"""

from __future__ import annotations

import numpy as np

__all__ = ["mix64", "partition_sizes", "partition_skew"]

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


def partition_sizes(keys: np.ndarray, num_workers: int) -> np.ndarray:
    """Sizes of the hash partitions (for skew accounting): key ``k``
    goes to worker ``mix64(k) % num_workers``."""
    if num_workers < 1:
        raise ValueError("num_workers must be >= 1")
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
