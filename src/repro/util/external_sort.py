"""External sort with duplicate elimination: one splitter-partitioned pass.

The disk-based WES variants (RMAT-disk, WES/p-disk) eliminate repeated
edges by external sort: sorted runs are spilled to disk during generation
(:mod:`repro.util.spill`), then :func:`iter_unique_keys` cuts the key
range into buckets of about ``chunk_items`` keys and sorts and
deduplicates each bucket once, in RAM.  Runs are flat little-endian int64
files of packed edge keys (``u * |V| + v``).

There are no merge passes (``docs/external_memory.md``): the splitters
come from a regular sample of every run, so a bucket is bounded before a
single key is read, buckets are ascending and disjoint by construction,
and every key is read from disk exactly once.  The engine reports into
the ``extsort.*`` telemetry family (``docs/observability.md``).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, DataError
from ..telemetry import registry
from .spill import write_run

__all__ = ["DEFAULT_CHUNK_ITEMS", "write_run", "unique_sorted",
           "iter_unique_keys", "collect_chunks", "external_sort_unique"]

#: Target keys per bucket (512 KiB of int64) when the caller names none.
DEFAULT_CHUNK_ITEMS = 1 << 16


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``keys`` (ascending) with equal neighbours dropped."""
    if keys.size == 0:
        return keys
    keep = np.empty(keys.size, dtype=bool)
    keep[0] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _run_items(path: Path) -> int:
    """Keys in one run file.  Runs are written atomically
    (:mod:`repro.util.spill`), so a ragged size means a torn artifact
    from a foreign writer — sorting its prefix silently would corrupt
    the graph."""
    size = path.stat().st_size
    if size % 8 != 0:
        raise DataError(
            f"torn spill run {path.name}: {size} bytes is not a whole "
            "number of int64 keys (crashed non-atomic writer?); delete "
            "the file and regenerate")
    return size // 8


def _read_slice(path: Path, start: int, stop: int) -> np.ndarray:
    """Keys ``[start, stop)`` of one run: a plain positioned read, the
    file open only for its duration."""
    with open(path, "rb") as handle:
        handle.seek(start * 8)
        return np.fromfile(handle, dtype=np.int64, count=stop - start)


def iter_unique_keys(paths: Iterable[Path], *,
                     chunk_items: int = DEFAULT_CHUNK_ITEMS
                     ) -> Iterator[np.ndarray]:
    """Stream the sorted, duplicate-free union of sorted runs.

    One pass, regular-sampling sample sort (PSRS): every ``stride``-th
    key of every run is a sample, every ``chunk_items // stride``-th
    sample (all runs' samples sorted together) is a splitter, and with
    ``stride = chunk_items // 2R`` over ``R`` runs no bucket holds more
    than ``2 * chunk_items + R`` keys as long as no run repeats a key —
    a repeated key adds its copies to one bucket, since the cuts are
    ``side="right"`` and all copies of a key land together.  Each bucket
    is read (one slice per run), sorted, stripped of equal neighbours
    and yielded; the largest bucket before deduplication is the
    ``extsort.peak_buffered_items`` max-gauge.  Nothing is yielded
    before every run's size has been checked.
    """
    if chunk_items < 1:
        raise ConfigurationError("chunk_items must be >= 1")
    # A zero-length run holds nothing, and np.memmap refuses empty files.
    runs = [path for path in map(Path, paths) if _run_items(path)]
    if not runs:
        return
    stride = max(1, chunk_items // (2 * len(runs)))
    samples = []
    for path in runs:
        keys = np.memmap(path, dtype=np.int64, mode="r")
        samples.append(np.array(keys[stride - 1::stride]))
        del keys
    every = max(1, chunk_items // stride)
    splitters = np.sort(np.concatenate(samples))[every - 1::every]
    cuts = []
    for path in runs:
        keys = np.memmap(path, dtype=np.int64, mode="r")
        inner = np.searchsorted(keys, splitters, side="right")
        cuts.append(np.concatenate([[0], inner, [keys.size]]))
        del keys
    peak_gauge = registry().gauge("extsort.peak_buffered_items", mode="max")
    for bucket in range(splitters.size + 1):
        parts = [_read_slice(path, cut[bucket], cut[bucket + 1])
                 for path, cut in zip(runs, cuts)
                 if cut[bucket] < cut[bucket + 1]]
        if not parts:
            continue
        merged = np.concatenate(parts)
        merged.sort()
        peak_gauge.set(float(merged.size))
        yield unique_sorted(merged)


def collect_chunks(chunks: Iterable[np.ndarray]) -> np.ndarray:
    """Materialize a key-chunk stream into one int64 array.

    The engine's *explicit* in-memory terminal: APIs whose contract is a
    whole edge array (``ScopeBasedGenerator.generate``) route through
    this helper so every full materialization is visible and greppable.
    Stream to a writer instead whenever possible: an inline
    ``np.concatenate(list(...))`` of a key stream holds the whole edge
    set in memory.
    """
    parts = [np.asarray(chunk, dtype=np.int64) for chunk in chunks]
    if not parts:
        return np.empty(0, dtype=np.int64)
    return np.concatenate(parts)


def external_sort_unique(paths: Iterable[Path],
                         chunk_items: int = DEFAULT_CHUNK_ITEMS
                         ) -> np.ndarray:
    """Merge sorted runs into one duplicate-free sorted array.

    Compatibility wrapper over :func:`iter_unique_keys` +
    :func:`collect_chunks` — by construction it holds the whole merged
    set in memory, so the bounded-RAM paths (models, dist) must use the
    streaming API instead (the peak-RSS cap in
    ``benchmarks/bench_extmem.py`` measures that they do).
    """
    return collect_chunks(iter_unique_keys(paths, chunk_items=chunk_items))
