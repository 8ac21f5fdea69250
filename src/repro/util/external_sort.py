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
from ..telemetry import Gauge, registry
from .spill import write_run

__all__ = ["DEFAULT_CHUNK_ITEMS", "write_run", "unique_sorted",
           "iter_unique_keys", "collect_chunks"]

#: Target keys per bucket (512 KiB of int64) when the caller names none.
DEFAULT_CHUNK_ITEMS = 1 << 16

#: Keys :func:`unique_sorted` compares per pass: its temporaries are one
#: slice's mask and distinct keys, whatever the array's length.
_SLICE_KEYS = 1 << 16


def unique_sorted(keys: np.ndarray) -> np.ndarray:
    """``keys`` (ascending) with equal neighbours dropped, in place.

    The distinct keys move, in order, to the front of ``keys``, and the
    front is returned as a view; the repeats, one per dropped copy and
    in order, fill the rest.  One adjacent compare a slice at a time,
    with no hashing as in ``np.unique`` and no array as long as the
    input: the temporaries are one slice's mask and distinct keys, and
    the repeats.
    """
    kept = 0
    fresh = np.empty(min(keys.size, _SLICE_KEYS), dtype=bool)
    repeats = []
    for first in range(0, keys.size, _SLICE_KEYS):
        part = keys[first:first + _SLICE_KEYS]
        mask = fresh[:part.size]
        # Only [0, kept) has been written, and kept <= first - 1 unless
        # nothing repeated so far: key first - 1 is still the input's.
        mask[0] = first == 0 or part[0] != keys[first - 1]
        np.not_equal(part[1:], part[:-1], out=mask[1:])
        taken = part[mask]
        if taken.size < part.size:
            repeats.append(part[~mask])
        keys[kept:kept + taken.size] = taken
        kept += taken.size
        del taken       # before the next slice's is made
    if repeats:
        keys[kept:] = np.concatenate(repeats)
    return keys[:kept]


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


def _read_slice(path: Path, start: int, out: np.ndarray) -> None:
    """Read keys ``[start, start + out.size)`` of one run into ``out``: a
    plain positioned read, the file open only for its duration.  A run
    that shrank since its cuts were taken raises instead of silently
    losing keys."""
    with open(path, "rb") as handle:
        handle.seek(start * 8)
        read = handle.readinto(memoryview(out).cast("B")) // 8
    if read != out.size:
        raise DataError(
            f"spill run {path.name} shrank during the pass: keys "
            f"[{start}, {start + out.size}) asked, {read} read; "
            "regenerate")


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
    before every run's size has been checked, and nothing of a bucket
    but the yielded keys outlives its yield: while the consumer holds
    a bucket, this holds only the splitters and the cuts.
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
    del samples
    cuts = []
    for path in runs:
        keys = np.memmap(path, dtype=np.int64, mode="r")
        inner = np.searchsorted(keys, splitters, side="right")
        cuts.append(np.concatenate([[0], inner, [keys.size]]))
        del keys
    peak_gauge = registry().gauge("extsort.peak_buffered_items", mode="max")
    for bucket in range(splitters.size + 1):
        spans = [(path, cut[bucket], cut[bucket + 1])
                 for path, cut in zip(runs, cuts)
                 if cut[bucket] < cut[bucket + 1]]
        if spans:
            # Yielded straight from the call: this frame keeps no
            # reference to the bucket while the consumer holds it.
            yield _unique_bucket(spans, peak_gauge)


def _unique_bucket(spans: list[tuple[Path, int, int]],
                   peak_gauge: Gauge) -> np.ndarray:
    """The sorted, duplicate-free keys of one bucket's run slices, read
    straight into one array, sorted and compacted in place, and shrunk
    to its distinct keys."""
    bucket = np.empty(sum(stop - start for _, start, stop in spans),
                      dtype=np.int64)
    at = 0
    for path, start, stop in spans:
        _read_slice(path, start, bucket[at:at + stop - start])
        at += stop - start
    bucket.sort()
    peak_gauge.set(float(bucket.size))
    # No view of ``bucket`` is left, so it may shrink where it lies.
    bucket.resize(unique_sorted(bucket).size, refcheck=False)
    return bucket


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

