"""Atomic spill-run persistence for the external-memory sort engine.

The engine in :mod:`repro.util.external_sort` works over *runs*: flat
little-endian int64 files of sorted packed edge keys (``u * |V| + v``).
This module owns their durability discipline:

- every run becomes visible under its final name only via an atomic
  rename of a fully-written, flushed, fsynced ``*.partial`` temporary —
  a crash can never leave a torn run that a later pass would consume
  silently (the engine additionally rejects size-not-multiple-of-8
  files with :class:`~repro.errors.DataError`);
- :class:`SpillStore` names and tracks the runs of one producer and
  hands the whole set to the partitioned pass
  (:func:`~repro.util.external_sort.iter_unique_keys`) in one call;
- every spill is counted in the ``extsort.*`` telemetry family
  (``docs/observability.md``).

``fsync_file`` / ``fsync_dir`` live here (the bottom layer) so both the
spill path and the checkpoint manifests in :mod:`repro.dist.checkpoint`
share one implementation.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

import numpy as np

from ..telemetry import registry

__all__ = ["fsync_file", "fsync_dir", "write_run", "SpillStore"]


def fsync_file(path: Path | str) -> None:
    """Flush ``path``'s data to stable storage."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: Path | str) -> None:
    """Flush a directory entry (after a rename) to stable storage.

    Best-effort: some platforms/filesystems refuse to fsync a directory
    handle; a rename there is as durable as it gets.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_run(keys: np.ndarray, path: Path | str) -> Path:
    """Spill one sorted run of int64 keys to ``path`` atomically.

    Writes to ``<path>.partial.<pid>``, flushes, fsyncs, then renames
    into place (and fsyncs the directory entry), so ``path`` either does
    not exist or holds a complete run.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.partial.{os.getpid()}")
    arr = np.ascontiguousarray(np.asarray(keys, dtype=np.int64))
    try:
        with open(tmp, "wb") as handle:
            handle.write(memoryview(arr))
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)
    fsync_dir(path.parent)
    reg = registry()
    reg.counter("extsort.runs_spilled").inc()
    reg.counter("extsort.spill_bytes").inc(arr.nbytes)
    return path


class SpillStore:
    """A directory of sorted spill runs plus their deduplicated union.

    Producers (the disk-based generators) call :meth:`add_run` once per
    sorted in-memory batch, then consume :meth:`iter_unique` — the
    bounded-RAM one-pass sort over everything spilled.
    """

    def __init__(self, directory: Path | str, *, prefix: str = "run"
                 ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._prefix = prefix
        self._runs: list[Path] = []

    @property
    def runs(self) -> tuple[Path, ...]:
        """The spilled run paths, in spill order."""
        return tuple(self._runs)

    @property
    def num_runs(self) -> int:
        return len(self._runs)

    def add_run(self, keys: np.ndarray) -> Path:
        """Spill one sorted key batch as the next run."""
        path = self.directory / f"{self._prefix}-{len(self._runs):06d}.run"
        write_run(keys, path)
        self._runs.append(path)
        return path

    def iter_unique(self, *, chunk_items: int | None = None
                    ) -> Iterator[np.ndarray]:
        """Stream the sorted, duplicate-free union of every run in
        buckets of about ``chunk_items`` keys; see
        :func:`repro.util.external_sort.iter_unique_keys`."""
        from .external_sort import DEFAULT_CHUNK_ITEMS, iter_unique_keys
        return iter_unique_keys(
            self._runs, chunk_items=(DEFAULT_CHUNK_ITEMS
                                     if chunk_items is None
                                     else chunk_items))
