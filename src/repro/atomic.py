"""Durable, atomic publication of a file: the one rename in ``repro``.

Spill runs, checkpoint chunks and manifests, distributed part files and
run reports must survive a crash mid-write.  Every one of them is
written through :func:`atomic_write`: the body writes a temporary
``<name>.partial.<pid>`` beside the target, and only a clean exit
publishes it, after the bytes are durable.  A reader therefore sees
either the old file (or none) or the whole new one, and a crash leaves
at most a ``*.partial*`` temporary, which
:class:`~repro.dist.checkpoint.CheckpointedRun` sweeps on resume.

Standard library only, so every layer may import it — ``telemetry``,
the bottom layer, included.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

__all__ = ["atomic_write", "fsync_file", "fsync_dir"]


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


@contextmanager
def atomic_write(path: Path | str) -> Iterator[Path]:
    """Yield the temporary path to write ``path`` through.

    The body writes (and closes) ``<name>.partial.<pid>`` beside
    ``path``.  On a clean exit the temporary is fsynced, renamed onto
    ``path`` and the directory entry fsynced.  On any exit the temporary
    is gone: an exception leaves ``path`` as it was.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.partial.{os.getpid()}")
    try:
        yield tmp
        fsync_file(tmp)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    fsync_dir(path.parent)
