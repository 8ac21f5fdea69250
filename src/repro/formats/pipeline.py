"""Pipelined disk writes: overlap format encoding with file I/O.

The block encoders (:meth:`repro.formats.base.StreamWriter.add_block`)
turn a whole :class:`~repro.core.generator.AdjacencyBlock` into one
buffer and hand it to a *sink*.  With pipelining enabled (the default)
the sink is a bounded-queue background thread: while the writer thread
pushes encoded block ``i`` to disk, the generator is already producing
and encoding block ``i+1``.  Semantics stay single-threaded — buffers
are written strictly in submission order, so the file bytes are
identical with the pipeline on or off — and any I/O error raised in the
background is re-raised to the producer on its next ``write``/``close``.

Sizing
------
The queue holds at most ``depth`` encoded buffers (default 8).  A block
of 4096 sources at edge factor 16 encodes to ~400 KB of ADJ6, so the
default bounds pipeline memory to a few MB while still absorbing disk
latency spikes.  ``TRILLIONG_PIPELINE_DEPTH`` overrides the default;
``TRILLIONG_NO_PIPELINE=1`` disables the background thread entirely
(the escape hatch for debugging or single-core machines).
"""

from __future__ import annotations

import os
import queue
import threading
from typing import IO, Any

from ..sanitize import record_write, sanitize_enabled
from ..telemetry import Stopwatch, registry
from ..telemetry.progress import QUEUE_GAUGE

#: Instantaneous in-flight buffer count (last-write-wins gauge): the
#: live companion to the :data:`QUEUE_GAUGE` high-water mark, so the
#: flight recorder's time series shows backpressure as it happens
#: rather than only its historical maximum.
QUEUE_DEPTH_GAUGE = "pipeline.queue_depth"

__all__ = [
    "NO_PIPELINE_ENV",
    "PIPELINE_DEPTH_ENV",
    "DEFAULT_PIPELINE_DEPTH",
    "QUEUE_DEPTH_GAUGE",
    "pipeline_enabled",
    "pipeline_depth",
    "WriteSink",
    "DirectSink",
    "ThreadedSink",
    "open_sink",
]

#: Set to ``1``/``true``/``yes``/``on`` to force synchronous writes.
NO_PIPELINE_ENV = "TRILLIONG_NO_PIPELINE"
#: Overrides the bounded queue depth (number of in-flight buffers).
PIPELINE_DEPTH_ENV = "TRILLIONG_PIPELINE_DEPTH"
#: Default number of encoded buffers the background writer may hold.
DEFAULT_PIPELINE_DEPTH = 8

_TRUTHY = frozenset({"1", "true", "yes", "on"})


def pipeline_enabled() -> bool:
    """Whether new writers should use the background writer thread."""
    return os.environ.get(NO_PIPELINE_ENV, "").strip().lower() not in _TRUTHY


def pipeline_depth() -> int:
    """Bounded-queue depth for new pipelined sinks."""
    raw = os.environ.get(PIPELINE_DEPTH_ENV, "").strip()
    if not raw:
        return DEFAULT_PIPELINE_DEPTH
    try:
        depth = int(raw)
    except ValueError:
        return DEFAULT_PIPELINE_DEPTH
    return max(1, depth)


class WriteSink:
    """Ordered buffer sink in front of a file object.

    Subclasses accumulate the wall time spent inside ``file.write`` in
    :attr:`write_seconds` so writers can report encode vs. write time
    separately.  ``overlapped`` says whether that write time runs
    concurrently with the producer (and may therefore overlap encode
    time) — the timing contract in
    :func:`repro.contracts.check_write_result` keys off it.
    """

    write_seconds: float = 0.0
    overlapped: bool = False

    def write(self, data: Any) -> None:
        """Submit one encoded buffer (``bytes`` or a ``uint8`` array)."""
        raise NotImplementedError

    def drain(self) -> None:
        """Block until every submitted buffer reached ``file.write``."""
        raise NotImplementedError

    def close(self) -> None:
        """Drain and release the sink (the file object stays open)."""
        raise NotImplementedError


class DirectSink(WriteSink):
    """Synchronous passthrough (pipeline disabled)."""

    overlapped = False

    def __init__(self, file: IO[Any]) -> None:
        self._file = file
        self._watch = Stopwatch()
        self._trace = sanitize_enabled()

    @property
    def write_seconds(self) -> float:  # type: ignore[override]
        return self._watch.seconds

    def write(self, data: Any) -> None:
        if self._trace:
            record_write(self._file, data)
        with self._watch:
            self._file.write(data)

    def drain(self) -> None:
        return None

    def close(self) -> None:
        return None


class ThreadedSink(WriteSink):
    """Bounded-queue background writer.

    Buffers are written strictly in submission order by one daemon
    thread.  An exception raised by ``file.write`` is captured and
    re-raised (with its original type) in the producer thread on the
    next :meth:`write`, :meth:`drain`, or :meth:`close`; after a
    failure the thread keeps draining the queue so producers never
    deadlock on a full queue.
    """

    _SENTINEL: object = object()

    overlapped = True

    def __init__(self, file: IO[Any], depth: int | None = None) -> None:
        self._file = file
        self._queue: queue.Queue = queue.Queue(
            maxsize=depth if depth is not None else pipeline_depth())
        # _error crosses the writer/producer thread boundary: the writer
        # sets it, the producer reads-and-clears it.  Both sides hold
        # _error_lock so neither can observe a torn handoff.
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()
        self._closed = False
        self._watch = Stopwatch()
        self._queue_gauge = registry().gauge(QUEUE_GAUGE, mode="max")
        self._depth_gauge = registry().gauge(QUEUE_DEPTH_GAUGE)
        self._trace = sanitize_enabled()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="trilliong-writer")
        self._thread.start()

    @property
    def write_seconds(self) -> float:  # type: ignore[override]
        return self._watch.seconds

    def _run(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                self._queue.task_done()
                return
            with self._error_lock:
                failed = self._error is not None
            if not failed:
                self._watch.start()
                try:
                    self._file.write(item)
                except (OSError, ValueError) as exc:
                    with self._error_lock:
                        self._error = exc
                self._watch.stop()
            self._queue.task_done()
            self._depth_gauge.set(self._queue.qsize())

    def _check(self) -> None:
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    def write(self, data: Any) -> None:
        if self._closed:
            raise ValueError("write to a closed sink")
        self._check()
        if self._trace:
            # Recorded at submission: the writer thread preserves
            # submission order, so this *is* the on-disk block order.
            record_write(self._file, data)
        # High-water mark of in-flight buffers: sampled before the put so
        # a full queue (producer about to block on backpressure) reads as
        # depth, not depth - 1.  The depth gauge mirrors the same reading
        # live (last-write-wins; the writer thread lowers it as it drains).
        depth = self._queue.qsize() + 1
        self._queue_gauge.set(depth)
        self._depth_gauge.set(depth)
        self._queue.put(data)

    def drain(self) -> None:
        self._queue.join()
        self._check()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._queue.put(self._SENTINEL)
            self._thread.join()
        self._check()


def open_sink(file: IO[Any], *, pipelined: bool | None = None,
              depth: int | None = None) -> WriteSink:
    """Sink factory honouring the ``TRILLIONG_NO_PIPELINE`` escape hatch.

    ``pipelined`` forces the choice; ``None`` defers to the environment.
    """
    if pipelined is None:
        pipelined = pipeline_enabled()
    if pipelined:
        return ThreadedSink(file, depth)
    return DirectSink(file)
