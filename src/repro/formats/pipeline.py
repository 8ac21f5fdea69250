"""Pipelined disk writes: overlap format encoding with file I/O.

The block encoders (:meth:`repro.formats.base.StreamWriter.add_block`)
turn an :class:`~repro.core.generator.AdjacencyBlock` into buffers of a
bounded slice of edges each and hand every one to a
:class:`ThreadedSink`, a bounded-queue background thread: while the
writer thread pushes encoded slice ``i`` to disk, the producer is
already encoding slice ``i+1`` or generating the next block.
Semantics stay single-threaded — buffers are written strictly in
submission order, so the file bytes do not depend on the queue depth —
and any error raised in the background is re-raised to the producer on
its next ``write``/``drain``/``close``.

Sizing
------
The queue holds at most :data:`DEFAULT_PIPELINE_DEPTH` encoded slices.
A slice is at most 2^16 edges — about 0.4 MiB of ADJ6 and 0.6 MiB of
TSV at scale 18, however large its block — so the depth bounds pipeline
memory to a few MiB while still absorbing disk latency spikes (the
measured high-water mark is 1-2 on every benchmark workload).
"""

from __future__ import annotations

import queue
import threading
from typing import IO, Any

from ..telemetry import Stopwatch, registry
from ..telemetry.progress import QUEUE_GAUGE

__all__ = ["DEFAULT_PIPELINE_DEPTH", "ThreadedSink"]

#: Number of encoded slices the background writer may hold.
DEFAULT_PIPELINE_DEPTH = 8


class ThreadedSink:
    """Ordered buffer sink in front of a file object: a bounded-queue
    background writer.

    Buffers are written strictly in submission order by one daemon
    thread.  Whatever ``file.write`` raises is captured and re-raised
    (with its original type) in the producer thread on the next
    :meth:`write`, :meth:`drain`, or :meth:`close`; after a failure the
    thread keeps draining the queue — discarding every later buffer,
    never writing one — so producers never deadlock on a full queue.  :attr:`write_seconds` is the wall time spent inside
    ``file.write`` — on the writer thread, so it may overlap the
    producer's encode time.
    """

    _SENTINEL: object = object()

    def __init__(self, file: IO[Any], depth: int | None = None) -> None:
        self._file = file
        self._queue: queue.Queue = queue.Queue(
            maxsize=depth if depth is not None else DEFAULT_PIPELINE_DEPTH)
        # _error crosses the writer/producer thread boundary: the writer
        # sets it, the producer reads-and-clears it.  Both sides hold
        # _error_lock so neither can observe a torn handoff.
        self._error: BaseException | None = None
        self._error_lock = threading.Lock()
        self._closed = False
        self._watch = Stopwatch()
        self._queue_gauge = registry().gauge(QUEUE_GAUGE, mode="max")
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="trilliong-writer")
        self._thread.start()

    @property
    def write_seconds(self) -> float:
        return self._watch.seconds

    def _run(self) -> None:
        # Local, not read from _error: the producer's _check() clears
        # _error when it collects it, and a writer that then resumed
        # would put later buffers on disk behind the lost one.
        failed = False
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                self._queue.task_done()
                return
            if not failed:
                self._watch.start()
                # Caught whatever its type: this thread is the only way
                # to disk, so an exception that killed it would leave a
                # short file behind a silent close() and a producer
                # blocked on a full queue.  The producer re-raises it.
                try:
                    self._file.write(item)
                except BaseException as exc:  # reprolint: disable=RPL402
                    failed = True
                    with self._error_lock:
                        self._error = exc
                self._watch.stop()
            self._queue.task_done()

    def _check(self) -> None:
        with self._error_lock:
            error, self._error = self._error, None
        if error is not None:
            raise error

    def write(self, data: Any) -> None:
        """Submit one encoded buffer (``bytes`` or a ``uint8`` array)."""
        if self._closed:
            raise ValueError("write to a closed sink")
        self._check()
        # High-water mark of in-flight buffers: sampled before the put so
        # a full queue (producer about to block on backpressure) reads as
        # depth, not depth - 1.
        self._queue_gauge.set(self._queue.qsize() + 1)
        self._queue.put(data)

    def drain(self) -> None:
        """Block until every submitted buffer reached ``file.write``."""
        self._queue.join()
        self._check()

    def close(self) -> None:
        """Drain and release the sink (the file object stays open)."""
        if not self._closed:
            self._closed = True
            self._queue.put(self._SENTINEL)
            self._thread.join()
        self._check()

