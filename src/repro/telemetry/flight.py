"""Flight recorder: a bounded in-process time-series sampler.

Everything else in :mod:`repro.telemetry` reports *post hoc* — counters
and span trees surface after ``generate()`` returns.  The flight
recorder closes the in-flight gap: a daemon thread samples the metrics
registry plus process vitals on a fixed interval into a bounded ring
buffer, so a run that stalls, leaks memory, or outgrows its sort buckets
carries its own recent history.

Each sample is one JSON-able dict::

    {"elapsed": 1.5,            # seconds since the recorder started
     "wall": 1723111845.2,      # epoch seconds (display only)
     "rss_bytes": 104857600,    # resident set size (/proc/self/statm)
     "io_read_bytes": ...,      # cumulative read_bytes (/proc/self/io)
     "io_write_bytes": ...,     # cumulative write_bytes (/proc/self/io)
     "metrics": {"generator.edges": 4096.0, ...},   # flattened registry
     "spans": {"MainThread": ["generate", "format.write_blocks"]}}

Process vitals come straight from ``/proc/self`` (no psutil); on
platforms without procfs those fields are simply absent.  The
``metrics`` map flattens the registry snapshot — counters and gauges to
their value, histograms to their observation count — which keeps a
sample small enough that a full ring is a few hundred KB.

The recorder is **read-only** introspection (reprolint RPL509): it never
creates or updates instruments, never draws from an RNG stream, and
never touches generator state, so enabling it cannot change the output
bytes.

Switches
--------
The recorder runs when a caller asks for it: :func:`start_flight` /
:func:`stop_flight`, or the :func:`flight_session` context manager
(what ``TrillionG(flight=...)`` and the CLI ``--flight [INTERVAL]``
use).  On a cluster the resolved interval travels to each worker as a
task argument (``run_tasks(flight=...)``), never through the process
environment.

Crash forensics
---------------
A recorder given a ``dump_path`` rewrites its tail there (atomically,
small JSON) after every sample, so a worker that is ``SIGKILL``-ed or
hangs past its timeout still leaves its last N seconds of time series
on disk for the supervisor to collect — see
:mod:`repro.dist.faults`, which attaches the tail to the failed
``TaskAttempt``.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path
from typing import Mapping

from .metrics import global_registry
from .spans import tracer

__all__ = [
    "DEFAULT_FLIGHT_INTERVAL",
    "DEFAULT_FLIGHT_CAPACITY",
    "FlightRecorder",
    "flatten_metrics",
    "read_proc_vitals",
    "resolve_flight_interval",
    "start_flight",
    "stop_flight",
    "current_recorder",
    "flight_session",
]

#: Default sampling cadence: 2 Hz keeps a 240-sample ring at two minutes
#: of history while costing one registry snapshot per tick.
DEFAULT_FLIGHT_INTERVAL = 0.5
DEFAULT_FLIGHT_CAPACITY = 240

#: How many trailing samples a ``dump_path`` rewrite retains — the crash
#: forensics window shipped with failed task attempts.
DUMP_TAIL_SAMPLES = 120

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_proc_vitals() -> dict[str, int]:
    """RSS and cumulative I/O byte counts from ``/proc/self``.

    Returns an empty dict on platforms without procfs (the recorder then
    records metrics and span stacks only).  ``/proc/self/io`` may be
    absent or unreadable even on Linux (permissions inside some
    sandboxes); each field is independent best-effort.
    """
    vitals: dict[str, int] = {}
    try:
        with open("/proc/self/statm", "r", encoding="ascii") as handle:
            fields = handle.read().split()
        vitals["rss_bytes"] = int(fields[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        with open("/proc/self/io", "r", encoding="ascii") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key == "read_bytes":
                    vitals["io_read_bytes"] = int(value)
                elif key == "write_bytes":
                    vitals["io_write_bytes"] = int(value)
    except (OSError, ValueError):
        pass
    return vitals


def flatten_metrics(snapshot: Mapping[str, Mapping]) -> dict[str, float]:
    """Flatten a registry snapshot to ``{name: value}`` for sampling:
    counters and gauges keep their value, histograms flatten to their
    observation count (``<name>.count``)."""
    flat: dict[str, float] = {}
    for name, data in snapshot.items():
        kind = data.get("type")
        if kind in ("counter", "gauge"):
            flat[name] = float(data["value"])
        elif kind == "histogram":
            flat[f"{name}.count"] = float(data["count"])
    return flat


class FlightRecorder:
    """Bounded ring-buffer sampler thread over the live telemetry state.

    :meth:`start` launches the daemon sampler; :meth:`stop` joins it
    (taking one final sample so short runs never end empty).
    :meth:`tail` returns the most recent samples; :meth:`snapshot` the
    JSON-able whole — the shape shipped across the worker snapshot
    protocol and served by ``GET /flight``.
    """

    def __init__(self, interval: float = DEFAULT_FLIGHT_INTERVAL,
                 capacity: int = DEFAULT_FLIGHT_CAPACITY, *,
                 dump_path: Path | str | None = None) -> None:
        self.interval = max(0.01, float(interval))
        self.capacity = max(1, int(capacity))
        self.dump_path = Path(dump_path) if dump_path is not None else None
        self._samples: list[dict] = []
        self._dropped = 0
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._started_monotonic: float | None = None
        self._thread: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "FlightRecorder":
        """Launch the sampler thread (idempotent while running)."""
        if self.running:
            return self
        self._stop_event.clear()
        self._started_monotonic = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="trilliong-flight")
        self._thread.start()
        return self

    def stop(self, *, remove_dump: bool = False) -> "FlightRecorder":
        """Stop and join the sampler; records one final sample first so
        even a sub-interval run leaves a time series behind."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join()
            self._thread = None
        if remove_dump and self.dump_path is not None:
            self.dump_path.unlink(missing_ok=True)
        return self

    # -- sampling --------------------------------------------------------

    def _run(self) -> None:
        while not self._stop_event.wait(self.interval):
            self.sample()
        self.sample()        # final sample at stop: short runs stay visible

    def sample(self) -> dict:
        """Take one sample now (the sampler thread's tick; callable
        directly in tests or for an on-demand reading)."""
        now = time.monotonic()
        started = self._started_monotonic
        sample: dict = {
            "elapsed": round(now - started, 6) if started is not None
            else 0.0,
            "wall": time.time(),
        }
        sample.update(read_proc_vitals())
        sample["metrics"] = flatten_metrics(global_registry().snapshot())
        active = tracer().active_stacks()
        if active:
            sample["spans"] = active
        with self._lock:
            self._samples.append(sample)
            if len(self._samples) > self.capacity:
                drop = len(self._samples) - self.capacity
                del self._samples[:drop]
                self._dropped += drop
        if self.dump_path is not None:
            self._dump()
        return sample

    def _dump(self) -> None:
        """Atomically rewrite the dump file with the recent tail.

        Best-effort by design: forensics must never fail the run, so any
        OSError (disk full, directory vanished mid-retry) is swallowed.
        """
        doc = self.snapshot(limit=DUMP_TAIL_SAMPLES)
        assert self.dump_path is not None
        tmp = self.dump_path.with_name(
            f"{self.dump_path.name}.partial.{os.getpid()}")
        try:
            tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
            tmp.replace(self.dump_path)
        except OSError:
            tmp.unlink(missing_ok=True)

    # -- reading ---------------------------------------------------------

    def tail(self, limit: int | None = None) -> list[dict]:
        """The most recent ``limit`` samples (all retained by default)."""
        with self._lock:
            samples = list(self._samples)
        if limit is not None and limit >= 0:
            samples = samples[-limit:]
        return samples

    @property
    def dropped(self) -> int:
        """Samples evicted from the ring so far."""
        with self._lock:
            return self._dropped

    def snapshot(self, limit: int | None = None) -> dict:
        """JSON-able recorder state: config plus the retained samples."""
        with self._lock:
            samples = list(self._samples)
            dropped = self._dropped
        if limit is not None and limit >= 0:
            dropped += max(0, len(samples) - limit)
            samples = samples[-limit:]
        return {
            "interval_seconds": self.interval,
            "capacity": self.capacity,
            "dropped": dropped,
            "samples": samples,
        }


# ---------------------------------------------------------------------------
# Process-wide recorder + configuration resolution
# ---------------------------------------------------------------------------


def resolve_flight_interval(setting: bool | float | None
                            ) -> float | None:
    """Resolve a ``flight=`` parameter to a sampling interval.

    ``None`` and ``False`` mean off, ``True`` the default cadence, a
    number is the interval in seconds.
    """
    if setting is None or setting is False:
        return None
    if setting is True:
        return DEFAULT_FLIGHT_INTERVAL
    return max(0.01, float(setting))


_CURRENT: FlightRecorder | None = None
_CURRENT_LOCK = threading.Lock()


def current_recorder() -> FlightRecorder | None:
    """This process's running recorder, if any (``GET /flight`` reads
    it; ``None`` when flight recording is off)."""
    return _CURRENT


def start_flight(interval: float = DEFAULT_FLIGHT_INTERVAL, *,
                 dump_path: Path | str | None = None) -> FlightRecorder:
    """Start (or return the already-running) process-wide recorder."""
    global _CURRENT
    with _CURRENT_LOCK:
        if _CURRENT is not None and _CURRENT.running:
            return _CURRENT
        _CURRENT = FlightRecorder(interval, dump_path=dump_path).start()
        return _CURRENT


def stop_flight(*, remove_dump: bool = False) -> FlightRecorder | None:
    """Stop the process-wide recorder; returns it (with its samples
    intact) so callers can ship the final snapshot."""
    global _CURRENT
    with _CURRENT_LOCK:
        recorder, _CURRENT = _CURRENT, None
    if recorder is not None:
        recorder.stop(remove_dump=remove_dump)
    return recorder


class flight_session:
    """Context manager running the process-wide recorder for one job.

    ``setting`` follows :func:`resolve_flight_interval`; the resolved
    value is :attr:`interval` (``None`` = off), which is what a cluster
    run hands its workers.  Yields the recorder (or ``None`` when flight
    recording stays off).
    """

    def __init__(self, setting: bool | float | None = None) -> None:
        self.interval = resolve_flight_interval(setting)

    def __enter__(self) -> FlightRecorder | None:
        if self.interval is None:
            return None
        return start_flight(self.interval)

    def __exit__(self, exc_type, exc, tb) -> None:
        if self.interval is not None:
            stop_flight()
