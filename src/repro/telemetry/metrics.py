"""Metrics: counters, gauges, and fixed-bucket histograms.

The registry is the cheap half of the telemetry layer, and it always
records: an instrument is one dict lookup to obtain (callers cache the
handle on hot paths) and one lock-protected float add to update —
instruments are shared between the producer and the pipeline's
background writer thread, so updates must not be lost to thread
switches.

Snapshots are plain JSON-able dicts, and :func:`merge_metrics` is
associative and commutative (counters add, max/min gauges take the
extremum, histograms add bucket-wise), so per-worker snapshots can be
merged in any order into one coherent report — the property the
cross-process aggregation in :mod:`repro.dist.faults` relies on.
"""

from __future__ import annotations

import bisect
import threading
from typing import Iterable, Mapping, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "reset_metrics",
    "merge_metrics",
    "POW2_BUCKETS",
]

#: Power-of-two bucket bounds shared by the size-shaped histograms
#: (scope sizes, degrees): 1, 2, 4, ... 2^48 (the 6-byte id ceiling).
POW2_BUCKETS: tuple[float, ...] = tuple(float(1 << k) for k in range(49))


class Counter:
    """A monotonically increasing float; merge adds.

    Updates are lock-protected: the pipeline's background writer thread
    and the producer share instruments (e.g. ``format.bytes_written``),
    and an unguarded ``+=`` is a read-modify-write that loses updates
    under thread switches.
    """

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "counter", "value": self.value}


class Gauge:
    """A point-in-time value with a merge mode.

    ``mode`` decides cross-snapshot (and cross-process) semantics:
    ``"max"``/``"min"`` keep the extremum — the right call for
    high-water marks, and associative so merges commute — while
    ``"last"`` simply overwrites (use only for values where any one
    process's reading is as good as another's).
    """

    __slots__ = ("value", "mode", "_lock")

    _MODES = ("last", "max", "min")

    def __init__(self, mode: str = "last") -> None:
        if mode not in self._MODES:
            raise ValueError(f"unknown gauge mode {mode!r}")
        self.value = 0.0
        self.mode = mode
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            if self.mode == "max":
                if value > self.value:
                    self.value = value
            elif self.mode == "min":
                if value < self.value:
                    self.value = value
            else:
                self.value = value

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "gauge", "value": self.value,
                    "mode": self.mode}


class Histogram:
    """Fixed-bucket histogram: counts per upper bound plus an overflow
    bucket, with running sum and count (Prometheus-compatible shape).

    ``bounds`` are inclusive upper bounds in increasing order; a value
    lands in the first bucket whose bound is ``>= value``.
    """

    __slots__ = ("bounds", "counts", "sum", "count", "_lock")

    def __init__(self, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("histogram bounds must strictly increase")
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0
        self._lock = threading.Lock()

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``count`` observations of ``value``."""
        with self._lock:
            self.counts[bisect.bisect_left(self.bounds, value)] += count
            self.sum += value * count
            self.count += count

    def observe_bulk(self, values: Iterable[float],
                     counts: Iterable[int]) -> None:
        """Record pre-aggregated ``(value, count)`` pairs.

        The bulk surface keeps the registry numpy-free while letting hot
        callers aggregate with vectorized code first (e.g. a
        ``np.bincount`` over a block) and hand over only the few distinct
        values.
        """
        bounds, buckets = self.bounds, self.counts
        with self._lock:
            for value, count in zip(values, counts):
                value, count = float(value), int(count)
                buckets[bisect.bisect_left(bounds, value)] += count
                self.sum += value * count
                self.count += count

    def snapshot(self) -> dict:
        with self._lock:
            return {"type": "histogram", "bounds": list(self.bounds),
                    "counts": list(self.counts), "sum": self.sum,
                    "count": self.count}


class MetricsRegistry:
    """Name -> instrument table.

    Accessors create on first use and are idempotent; hot paths should
    cache the returned instrument.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def counter(self, name: str) -> Counter:
        inst = self._instruments.get(name)
        if inst is None or not isinstance(inst, Counter):
            inst = self._register(name, Counter, lambda: Counter())
        return inst  # type: ignore[return-value]

    def gauge(self, name: str, mode: str = "last") -> Gauge:
        inst = self._instruments.get(name)
        if inst is None or not isinstance(inst, Gauge):
            inst = self._register(name, Gauge, lambda: Gauge(mode))
        return inst  # type: ignore[return-value]

    def histogram(self, name: str,
                  bounds: Sequence[float] = POW2_BUCKETS) -> Histogram:
        inst = self._instruments.get(name)
        if inst is None or not isinstance(inst, Histogram):
            inst = self._register(name, Histogram,
                                  lambda: Histogram(bounds))
        return inst  # type: ignore[return-value]

    def _register(self, name, expected_type, factory):
        with self._lock:
            inst = self._instruments.get(name)
            if inst is None:
                inst = factory()
                self._instruments[name] = inst
        if not isinstance(inst, expected_type):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(inst).__name__}")
        return inst

    def snapshot(self) -> dict[str, dict]:
        """A JSON-able copy of every instrument, sorted by name."""
        with self._lock:
            items = sorted(self._instruments.items())
        return {name: inst.snapshot() for name, inst in items}

    def merge(self, snapshot: Mapping[str, dict]) -> None:
        """Fold a snapshot (e.g. from a worker process) into this
        registry, following each metric's merge semantics."""
        for name, data in snapshot.items():
            kind = data.get("type")
            if kind == "counter":
                self.counter(name).inc(data["value"])
            elif kind == "gauge":
                gauge = self.gauge(name, data.get("mode", "last"))
                gauge.set(data["value"])
            elif kind == "histogram":
                hist = self.histogram(name, data["bounds"])
                _merge_histogram_into(hist, data)

    def reset(self) -> None:
        with self._lock:
            self._instruments.clear()


def _merge_histogram_into(hist: Histogram, data: Mapping) -> None:
    if list(hist.bounds) != [float(b) for b in data["bounds"]]:
        raise ValueError("cannot merge histograms with different bounds")
    with hist._lock:
        for i, c in enumerate(data["counts"]):
            hist.counts[i] += c
        hist.sum += data["sum"]
        hist.count += data["count"]


_GLOBAL = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The live process-wide registry instrumented code records into
    and the report reads."""
    return _GLOBAL


def reset_metrics() -> None:
    """Clear the global registry (worker-process entry, tests)."""
    _GLOBAL.reset()


def merge_metrics(*snapshots: Mapping[str, dict]) -> dict[str, dict]:
    """Pure merge of metric snapshots into a new snapshot dict.

    Associative and commutative for counters, max/min gauges, and
    histograms; ``"last"`` gauges take the right-most operand.
    """
    acc = MetricsRegistry()
    for snap in snapshots:
        acc.merge(snap)
    return acc.snapshot()
