"""Human progress reporting for long generation runs.

:class:`ProgressReporter` renders a progress line (edges done, edges/s,
ETA, pipeline queue high-water) to a stream.  On a TTY it is a single
carriage-return-refreshed line; on anything else (CI logs, redirected
stderr) it emits throttled newline-terminated lines instead, so the log
is not one garbled ``\\r``-spliced line.  It is push-driven — generation
call sites invoke it once with the edges done when the run starts, then
with the cumulative edge count after each block or task — and throttles
its own redraws, so callers can invoke it as often as they like.
"""

from __future__ import annotations

import sys
import time
from typing import IO

from .metrics import registry

__all__ = ["ProgressReporter", "human_count"]

#: Gauge consulted for the queue-depth readout (set by the pipelined
#: disk sink in :mod:`repro.formats.pipeline`).
QUEUE_GAUGE = "pipeline.queue_high_water"

#: Non-TTY floor on the redraw interval: a line per 2 s keeps CI logs
#: informative without flooding them at the TTY refresh cadence.
NON_TTY_MIN_INTERVAL = 2.0

_UNITS = ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "k"))


def human_count(value: float) -> str:
    """``1234567`` -> ``"1.23M"`` (graph-scale friendly)."""
    for scale, suffix in _UNITS:
        if value >= scale:
            return f"{value / scale:.2f}{suffix}"
    return f"{value:.0f}"


class ProgressReporter:
    """Throttled progress display (single-line on TTYs, line-per-update
    elsewhere).

    Call :meth:`update` with the cumulative number of edges produced so
    far (it is also ``__call__``, so the reporter can be handed around
    as a plain ``progress(edges_done)`` callback); call :meth:`finish`
    once to terminate the line.  The first update is the baseline: the
    edges done before this run started (a resumed run's earlier chunks),
    so edges/s and the ETA count only the edges since it.  ``tty``
    overrides the ``stream.isatty()`` autodetection (tests, forced
    modes).
    """

    def __init__(self, total_edges: int | None = None,
                 stream: IO[str] | None = None,
                 min_interval: float = 0.2,
                 tty: bool | None = None) -> None:
        self.total_edges = total_edges
        self.edges_done = 0
        self._stream = stream if stream is not None else sys.stderr
        if tty is None:
            isatty = getattr(self._stream, "isatty", None)
            try:
                tty = bool(isatty()) if callable(isatty) else False
            except (OSError, ValueError):
                tty = False
        self._tty = tty
        self._min_interval = (min_interval if tty
                              else max(min_interval, NON_TTY_MIN_INTERVAL))
        #: ``(time, edges_done)`` of the first update.
        self._baseline: tuple[float, int] | None = None
        self._last_draw = 0.0
        self._drew = False
        self._finished = False

    def update(self, edges_done: int, *, force: bool = False) -> None:
        if self._finished:
            return
        self.edges_done = edges_done
        now = time.monotonic()
        if self._baseline is None:
            self._baseline = (now, edges_done)
        if now < self._last_draw:
            # Clock went backwards (suspend/resume, container migration):
            # re-arm the throttle instead of muting until it catches up.
            self._last_draw = now
        if not force and now - self._last_draw < self._min_interval:
            return
        self._last_draw = now
        self._draw(now)

    __call__ = update

    def _draw(self, now: float) -> None:
        since, base = self._baseline or (now, self.edges_done)
        rate = (self.edges_done - base) / max(now - since, 1e-9)
        parts = [f"{human_count(self.edges_done)} edges",
                 f"{human_count(rate)} edges/s"]
        if self.total_edges:
            remaining = max(self.total_edges - self.edges_done, 0)
            if rate > 0:
                parts.append(f"ETA {remaining / rate:.0f}s")
            pct = 100.0 * self.edges_done / self.total_edges
            parts.insert(0, f"{pct:5.1f}%")
        # Read-only registry view: a snapshot lookup, not the gauge
        # accessor, so drawing progress never *creates* the instrument.
        queue_data = registry().snapshot().get(QUEUE_GAUGE)
        queue_high = queue_data["value"] if queue_data else 0.0
        if queue_high:
            parts.append(f"queue<={int(queue_high)}")
        line = "  ".join(parts)
        if self._tty:
            self._stream.write("\r" + line.ljust(72))
        else:
            self._stream.write(line + "\n")
        self._stream.flush()
        self._drew = True

    def finish(self) -> None:
        """Draw the final state and terminate the progress line."""
        if self._finished:
            return
        self._draw(time.monotonic())
        self._finished = True
        if self._drew and self._tty:
            self._stream.write("\n")
            self._stream.flush()
