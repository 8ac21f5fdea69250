"""repro.telemetry — unified metrics, spans, progress, and the run report.

The zero-dependency observability layer the rest of the pipeline reports
through (stdlib only — no numpy, no repro imports):

- :func:`registry` / :class:`MetricsRegistry` — counters, gauges,
  fixed-bucket histograms; always recording.
- :func:`span` / :class:`Stopwatch` — hierarchical phase timing and the
  accumulator primitive that replaced the ad-hoc ``perf_counter()``
  pairs.
- :func:`snapshot_telemetry` / :func:`absorb_telemetry` — the
  cross-process protocol: workers snapshot, the supervisor absorbs, and
  a distributed run yields one coherent report.
- :mod:`.traceview` — offline Chrome Trace Event Format export of a
  finished report, for Perfetto/chrome://tracing (imported from its
  submodule by ``--trace-out``, not re-exported here).
- :mod:`.export` — structured ``repro.*`` logging and the JSON report;
  :mod:`.progress` — the human ``--progress`` line.

See ``docs/observability.md`` for the metric catalog and span taxonomy.
"""

from __future__ import annotations

import threading
from typing import Mapping

from .export import (LOG_LEVEL_ENV_VAR, SCHEMA_VERSION, build_report,
                     configure_logging, get_logger, log_report,
                     merge_reports, write_json_report)
from .metrics import (POW2_BUCKETS, Counter, Gauge, Histogram,
                      MetricsRegistry, merge_metrics, registry,
                      reset_metrics)
from .progress import ProgressReporter, human_count
from .spans import (Span, SpanNode, Stopwatch, Tracer, merge_span_trees,
                    reset_tracer, span, tracer)

__all__ = [
    # switches
    "LOG_LEVEL_ENV_VAR",
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry", "registry",
    "reset_metrics", "merge_metrics", "POW2_BUCKETS",
    # spans
    "span", "Span", "SpanNode", "Stopwatch", "Tracer", "tracer",
    "reset_tracer", "merge_span_trees",
    # cross-process protocol
    "snapshot_telemetry", "absorb_telemetry", "reset_telemetry",
    "record_worker_report", "worker_reports",
    # exporters / progress
    "SCHEMA_VERSION", "build_report", "merge_reports", "write_json_report",
    "log_report",
    "configure_logging", "get_logger", "ProgressReporter", "human_count",
]


def snapshot_telemetry() -> dict:
    """Serialize this process's metrics + span trees (JSON/pickle-able).

    This is what a worker ships back to the supervisor alongside its
    result payload.
    """
    return build_report()


def absorb_telemetry(snapshot: Mapping) -> None:
    """Merge a worker-process snapshot into this process's live
    telemetry: metrics by their merge semantics, span trees grafted
    under the currently active span (see :meth:`Tracer.attach`)."""
    registry().merge(snapshot.get("metrics", {}))
    tracer().attach(snapshot.get("spans", ()))


# Per-worker snapshots as shipped (tagged with task_index/attempt),
# kept verbatim alongside the merged aggregate so the trace exporter
# can draw each worker on its own track.  Bounded: a pathological
# retry storm must not grow supervisor memory without limit.
_WORKER_REPORT_CAP = 512
_worker_reports: list[dict] = []
_worker_reports_lock = threading.Lock()


def record_worker_report(snapshot: Mapping) -> None:
    """Retain one worker's tagged snapshot verbatim (supervisor side).

    :func:`absorb_telemetry` merges it into the aggregate; this keeps
    the un-merged original for per-worker trace tracks.  Oldest reports
    are dropped beyond a fixed cap.
    """
    with _worker_reports_lock:
        _worker_reports.append(dict(snapshot))
        if len(_worker_reports) > _WORKER_REPORT_CAP:
            del _worker_reports[:len(_worker_reports) - _WORKER_REPORT_CAP]


def worker_reports() -> tuple[dict, ...]:
    """The retained per-worker snapshots, oldest first."""
    with _worker_reports_lock:
        return tuple(_worker_reports)


def reset_telemetry() -> None:
    """Clear all telemetry state — called at worker-process entry so a
    forked child does not re-report metrics inherited from its parent,
    and by tests."""
    reset_metrics()
    reset_tracer()
    with _worker_reports_lock:
        _worker_reports.clear()
