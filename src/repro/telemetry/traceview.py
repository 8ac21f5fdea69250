"""Chrome Trace Event Format export (Perfetto / chrome://tracing).

Renders a finished telemetry report — merged span trees and per-worker
span trees — to the Trace Event JSON format, so a run can be inspected
afterwards on a zoomable timeline instead of as nested count/seconds
dicts.

The span trees are *aggregates* (PR 4): a node holds count and total
seconds, not individual begin/end timestamps.  The exporter therefore
lays out a **synthetic proportional timeline**: each root starts where
the previous root ended, and children are placed sequentially inside
their parent, each with ``dur = total_seconds``.  Horizontal extent is
faithful (a span twice as wide cost twice the wall time); horizontal
*position* is schematic.  docs/cookbook.md walks through reading one.

Track layout:

- ``tid 1`` — the supervisor/main process's merged span tree.
- ``tid 101 + task_index`` — one track per distributed worker report
  (the tagged snapshots collected by :func:`record_worker_report`), so
  per-worker skew is visible instead of vanishing into the merge.

All events live in one synthetic process (``pid 1``) named after the
run.  Load the file with Perfetto (ui.perfetto.dev) or
``chrome://tracing``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from ..atomic import atomic_write

__all__ = [
    "build_trace",
    "write_trace",
    "SUPERVISOR_TID",
    "WORKER_TID_BASE",
]

SUPERVISOR_TID = 1
WORKER_TID_BASE = 101

_PID = 1


def _meta(name: str, tid: int, value: str) -> dict:
    return {"ph": "M", "name": name, "pid": _PID, "tid": tid,
            "args": {"name": value}}


def _us(seconds: float) -> int:
    return max(0, int(round(seconds * 1e6)))


def _emit_tree(node: Mapping, ts_us: int, tid: int,
               events: list[dict]) -> int:
    """Emit one span node and its children; returns the node's end ts.

    Children are laid out sequentially from the parent's start.  A
    parent narrower than its children (possible after lossy merges of
    overlapping worker time) is widened to contain them, keeping the
    nesting visually well-formed.
    """
    child_ts = ts_us
    child_events: list[dict] = []
    for child in node.get("children", ()):
        child_ts = _emit_tree(child, child_ts, tid, child_events)
    dur = max(_us(float(node.get("total_seconds", 0.0))),
              child_ts - ts_us, 1)
    args: dict = {"count": node.get("count", 0),
                  "total_seconds": node.get("total_seconds", 0.0),
                  "exclusive_seconds": node.get("exclusive_seconds", 0.0)}
    attrs = node.get("attrs") or {}
    if attrs:
        args["attrs"] = {k: str(v) for k, v in attrs.items()}
    events.append({"ph": "X", "name": str(node.get("name", "?")),
                   "cat": "span", "pid": _PID, "tid": tid,
                   "ts": ts_us, "dur": dur, "args": args})
    events.extend(child_events)
    return ts_us + dur


def _emit_trees(trees: Iterable[Mapping], tid: int,
                events: list[dict]) -> None:
    ts = 0
    for root in trees:
        ts = _emit_tree(root, ts, tid, events)


def build_trace(report: Mapping | None = None, *,
                worker_reports: Sequence[Mapping] = (),
                label: str = "trilliong") -> dict:
    """Assemble the Trace Event JSON document (as a dict).

    ``report`` is a PR 4 report (``{"metrics", "spans", ...}``);
    ``worker_reports`` are the tagged per-worker snapshots (each with
    ``task_index``/``attempt`` keys).  Either may be omitted.
    """
    events: list[dict] = [_meta("process_name", 0, label),
                          _meta("thread_name", SUPERVISOR_TID, "supervisor")]
    if report is not None:
        _emit_trees(report.get("spans", ()), SUPERVISOR_TID, events)
        if not worker_reports and isinstance(
                report.get("worker_reports"), Sequence):
            worker_reports = report["worker_reports"]
    seen_tids: set[int] = set()
    for position, worker in enumerate(worker_reports):
        index = worker.get("task_index")
        if not isinstance(index, int):
            index = position
        tid = WORKER_TID_BASE + index
        while tid in seen_tids:          # retries of the same task index
            tid += len(worker_reports) + 1
        seen_tids.add(tid)
        name = f"worker {index}"
        attempt = worker.get("attempt")
        if isinstance(attempt, int) and attempt > 1:
            name += f" (attempt {attempt})"
        events.append(_meta("thread_name", tid, name))
        _emit_trees(worker.get("spans", ()), tid, events)
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"generator": label,
                          "layout": "synthetic-proportional"}}


def write_trace(path: Path | str, report: Mapping | None = None, *,
                worker_reports: Sequence[Mapping] = (),
                label: str = "trilliong") -> Path:
    """Build a trace file and publish it with
    :func:`~repro.atomic.atomic_write`, so a crash mid-export never
    leaves a truncated JSON behind."""
    path = Path(path)
    doc = build_trace(report, worker_reports=worker_reports,
                      label=label)
    with atomic_write(path) as tmp:
        tmp.write_text(json.dumps(doc) + "\n", encoding="utf-8")
    return path
