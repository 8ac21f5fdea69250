"""Exporters: structured logging and the JSON report.

One *report* is the JSON-able pair of the metric snapshot and the span
trees, stamped with the report schema version::

    {"schema_version": 1, "metrics": {...}, "spans": [...]}

Everything here renders or ships that shape; nothing in this module is
on a hot path.  Reports are published by :func:`repro.atomic.atomic_write`,
so a crash mid-dump never leaves a truncated report behind.
"""

from __future__ import annotations

import json
import logging
import os
import sys
from pathlib import Path
from typing import Mapping

from ..atomic import atomic_write
from .metrics import merge_metrics, registry
from .spans import merge_span_trees, tracer

__all__ = [
    "LOG_LEVEL_ENV_VAR",
    "SCHEMA_VERSION",
    "configure_logging",
    "get_logger",
    "build_report",
    "merge_reports",
    "write_json_report",
    "log_report",
]

#: Version of the report shape.  Reports written before versioning are
#: treated as version 1 (the shape has not changed, only gained the
#: stamp); :func:`merge_reports` refuses explicit mismatches.
SCHEMA_VERSION = 1

#: Environment variable naming the stdlib log level for the ``repro``
#: logger hierarchy (``DEBUG``/``INFO``/``WARNING``/... or an integer).
LOG_LEVEL_ENV_VAR = "TRILLIONG_LOG_LEVEL"

_ROOT_LOGGER = "repro"
_configured = False


def get_logger(name: str = "") -> logging.Logger:
    """A logger under the ``repro.*`` hierarchy.

    ``get_logger("dist.faults")`` -> ``repro.dist.faults``.  Names that
    already start with ``repro`` are used as-is, so modules can pass
    ``__name__`` directly.
    """
    if not name:
        full = _ROOT_LOGGER
    elif name == _ROOT_LOGGER or name.startswith(_ROOT_LOGGER + "."):
        full = name
    else:
        full = f"{_ROOT_LOGGER}.{name}"
    return logging.getLogger(full)


def configure_logging(level: int | str | None = None,
                      stream=None) -> logging.Logger:
    """Install a handler on the ``repro`` root logger (idempotent).

    ``level`` defaults to ``TRILLIONG_LOG_LEVEL`` (itself defaulting to
    ``WARNING`` so library use stays silent).  Re-calling only adjusts
    the level — handlers are never stacked.
    """
    global _configured
    root = logging.getLogger(_ROOT_LOGGER)
    if level is None:
        level = os.environ.get(LOG_LEVEL_ENV_VAR, "WARNING")
    if isinstance(level, str):
        level = level.strip().upper()
        if level.isdigit():
            level = int(level)
    root.setLevel(level)
    if not _configured:
        handler = logging.StreamHandler(stream or sys.stderr)
        handler.setFormatter(logging.Formatter(
            "%(asctime)s %(levelname)s %(name)s: %(message)s",
            datefmt="%H:%M:%S"))
        root.addHandler(handler)
        root.propagate = False
        _configured = True
    return root


def build_report(extra: Mapping[str, object] | None = None) -> dict:
    """Snapshot the live registry + tracer into one report dict."""
    report = {
        "schema_version": SCHEMA_VERSION,
        "metrics": registry().snapshot(),
        "spans": tracer().snapshot(),
    }
    if extra:
        report.update(extra)
    return report


def _report_version(report: Mapping) -> int:
    """A report's schema version; missing means pre-versioning = 1."""
    raw = report.get("schema_version", SCHEMA_VERSION)
    try:
        return int(raw)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValueError(
            f"unintelligible report schema_version: {raw!r}") from None


def merge_reports(*reports: Mapping) -> dict:
    """Pure merge of reports (metrics by metric semantics, spans by
    name-aligned tree merge); associative, ignores extra keys.

    Refuses reports whose ``schema_version`` differs from
    :data:`SCHEMA_VERSION` (a silent cross-version merge could blend
    incompatible metric semantics); reports without the stamp are
    tolerated as version 1.
    """
    for report in reports:
        version = _report_version(report)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"cannot merge report with schema_version={version} "
                f"(this build writes {SCHEMA_VERSION})")
    return {
        "schema_version": SCHEMA_VERSION,
        "metrics": merge_metrics(*(r.get("metrics", {}) for r in reports)),
        "spans": merge_span_trees(*(r.get("spans", ()) for r in reports)),
    }


def write_json_report(path: Path | str,
                      report: Mapping | None = None) -> Path:
    """Dump a report (default: a fresh :func:`build_report`) as JSON,
    published by :func:`~repro.atomic.atomic_write`."""
    path = Path(path)
    if report is None:
        report = build_report()
    doc = dict(report)
    doc.setdefault("schema_version", SCHEMA_VERSION)
    with atomic_write(path) as tmp:
        tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return path


def _num(value: float) -> str:
    """Render integral floats without the trailing ``.0`` so counters
    read naturally."""
    f = float(value)
    return str(int(f)) if f.is_integer() else repr(f)


def log_report(report: Mapping | None = None,
               logger: logging.Logger | None = None,
               level: int = logging.INFO) -> None:
    """Emit a report through the ``repro.telemetry`` logger: one line
    per metric, one line per span node (indented by depth)."""
    if report is None:
        report = build_report()
    if logger is None:
        logger = get_logger("telemetry")
    if not logger.isEnabledFor(level):
        return
    for name, data in report.get("metrics", {}).items():
        kind = data.get("type")
        if kind == "histogram":
            logger.log(level, "metric %s: count=%d sum=%s",
                       name, data["count"], _num(data["sum"]))
        else:
            logger.log(level, "metric %s: %s", name, _num(data["value"]))

    def walk(node: Mapping, depth: int) -> None:
        logger.log(
            level, "span %s%s: count=%d total=%.6fs exclusive=%.6fs",
            "  " * depth, node["name"], node["count"],
            node["total_seconds"], node["exclusive_seconds"])
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for root in report.get("spans", ()):
        walk(root, 0)
