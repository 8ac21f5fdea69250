"""Exporter coverage: JSON reports, the logger hierarchy, and the
progress line."""

from __future__ import annotations

import io
import json
import logging

import pytest

from repro.telemetry import (SCHEMA_VERSION, ProgressReporter,
                             build_report, get_logger, log_report,
                             merge_reports, registry, span,
                             write_json_report)
from repro.telemetry.progress import QUEUE_GAUGE, human_count


def _populate():
    reg = registry()
    reg.counter("generator.edges").inc(1024)
    reg.gauge("pipeline.queue_high_water", mode="max").set(3)
    reg.histogram("generator.scope_size", bounds=(1.0, 2.0)).observe(2.0)
    with span("generate", scale=8):
        with span("format.write_blocks"):
            pass


def test_build_report_shape_and_json_roundtrip(tmp_path):
    _populate()
    report = build_report(extra={"scale": 8})
    assert report["scale"] == 8
    assert report["metrics"]["generator.edges"]["value"] == 1024.0
    (root,) = report["spans"]
    assert root["name"] == "generate"
    assert root["children"][0]["name"] == "format.write_blocks"
    path = write_json_report(tmp_path / "run.json", report)
    assert json.loads(path.read_text()) == json.loads(
        json.dumps(report))          # fully JSON-able, no lossy types


def test_merge_reports_combines_both_halves():
    _populate()
    report = build_report()
    merged = merge_reports(report, report)
    assert merged["metrics"]["generator.edges"]["value"] == 2048.0
    (root,) = merged["spans"]
    assert root["count"] == 2


def test_build_report_stamps_schema_version():
    assert build_report()["schema_version"] == SCHEMA_VERSION


def test_write_json_report_stamps_and_is_atomic(tmp_path):
    path = write_json_report(tmp_path / "run.json",
                             {"metrics": {}, "spans": []})
    doc = json.loads(path.read_text())
    assert doc["schema_version"] == SCHEMA_VERSION
    assert list(tmp_path.glob("*.partial.*")) == []
    # Overwrite replaces the whole document atomically.
    write_json_report(path, {"metrics": {}, "spans": [], "marker": 1})
    assert json.loads(path.read_text())["marker"] == 1
    assert list(tmp_path.glob("*.partial.*")) == []


def test_merge_reports_refuses_version_mismatch():
    _populate()
    current = build_report()
    legacy = {k: v for k, v in current.items() if k != "schema_version"}
    merged = merge_reports(current, legacy)    # missing stamp: version 1
    assert merged["schema_version"] == SCHEMA_VERSION
    future = dict(current, schema_version=SCHEMA_VERSION + 1)
    with pytest.raises(ValueError, match="schema_version=2"):
        merge_reports(current, future)
    with pytest.raises(ValueError, match="unintelligible"):
        merge_reports(dict(current, schema_version="not-a-number"))


def test_get_logger_hierarchy():
    assert get_logger().name == "repro"
    assert get_logger("dist.faults").name == "repro.dist.faults"
    assert get_logger("repro.formats").name == "repro.formats"


def test_log_report_emits_one_line_per_item():
    _populate()
    logger = logging.getLogger("repro.test_log_report")
    logger.propagate = False
    logger.setLevel(logging.INFO)
    stream = io.StringIO()
    handler = logging.StreamHandler(stream)
    logger.addHandler(handler)
    try:
        log_report(logger=logger)
    finally:
        logger.removeHandler(handler)
    lines = stream.getvalue().splitlines()
    assert any("metric generator.edges: 1024" in ln for ln in lines)
    assert any("span generate" in ln for ln in lines)
    assert any("span   format.write_blocks" in ln for ln in lines)


def test_human_count():
    assert human_count(950) == "950"
    assert human_count(2_500) == "2.50k"
    assert human_count(3_000_000) == "3.00M"
    assert human_count(4_200_000_000) == "4.20G"
    assert human_count(1_100_000_000_000) == "1.10T"


def test_progress_reporter_renders_rate_and_queue():
    registry().gauge(QUEUE_GAUGE, mode="max").set(5)
    stream = io.StringIO()
    reporter = ProgressReporter(total_edges=1000, stream=stream,
                                min_interval=0.0)
    reporter(250)
    reporter(1000)
    reporter.finish()
    text = stream.getvalue()
    assert "25.0%" in text
    assert "100.0%" in text
    assert "queue<=5" in text
    assert text.endswith("\n")           # finish() terminates the line
