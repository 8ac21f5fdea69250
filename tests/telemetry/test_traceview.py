"""Chrome Trace Event export: synthetic-proportional layout, per-worker
tracks, and atomic file writes."""

from __future__ import annotations

import json

from repro.telemetry import build_report, span
from repro.telemetry.traceview import (SUPERVISOR_TID, WORKER_TID_BASE,
                                       build_trace, write_trace)


def _events(doc, ph=None, tid=None):
    out = doc["traceEvents"]
    if ph is not None:
        out = [e for e in out if e["ph"] == ph]
    if tid is not None:
        out = [e for e in out if e["tid"] == tid]
    return out


def _span_tree(name, seconds, children=()):
    return {"name": name, "count": 1, "total_seconds": seconds,
            "exclusive_seconds": seconds, "children": list(children)}


def test_supervisor_track_lays_spans_proportionally():
    report = {"spans": [
        _span_tree("generate", 2.0,
                   [_span_tree("a", 0.5), _span_tree("b", 1.0)]),
        _span_tree("merge", 1.0),
    ]}
    doc = build_trace(report, label="run")
    metas = {e["name"]: e for e in _events(doc, ph="M")}
    assert metas["process_name"]["args"]["name"] == "run"
    assert metas["thread_name"]["args"]["name"] == "supervisor"
    spans = {e["name"]: e for e in _events(doc, ph="X",
                                           tid=SUPERVISOR_TID)}
    generate, a, b = spans["generate"], spans["a"], spans["b"]
    assert generate["ts"] == 0 and generate["dur"] == 2_000_000
    # Children sit sequentially inside the parent.
    assert a["ts"] == 0 and a["dur"] == 500_000
    assert b["ts"] == 500_000 and b["dur"] == 1_000_000
    # Roots sit sequentially after one another.
    assert spans["merge"]["ts"] == 2_000_000
    assert generate["args"]["count"] == 1


def test_parent_widened_to_contain_children():
    report = {"spans": [_span_tree("outer", 0.1,
                                   [_span_tree("inner", 5.0)])]}
    doc = build_trace(report)
    spans = {e["name"]: e for e in _events(doc, ph="X")}
    assert spans["outer"]["dur"] >= spans["inner"]["dur"]


def test_worker_reports_get_distinct_tracks_and_retry_bump():
    workers = [
        {"task_index": 0, "attempt": 1,
         "spans": [_span_tree("worker.generate", 1.0)]},
        {"task_index": 1, "attempt": 1,
         "spans": [_span_tree("worker.generate", 1.5)]},
        {"task_index": 0, "attempt": 2,
         "spans": [_span_tree("worker.generate", 0.5)]},
    ]
    doc = build_trace(worker_reports=workers)
    names = {e["tid"]: e["args"]["name"]
             for e in _events(doc, ph="M") if e["name"] == "thread_name"}
    worker_names = [v for v in names.values() if v.startswith("worker")]
    assert sorted(worker_names) == ["worker 0", "worker 0 (attempt 2)",
                                    "worker 1"]
    assert names[WORKER_TID_BASE] == "worker 0"
    assert names[WORKER_TID_BASE + 1] == "worker 1"
    # The retry collided with tid 101 and was bumped to a fresh track.
    tids = {tid for tid, v in names.items() if v.startswith("worker")}
    assert len(tids) == 3
    for tid in tids:
        assert len(_events(doc, ph="X", tid=tid)) == 1


def test_report_embedded_workers_are_fallbacks():
    report = {
        "spans": [_span_tree("generate", 1.0)],
        "worker_reports": [{"task_index": 0,
                            "spans": [_span_tree("worker.generate", 1.0)]}],
    }
    doc = build_trace(report)
    assert _events(doc, ph="X", tid=WORKER_TID_BASE)
    # An explicit argument wins over the embedded fallback.
    override = build_trace(report,
                           worker_reports=[{"task_index": 3, "spans": []}])
    assert _events(override, ph="X", tid=WORKER_TID_BASE) == []


def test_build_trace_from_live_report():
    with span("generate", scale=8):
        with span("format.write_blocks"):
            pass
    doc = build_trace(build_report())
    spans = {e["name"] for e in _events(doc, ph="X")}
    assert {"generate", "format.write_blocks"} <= spans
    generate = next(e for e in _events(doc, ph="X")
                    if e["name"] == "generate")
    assert generate["args"]["attrs"] == {"scale": "8"}
    assert doc["otherData"]["layout"] == "synthetic-proportional"


def test_write_trace_is_atomic_valid_json(tmp_path):
    path = tmp_path / "trace.json"
    report = {"spans": [_span_tree("generate", 1.0)]}
    out = write_trace(path, report)
    assert out == path
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]
    assert list(tmp_path.glob("*.partial.*")) == []
    # Overwrite in place keeps the file coherent.
    write_trace(path, {"spans": [_span_tree("merge", 2.0)]})
    names = {e.get("name") for e in json.loads(path.read_text())
             ["traceEvents"]}
    assert "merge" in names and "generate" not in names
