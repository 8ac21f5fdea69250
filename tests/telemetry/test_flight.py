"""Flight-recorder coverage: sampling, the bounded ring, crash-dump
files, ``flight=`` resolution, and the process-wide session."""

from __future__ import annotations

import json
import sys
import threading

import pytest

from repro.telemetry import global_registry, span
from repro.telemetry.flight import (DEFAULT_FLIGHT_CAPACITY,
                                    DEFAULT_FLIGHT_INTERVAL, FlightRecorder,
                                    current_recorder, flatten_metrics,
                                    flight_session, read_proc_vitals,
                                    resolve_flight_interval, start_flight,
                                    stop_flight)


@pytest.fixture(autouse=True)
def no_leaked_recorder():
    """A test that fails mid-session must not leave the process-wide
    recorder running for the next test."""
    yield
    stop_flight()


def test_flatten_metrics_flattens_each_family():
    reg = global_registry()
    reg.counter("generator.edges").inc(64)
    reg.gauge("pipeline.queue_depth").set(3)
    reg.histogram("generator.scope_size", bounds=(1.0, 2.0)).observe(1.5)
    flat = flatten_metrics(reg.snapshot())
    assert flat["generator.edges"] == 64.0
    assert flat["pipeline.queue_depth"] == 3.0
    assert flat["generator.scope_size.count"] == 1.0


def test_read_proc_vitals_best_effort():
    vitals = read_proc_vitals()
    assert all(isinstance(v, int) for v in vitals.values())
    if sys.platform == "linux":
        assert vitals["rss_bytes"] > 0


def test_sample_shape_includes_metrics_and_active_spans():
    global_registry().counter("generator.edges").inc(7)
    recorder = FlightRecorder(interval=60.0)
    with span("generate"):
        with span("format.write_blocks"):
            sample = recorder.sample()
    assert sample["elapsed"] >= 0.0
    assert sample["metrics"]["generator.edges"] == 7.0
    (stack,) = sample["spans"].values()
    assert stack == ["generate", "format.write_blocks"]
    # Outside any span the key is simply absent.
    assert "spans" not in recorder.sample()


def test_ring_evicts_oldest_and_counts_drops():
    recorder = FlightRecorder(interval=60.0, capacity=3)
    for _ in range(5):
        recorder.sample()
    assert len(recorder.tail()) == 3
    assert recorder.dropped == 2
    assert recorder.tail(limit=1)[0] is recorder.tail()[-1]
    snap = recorder.snapshot(limit=2)
    assert len(snap["samples"]) == 2
    assert snap["dropped"] == 3          # 2 evicted + 1 cut by the limit
    assert snap["capacity"] == 3


def test_sampler_thread_runs_and_stop_takes_final_sample():
    recorder = FlightRecorder(interval=0.02)
    recorder.start()
    assert recorder.running
    assert recorder.start() is recorder      # idempotent while running
    event = threading.Event()
    event.wait(0.1)
    recorder.stop()
    assert not recorder.running
    # Periodic samples plus the final one on stop.
    assert len(recorder.tail()) >= 2
    # A sub-interval run still leaves the stop-time sample.
    short = FlightRecorder(interval=60.0).start()
    short.stop()
    assert len(short.tail()) == 1


def test_dump_path_rewritten_atomically(tmp_path):
    dump = tmp_path / "part-0000.adj6.flight"
    recorder = FlightRecorder(interval=60.0, dump_path=dump)
    recorder.sample()
    doc = json.loads(dump.read_text())
    assert len(doc["samples"]) == 1
    recorder.sample()
    assert len(json.loads(dump.read_text())["samples"]) == 2
    assert list(tmp_path.glob("*.partial.*")) == []
    recorder.stop(remove_dump=True)
    assert not dump.exists()


def test_dump_survives_stop_without_removal(tmp_path):
    dump = tmp_path / "w.flight"
    recorder = FlightRecorder(interval=60.0, dump_path=dump).start()
    recorder.stop()
    assert json.loads(dump.read_text())["samples"]


def test_resolve_flight_interval():
    assert resolve_flight_interval(None) is None
    assert resolve_flight_interval(False) is None
    assert resolve_flight_interval(True) == DEFAULT_FLIGHT_INTERVAL
    assert resolve_flight_interval(0.2) == 0.2
    assert resolve_flight_interval(0.001) == 0.01    # clamped to the floor


def test_recorder_defaults():
    recorder = FlightRecorder()
    assert recorder.interval == DEFAULT_FLIGHT_INTERVAL
    assert recorder.capacity == DEFAULT_FLIGHT_CAPACITY


def test_process_wide_recorder_lifecycle():
    assert current_recorder() is None
    recorder = start_flight(0.05)
    assert current_recorder() is recorder and recorder.running
    assert start_flight(0.05) is recorder    # already running: reused
    stopped = stop_flight()
    assert stopped is recorder
    assert not recorder.running
    assert stopped.tail()                    # samples survive the stop
    assert current_recorder() is None
    assert stop_flight() is None             # idempotent


def test_flight_session_off_yields_none():
    with flight_session(False) as recorder:
        assert recorder is None
    assert current_recorder() is None


def test_flight_session_runs_and_stops_recorder():
    with flight_session(0.05) as recorder:
        assert recorder is current_recorder()
        assert recorder.running
    assert current_recorder() is None
    assert not recorder.running
