"""Introspection HTTP server: endpoint payloads, read-only semantics,
and live observation of a real in-progress generation."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from urllib.error import HTTPError
from urllib.request import urlopen

import pytest

import repro
from repro.system import TrillionG
from repro.telemetry import global_registry, span
from repro.telemetry.flight import start_flight, stop_flight
from repro.telemetry.server import (TelemetryServer, progress_payload,
                                    start_server)

PACKAGE_DIR = str(Path(repro.__file__).resolve().parent)


def _get(url):
    with urlopen(url, timeout=5) as response:
        return (response.status,
                response.headers.get("Content-Type", ""),
                response.read().decode("utf-8"))


def _get_json(url):
    status, _, body = _get(url)
    assert status == 200
    return json.loads(body)


def test_progress_payload_reads_registry_and_spans():
    global_registry().counter("generator.edges").inc(500)
    with span("generate"):
        payload = progress_payload(total_edges=1000,
                                   started_monotonic=None)
        assert payload["edges_done"] == 500
        assert payload["total_edges"] == 1000
        assert payload["percent"] == 50.0
        assert payload["phase"] == "generate"
        assert "generate" in payload["active_spans"].popitem()[1]
    # Without a total or a start time the payload stays minimal.
    assert progress_payload() == {"edges_done": 500}


def test_progress_payload_rate_and_eta(monkeypatch):
    import time
    global_registry().counter("generator.edges").inc(100)
    payload = progress_payload(total_edges=300,
                               started_monotonic=time.monotonic() - 2.0)
    assert payload["elapsed_seconds"] >= 2.0
    assert payload["edges_per_second"] == pytest.approx(50.0, rel=0.1)
    assert payload["eta_seconds"] == pytest.approx(4.0, rel=0.1)


def test_endpoints_serve_current_state():
    global_registry().counter("generator.edges").inc(42)
    with TelemetryServer(0, total_edges=100) as server:
        assert server.port > 0
        health = _get_json(f"{server.url}/healthz")
        assert health["status"] == "ok"
        assert health["uptime_seconds"] >= 0.0
        status, ctype, metrics = _get(f"{server.url}/metrics")
        assert status == 200 and ctype.startswith("text/plain")
        assert "trilliong_generator_edges 42" in metrics
        with span("generate"):
            progress = _get_json(f"{server.url}/progress")
            spans = _get_json(f"{server.url}/spans")
        assert progress["edges_done"] == 42
        assert progress["percent"] == 42.0
        assert progress["phase"] == "generate"
        assert any("generate" in stack
                   for stack in spans["active"].values())
        # The span finished above; now it shows up as a finished tree.
        spans_after = _get_json(f"{server.url}/spans")
        assert [n["name"] for n in spans_after["spans"]] == ["generate"]
        assert spans_after["active"] == {}


def test_unknown_route_and_missing_recorder_404():
    with TelemetryServer(0) as server:
        for route in ("/nope", "/flight"):
            with pytest.raises(HTTPError) as info:
                urlopen(f"{server.url}{route}", timeout=5)
            assert info.value.code == 404


def test_flight_endpoint_serves_recorder_tail():
    recorder = start_flight(60.0)
    try:
        recorder.sample()
        recorder.sample()
        with TelemetryServer(0) as server:
            doc = _get_json(f"{server.url}/flight")
            assert len(doc["samples"]) == 2
            limited = _get_json(f"{server.url}/flight?limit=1")
            assert len(limited["samples"]) == 1
            assert limited["dropped"] == 1
    finally:
        stop_flight()


def test_start_server_binds_an_ephemeral_port():
    server = start_server(0, total_edges=10)
    try:
        assert server.port != 0
        assert _get_json(f"{server.url}/healthz")["status"] == "ok"
    finally:
        server.stop()


def test_serving_is_read_only():
    """Probing every endpoint must not create instruments or spans."""
    before = dict(global_registry().snapshot())
    with TelemetryServer(0, total_edges=10) as server:
        _get(f"{server.url}/metrics")
        _get_json(f"{server.url}/progress")
        _get_json(f"{server.url}/spans")
    assert global_registry().snapshot() == before


def test_observers_import_no_generator_code():
    """The flight recorder, the server and the trace exporter must not
    pull in generator machinery: read-only code with a path to the hot
    loop could perturb the run it watches.  The ``repro`` package's own
    ``__init__`` re-exports the generator for users, so it is stubbed to
    measure only what the observers import."""
    probe = (
        "import sys, types\n"
        f"pkg = types.ModuleType('repro'); pkg.__path__ = [{PACKAGE_DIR!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.telemetry.flight, repro.telemetry.server\n"
        "import repro.telemetry.traceview\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.core', 'repro.models'))))\n")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_observed_run_writes_the_same_bytes(tmp_path):
    """Flight recorder and HTTP server on must not change the graph."""
    TrillionG(scale=12, edge_factor=8, seed=5).generate_to(
        tmp_path / "plain.adj6", fmt="adj6")
    TrillionG(scale=12, edge_factor=8, seed=5, flight=0.01,
              serve_telemetry=0).generate_to(tmp_path / "seen.adj6",
                                             fmt="adj6")
    assert ((tmp_path / "seen.adj6").read_bytes()
            == (tmp_path / "plain.adj6").read_bytes())


def test_live_introspection_mid_generation(tmp_path):
    """Deterministic live observation: a progress hook fires between
    blocks of a real sequential run and polls the server — the payloads
    must show the run part-way through, inside its ``generate`` span."""
    tg = TrillionG(scale=12, edge_factor=16, seed=7, block_size=256)
    polled: dict = {}

    with TelemetryServer(0, total_edges=tg.num_edges) as server:
        def probe(edges_done: int) -> None:
            if not polled and edges_done < tg.num_edges:
                polled["progress"] = _get_json(f"{server.url}/progress")
                polled["metrics"] = _get(f"{server.url}/metrics")[2]

        result = tg.generate_to(tmp_path / "g.adj6", fmt="adj6",
                                progress=probe)

    progress = polled["progress"]
    assert 0 < progress["edges_done"] < result.num_edges
    assert 0 < progress["percent"] < 100.0
    # The deepest live frame is the phase: mid-write that is the format
    # span, nested inside the run's ``generate`` root.
    assert progress["phase"] == "format.write_blocks"
    assert any(stack[0] == "generate"
               for stack in progress["active_spans"].values())
    assert "trilliong_generator_edges" in polled["metrics"]


def test_system_serve_telemetry_wiring(tmp_path, caplog):
    """``TrillionG(serve_telemetry=0)`` runs the server for exactly the
    duration of ``generate_to``: reachable mid-run, gone after."""
    import logging
    caplog.set_level(logging.INFO, logger="repro.telemetry.server")
    tg = TrillionG(scale=11, edge_factor=8, seed=3, block_size=512,
                   serve_telemetry=0)
    seen: dict = {}

    def probe(edges_done: int) -> None:
        if seen:
            return
        (record,) = [r for r in caplog.records
                     if "listening" in r.getMessage()]
        url = record.getMessage().rsplit(" ", 1)[-1]
        seen["url"] = url
        seen["health"] = _get_json(f"{url}/healthz")

    tg.generate_to(tmp_path / "g.adj6", fmt="adj6", progress=probe)
    assert seen["health"]["status"] == "ok"
    with pytest.raises(OSError):
        urlopen(f"{seen['url']}/healthz", timeout=1)
