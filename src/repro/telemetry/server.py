"""In-process introspection HTTP server (stdlib only).

A :class:`TelemetryServer` wraps a ``ThreadingHTTPServer`` running on a
daemon thread inside the generating process, exposing the live
telemetry state over read-only ``GET`` endpoints — the per-job surface
the planned generation-as-a-service layer will mount per job:

===========  ==============================================================
endpoint     payload
===========  ==============================================================
/healthz     ``{"status": "ok", "uptime_seconds": ...}``
/metrics     Prometheus text exposition (:func:`to_prometheus`)
/progress    JSON: edges done, edges/s, ETA seconds, percent, active phase
/spans       JSON: finished span trees + every thread's live span stack
/flight      JSON: the flight recorder's retained time series (404 when
             no recorder is running; ``?limit=N`` tails the samples)
===========  ==============================================================

The server is **read-only** introspection (reprolint RPL509): handlers
only ever call ``global_registry().snapshot()`` / ``tracer()`` views —
never the instrument accessors, which would *create* metrics — and they
never draw from RNG streams, so serving traffic mid-run cannot perturb
generation output.

Enable with ``--serve-telemetry PORT`` on the CLI or
``TrillionG(serve_telemetry=PORT)`` (port ``0`` picks a free ephemeral
port; read it back from ``server.port``).  The server
binds ``127.0.0.1`` by default: the payloads are not sensitive, but
there is no auth, so exposing it wider is an explicit choice.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from .export import get_logger, to_prometheus
from .flight import current_recorder
from .metrics import global_registry
from .spans import tracer

__all__ = [
    "TelemetryServer",
    "start_server",
    "progress_payload",
]

#: Counters consulted (in order) for the "edges done" progress figure:
#: the generator-side count when this process generates, the sink-side
#: count when it only writes (e.g. a dist supervisor merging chunks).
_EDGE_COUNTERS = ("generator.edges", "format.edges_written")


def progress_payload(total_edges: int | None = None,
                     started_monotonic: float | None = None) -> dict:
    """The ``/progress`` JSON body, computed purely from registry and
    tracer *views* (read-only — safe to call from any thread)."""
    snapshot = global_registry().snapshot()
    edges_done = 0.0
    for name in _EDGE_COUNTERS:
        data = snapshot.get(name)
        if data is not None and data.get("value"):
            edges_done = float(data["value"])
            break
    payload: dict = {"edges_done": int(edges_done)}
    if started_monotonic is not None:
        elapsed = max(time.monotonic() - started_monotonic, 1e-9)
        rate = edges_done / elapsed
        payload["elapsed_seconds"] = round(elapsed, 3)
        payload["edges_per_second"] = round(rate, 1)
        if total_edges and rate > 0:
            remaining = max(total_edges - edges_done, 0.0)
            payload["eta_seconds"] = round(remaining / rate, 1)
    if total_edges:
        payload["total_edges"] = int(total_edges)
        payload["percent"] = round(100.0 * edges_done / total_edges, 2)
    stacks = tracer().active_stacks()
    if stacks:
        payload["active_spans"] = stacks
        # The deepest frame across threads is "the" phase label.
        deepest = max(stacks.values(), key=len)
        payload["phase"] = deepest[-1]
    return payload


class _Handler(BaseHTTPRequestHandler):
    """Routes GETs to the read-only views; everything else is 404/405."""

    server: "_Server"  # narrowed from BaseHTTPRequestHandler

    def do_GET(self) -> None:  # noqa: N802 - stdlib handler contract
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        owner = self.server.owner
        if route in ("/", "/healthz"):
            self._json({"status": "ok",
                        "uptime_seconds": round(
                            time.monotonic() - owner.started_monotonic, 3)})
        elif route == "/metrics":
            body = to_prometheus().encode("utf-8")
            self._respond(200, body, "text/plain; version=0.0.4")
        elif route == "/progress":
            self._json(progress_payload(owner.total_edges,
                                        owner.started_monotonic))
        elif route == "/spans":
            self._json({"spans": tracer().snapshot(),
                        "active": tracer().active_stacks()})
        elif route == "/flight":
            recorder = current_recorder()
            if recorder is None:
                self._json({"error": "flight recorder not running"},
                           status=404)
            else:
                limit = _query_int(parsed.query, "limit")
                self._json(recorder.snapshot(limit=limit))
        else:
            self._json({"error": f"unknown endpoint {route!r}"}, status=404)

    def _json(self, payload: dict, status: int = 200) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self._respond(status, body, "application/json")

    def _respond(self, status: int, body: bytes,
                 content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("Cache-Control", "no-store")
        self.end_headers()
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-response; nothing to clean up

    def log_message(self, format: str, *args: object) -> None:
        """Silence the per-request stderr chatter (this is a sidecar
        inside a process that may be drawing a progress line)."""


def _query_int(query: str, key: str) -> int | None:
    values = parse_qs(query).get(key)
    if not values:
        return None
    try:
        return int(values[0])
    except ValueError:
        return None


class _Server(ThreadingHTTPServer):
    daemon_threads = True
    # Job lifetimes dwarf TIME_WAIT; rebinding the same port across
    # back-to-back runs must not fail.
    allow_reuse_address = True
    owner: "TelemetryServer"


class TelemetryServer:
    """Lifecycle wrapper: bind, serve on a daemon thread, shut down.

    Usable as a context manager.  ``total_edges`` (settable after
    construction, since the job computes it) feeds the ``/progress``
    ETA; ``port`` reports the actual bound port when 0 was requested.
    """

    def __init__(self, port: int = 0, host: str = "127.0.0.1", *,
                 total_edges: int | None = None) -> None:
        self.total_edges = total_edges
        self.started_monotonic = time.monotonic()
        self._httpd = _Server((host, port), _Handler)
        self._httpd.owner = self
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        host = self._httpd.server_address[0]
        return f"http://{host}:{self.port}"

    def start(self) -> "TelemetryServer":
        if self._thread is None or not self._thread.is_alive():
            self.started_monotonic = time.monotonic()
            self._thread = threading.Thread(
                target=self._httpd.serve_forever, daemon=True,
                name="trilliong-telemetry-http")
            self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join()
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "TelemetryServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def start_server(port: int, *,
                 total_edges: int | None = None) -> TelemetryServer:
    """Start an introspection server on ``port`` (``0`` = ephemeral)
    and log where it listens.  This is the single entry point
    ``TrillionG.generate_to`` (and through it the CLI) uses.
    """
    server = TelemetryServer(port, total_edges=total_edges).start()
    # INFO so an ephemeral (port 0) bind is discoverable from the logs.
    get_logger("telemetry.server").info(
        "introspection server listening on %s", server.url)
    return server
