"""The determinism sanitizer's draw-site ledger.

One process-wide :class:`SanitizerLedger` records, when the sanitizer is
enabled (``TRILLIONG_SANITIZE=1``):

- **derivations** — every RNG stream/sub-seed derivation
  (``stream(seed, *labels)``, ``derive_seed``, ``spawn_streams``) with
  its key, the deriving thread, and a call-site + stack fingerprint;
- **draws** — every draw made through a traced generator, with a CRC32
  fingerprint of the drawn values;
- **writes** — every buffer submitted to a format write sink, in
  submission order (which is disk order — the pipeline writes strictly
  in submission order), with per-file sequence numbers and CRC32;
- **violations** — determinism hazards detected as they happen:
  the same stream derived twice (two generators that emit identical
  values — the duplicate-stream hazard RPL111 checks statically), and a
  generator drawn from on a thread other than the one that derived it
  (draw order, and therefore the graph, would depend on scheduling).

Violations are *recorded*, never raised: tests legitimately re-derive
streams to assert determinism, so the ledger observes and reports
rather than aborting.  Event lists are bounded (:data:`MAX_EVENTS` per
category); overflow is counted in :attr:`SanitizerLedger.dropped`.

Everything here is stdlib-only and imports nothing from ``repro`` —
the sanitizer sits at the bottom of the layering next to telemetry so
``core.rng`` and ``formats.pipeline`` can hook into it without cycles.
"""

from __future__ import annotations

import hashlib
import os
import sys
import threading
import zlib
from typing import Any, Sequence

__all__ = [
    "ENV_VAR",
    "MAX_EVENTS",
    "stream_key",
    "sanitize_enabled",
    "enable_sanitize",
    "SanitizerLedger",
    "GeneratorProxy",
    "ledger",
    "reset_sanitizer",
    "record_derivation",
    "trace_stream",
    "record_write",
]

#: Environment variable switching the sanitizer on (``1/true/yes/on``).
#: Off by default: production generation pays one boolean check per
#: stream derivation and per sink write, nothing else.
ENV_VAR = "TRILLIONG_SANITIZE"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Programmatic override: ``None`` defers to the environment.
_override: bool | None = None

#: Events kept per category before the ledger starts dropping (and
#: counting drops) — bounds memory when a whole test suite runs traced.
MAX_EVENTS = 100_000

#: Generator methods that advance stream state (mirrors the linter's
#: ``rng_draw_methods`` policy knob).
DRAW_METHODS = frozenset(
    {"random", "integers", "normal", "standard_normal", "uniform",
     "choice", "shuffle", "permutation", "permuted", "exponential",
     "poisson", "binomial", "geometric", "bytes"})

#: Frames from these files are the sanitizer/rng plumbing itself and
#: never count as the deriving call site.
_PLUMBING_BASENAMES = frozenset({"ledger.py", "rng.py"})


def sanitize_enabled() -> bool:
    """Whether the sanitizer records (override, else env var, default off)."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def enable_sanitize(on: bool | None) -> None:
    """Force the sanitizer on/off; ``None`` defers back to ``ENV_VAR``."""
    global _override
    _override = on


def _call_site() -> tuple[str, str]:
    """``(site, stack_fp)``: the first stack frame outside the sanitizer
    plumbing as ``basename:lineno``, plus a short digest of the five
    enclosing frames — enough to tell two derivation sites apart without
    storing whole tracebacks."""
    frames: list[str] = []
    frame = sys._getframe(1)
    while frame is not None and len(frames) < 5:
        name = os.path.basename(frame.f_code.co_filename)
        if name not in _PLUMBING_BASENAMES:
            frames.append(f"{name}:{frame.f_lineno}")
        frame = frame.f_back
    site = frames[0] if frames else "<unknown>"
    digest = hashlib.sha256("|".join(frames).encode("utf-8")).hexdigest()
    return site, digest[:12]


def _fingerprint(result: Any) -> int:
    """CRC32 of a draw result: array contents when the result exposes
    ``tobytes()`` (numpy arrays and scalars do), else its ``repr``."""
    tobytes = getattr(result, "tobytes", None)
    if tobytes is not None:
        try:
            return zlib.crc32(tobytes())
        except (TypeError, ValueError):
            pass
    return zlib.crc32(repr(result).encode("utf-8"))


def stream_key(kind: str, seed: int, labels: Sequence[int]) -> str:
    """Canonical ledger key for one derivation, e.g. ``stream:7:0,3``."""
    return f"{kind}:{int(seed)}:{','.join(str(int(x)) for x in labels)}"


class SanitizerLedger:
    """Thread-safe event ledger with live violation detection."""

    def __init__(self, max_events: int = MAX_EVENTS) -> None:
        self.max_events = max_events
        self._lock = threading.Lock()
        self._reset_locked()

    def _reset_locked(self) -> None:
        self.derivations: list[dict] = []
        self.draws: list[dict] = []
        self.writes: list[dict] = []
        self.violations: list[dict] = []
        self.dropped: dict[str, int] = {
            "derivations": 0, "draws": 0, "writes": 0}
        self._seq = 0
        self._first_derivation: dict[str, tuple[int, str]] = {}
        self._write_seq: dict[str, int] = {}

    def reset(self) -> None:
        """Clear all recorded events (tests, worker-process entry)."""
        with self._lock:
            self._reset_locked()

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _append(self, category: str, record: dict) -> None:
        events: list[dict] = getattr(self, category)
        if len(events) < self.max_events:
            events.append(record)
        else:
            self.dropped[category] += 1

    def _violation(self, code: str, message: str, seq: int) -> None:
        self.violations.append({"seq": seq, "code": code,
                                "message": message})

    # -- recording -----------------------------------------------------

    def record_derivation(self, kind: str, seed: int,
                          labels: Sequence[int]) -> str:
        """Record one stream/sub-seed derivation; returns its key.

        Deriving the same ``(kind, seed, labels)`` twice records a
        ``duplicate-derivation`` violation: the two generators emit
        identical values, silently doubling whatever they drive.
        """
        key = stream_key(kind, seed, labels)
        site, stack_fp = _call_site()
        thread = threading.current_thread()
        with self._lock:
            seq = self._next_seq()
            self._append("derivations", {
                "seq": seq, "kind": kind, "seed": int(seed),
                "labels": [int(x) for x in labels], "key": key,
                "thread": thread.name, "site": site, "stack": stack_fp})
            first = self._first_derivation.get(key)
            if first is None:
                self._first_derivation[key] = (seq, site)
            else:
                self._violation(
                    "duplicate-derivation",
                    f"{key} derived again at {site} (first at "
                    f"{first[1]}, event #{first[0]}): the two streams "
                    f"emit identical values", seq)
        return key

    def record_draw(self, key: str, method: str, result: Any,
                    owner_ident: int | None, owner_name: str) -> None:
        """Record one draw through a traced generator.

        A draw from a thread other than the deriving one records a
        ``cross-thread-draw`` violation: draw *order* then depends on
        scheduling, so the stream's values land nondeterministically.
        """
        thread = threading.current_thread()
        crc = _fingerprint(result)
        with self._lock:
            seq = self._next_seq()
            self._append("draws", {
                "seq": seq, "key": key, "method": method,
                "thread": thread.name, "crc": crc})
            if owner_ident is not None and thread.ident != owner_ident:
                self._violation(
                    "cross-thread-draw",
                    f"{key}.{method}() drawn on thread "
                    f"{thread.name!r} but derived on {owner_name!r}: "
                    f"draw order now depends on scheduling", seq)

    def record_write(self, label: str, nbytes: int, crc: int) -> None:
        """Record one buffer submitted to a write sink.

        ``label`` identifies the file (basename); per-file sequence
        numbers capture submission order, which the pipeline guarantees
        is disk order.
        """
        with self._lock:
            seq = self._next_seq()
            file_seq = self._write_seq.get(label, 0)
            self._write_seq[label] = file_seq + 1
            self._append("writes", {
                "seq": seq, "file": label, "file_seq": file_seq,
                "nbytes": int(nbytes), "crc": crc})

    # -- reading -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able copy of every event category."""
        with self._lock:
            return {
                "derivations": [dict(r) for r in self.derivations],
                "draws": [dict(r) for r in self.draws],
                "writes": [dict(r) for r in self.writes],
                "violations": [dict(r) for r in self.violations],
                "dropped": dict(self.dropped),
            }


class GeneratorProxy:
    """A transparent wrapper over a ``numpy.random.Generator`` that
    records every draw into the ledger and remembers the deriving
    thread.  All non-draw attributes forward untouched; the proxy never
    imports numpy (draw results are fingerprinted duck-typed)."""

    __slots__ = ("_gen", "_key", "_owner_ident", "_owner_name", "_ledger")

    def __init__(self, gen: Any, key: str,
                 owner: "SanitizerLedger | None" = None) -> None:
        thread = threading.current_thread()
        object.__setattr__(self, "_gen", gen)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_owner_ident", thread.ident)
        object.__setattr__(self, "_owner_name", thread.name)
        object.__setattr__(self, "_ledger", owner or _LEDGER)

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._gen, name)
        if name in DRAW_METHODS and callable(attr):
            key = self._key
            led = self._ledger
            owner_ident = self._owner_ident
            owner_name = self._owner_name

            def _traced(*args: Any, **kwargs: Any) -> Any:
                result = attr(*args, **kwargs)
                led.record_draw(key, name, result, owner_ident,
                                owner_name)
                return result

            return _traced
        return attr

    def __repr__(self) -> str:
        return f"GeneratorProxy({self._key!r}, {self._gen!r})"


_LEDGER = SanitizerLedger()


def ledger() -> SanitizerLedger:
    """The process-wide sanitizer ledger."""
    return _LEDGER


def reset_sanitizer() -> None:
    """Clear the global ledger (tests, worker-process entry)."""
    _LEDGER.reset()


def record_derivation(kind: str, seed: int, labels: Sequence[int]) -> str:
    """Record a derivation on the global ledger (no-op result key when
    called with the sanitizer off — callers gate on
    :func:`sanitize_enabled` to skip even the call)."""
    return _LEDGER.record_derivation(kind, seed, labels)


def trace_stream(gen: Any, kind: str, seed: int,
                 labels: Sequence[int]) -> Any:
    """Record the derivation of ``gen`` and return it wrapped in a
    :class:`GeneratorProxy` so subsequent draws are traced too."""
    key = _LEDGER.record_derivation(kind, seed, labels)
    return GeneratorProxy(gen, key, _LEDGER)


def record_write(file: Any, data: Any) -> None:
    """Record one sink-submitted buffer on the global ledger.

    ``data`` is ``bytes`` or any buffer-protocol object (the block
    encoders hand over numpy uint8 arrays directly).
    """
    name = getattr(file, "name", None)
    label = os.path.basename(str(name)) if name is not None else "<buffer>"
    nbytes = getattr(data, "nbytes", None)
    if nbytes is None:
        nbytes = len(data)
    _LEDGER.record_write(label, nbytes, zlib.crc32(data))
