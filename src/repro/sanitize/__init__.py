"""repro.sanitize — the runtime determinism-and-concurrency sanitizer.

The dynamic half of the determinism analysis layer (the static half is
the reprolint RPL6xx concurrency family).  With ``TRILLIONG_SANITIZE=1``:

- :func:`repro.core.rng.stream` / :func:`~repro.core.rng.derive_seed` /
  :func:`~repro.core.rng.spawn_streams` record every derivation into the
  :func:`ledger`, and returned generators are wrapped so every *draw* is
  recorded too (CRC32 fingerprint of the drawn values);
- the format write sinks (:mod:`repro.formats.pipeline`) record every
  submitted buffer in submission order — which is disk order;
- duplicate stream derivations and cross-thread generator use are
  flagged as **violations** the moment they happen (recorded, not
  raised — see :mod:`.ledger`);
- :func:`write_trace` serializes the ledger, and ``python -m
  repro.sanitize.diff a.json b.json`` pinpoints the first diverging
  draw/write between two runs — the root cause of a byte divergence.
  ``trilliong generate --sanitize-trace PATH`` captures a CLI run.

Off-mode cost is one boolean check per stream derivation and per sink
write; output bytes are identical either way (gated by
``BENCH_sanitize`` and the byte-identity tests).

Stdlib-only and imports nothing from ``repro`` — the sanitizer sits at
the bottom of the layering next to :mod:`repro.telemetry`.  See
``docs/determinism.md`` for the derivation contract and the trace-diff
workflow.
"""

from __future__ import annotations

from .ledger import (DRAW_METHODS, ENV_VAR, MAX_EVENTS, GeneratorProxy,
                     SanitizerLedger, enable_sanitize, ledger,
                     record_derivation, record_write, reset_sanitizer,
                     sanitize_enabled, stream_key, trace_stream)
from .trace import TRACE_VERSION, load_trace, write_trace

__all__ = [
    # switches
    "ENV_VAR", "sanitize_enabled", "enable_sanitize",
    # ledger
    "SanitizerLedger", "GeneratorProxy", "ledger", "reset_sanitizer",
    "record_derivation", "trace_stream", "record_write", "stream_key",
    "DRAW_METHODS", "MAX_EVENTS",
    # traces
    "TRACE_VERSION", "write_trace", "load_trace",
]


def __getattr__(name: str):
    # ``diff`` is imported lazily (and kept out of ``__all__``) so
    # ``python -m repro.sanitize.diff`` does not find it pre-imported
    # in sys.modules (runpy would warn).
    if name in ("Divergence", "diff_traces"):
        from . import diff as _diff
        return getattr(_diff, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
