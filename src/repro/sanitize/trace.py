"""Trace artifacts: serialize the sanitizer ledger for offline diffing.

A trace is one JSON document holding every event the ledger recorded —
derivations, draws, writes, violations — plus a small meta block.  Two
traces of the *same* ``(params, seed, format)`` run must agree event
for event; :mod:`repro.sanitize.diff` pinpoints the first place they
don't, which is the root cause of a byte divergence (the TrillionG
purity guarantee means bytes can only diverge where a draw or a write
did first).

``trilliong generate --sanitize-trace PATH`` captures a CLI run; any
other run calls :func:`write_trace` when it is done.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .ledger import SanitizerLedger, ledger

__all__ = ["TRACE_VERSION", "write_trace", "load_trace"]

#: Bump when the trace document layout changes.
TRACE_VERSION = 1


def write_trace(path: Path | str,
                source: SanitizerLedger | None = None) -> Path:
    """Serialize ``source`` (default: the global ledger) to ``path``."""
    path = Path(path)
    led = source if source is not None else ledger()
    doc = {"version": TRACE_VERSION, "meta": {"pid": os.getpid()}}
    doc.update(led.snapshot())
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, separators=(",", ":"))
    return path


def load_trace(path: Path | str) -> dict:
    """Load and validate a trace document written by :func:`write_trace`."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("version") != TRACE_VERSION:
        raise ValueError(
            f"{path}: not a sanitizer trace (expected version "
            f"{TRACE_VERSION}, got {doc.get('version')!r})")
    for key in ("derivations", "draws", "writes", "violations"):
        if not isinstance(doc.get(key), list):
            raise ValueError(f"{path}: malformed trace: missing {key!r}")
    return doc

