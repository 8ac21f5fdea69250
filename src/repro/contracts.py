"""Toggleable runtime invariant checks at model/dist boundaries.

The linter (:mod:`repro.devtools`) proves structural invariants
statically; this module checks the *numerical* ones at runtime, where
static analysis cannot reach: probability vectors summing to one,
seed matrices staying normalized through NSKG noise (Lemmas 7-8), and
partition ranges exactly covering the vertex space (the precondition of
the Section 5 determinism argument — a gap or overlap silently drops or
duplicates scopes).

Contracts are **off by default** so production generation pays nothing.
Enable them with the environment variable ``TRILLIONG_CONTRACTS=1`` (any
of ``1/true/yes/on``) or programmatically::

    from repro import contracts
    contracts.enable_contracts(True)    # force on
    contracts.enable_contracts(False)   # force off
    contracts.enable_contracts(None)    # back to the env var

A failed contract raises :class:`repro.errors.ContractViolation`.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence

import numpy as np

from .errors import ContractViolation

__all__ = [
    "ENV_VAR",
    "contracts_enabled",
    "enable_contracts",
    "check_probability_vector",
    "check_seed_matrix",
    "check_partition_cover",
    "check_worker_result",
    "check_attempt_history",
    "check_write_result",
]

#: Environment variable consulted when no programmatic override is set.
ENV_VAR = "TRILLIONG_CONTRACTS"

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Programmatic override: None = defer to the environment.
_override: bool | None = None


def contracts_enabled() -> bool:
    """Whether contract checks currently run (override, else env var)."""
    if _override is not None:
        return _override
    return os.environ.get(ENV_VAR, "").strip().lower() in _TRUTHY


def enable_contracts(on: bool | None) -> None:
    """Force contracts on/off; ``None`` defers back to ``ENV_VAR``."""
    global _override
    _override = on


def _fail(message: str) -> None:
    raise ContractViolation(message)


def check_probability_vector(vec, *, tol: float = 1e-9,
                             context: str = "probability vector") -> None:
    """Assert ``vec`` is a probability vector: finite, non-negative
    entries summing to 1 within ``tol``.  No-op when disabled."""
    if not contracts_enabled():
        return
    arr = np.asarray(vec, dtype=np.float64).ravel()
    if arr.size == 0:
        _fail(f"{context}: empty")
    if not np.all(np.isfinite(arr)):
        _fail(f"{context}: non-finite entries")
    if np.any(arr < 0):
        _fail(f"{context}: negative entry {arr.min()!r}")
    total = float(arr.sum())
    if abs(total - 1.0) > tol:
        _fail(f"{context}: entries sum to {total!r}, expected 1 "
              f"(tol={tol})")


def check_seed_matrix(matrix, *, tol: float = 1e-9) -> None:
    """Assert a seed matrix is square, non-negative, and normalized.

    Accepts a :class:`repro.core.seed.SeedMatrix` or a raw array.
    No-op when disabled.
    """
    if not contracts_enabled():
        return
    entries = getattr(matrix, "entries", matrix)
    arr = np.asarray(entries, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        _fail(f"seed matrix: not square (shape {arr.shape})")
    check_probability_vector(arr, tol=tol, context="seed matrix")


def check_partition_cover(ranges: Iterable[Sequence[int] | object],
                          start: int, stop: int) -> None:
    """Assert partition ranges tile ``[start, stop)`` exactly: contiguous,
    non-empty, no gaps, no overlaps.

    ``ranges`` holds ``(start, stop)`` pairs or objects with ``start`` /
    ``stop`` attributes (e.g. :class:`repro.dist.partition.Bin`).
    No-op when disabled.
    """
    if not contracts_enabled():
        return
    cursor = start
    count = 0
    for item in ranges:
        lo, hi = ((item.start, item.stop)          # type: ignore[union-attr]
                  if hasattr(item, "start") else (item[0], item[1]))
        if lo != cursor:
            _fail(f"partition cover: range {count} starts at {lo}, "
                  f"expected {cursor} (gap or overlap)")
        if hi <= lo:
            _fail(f"partition cover: range {count} [{lo}, {hi}) is empty")
        cursor = hi
        count += 1
    if count == 0:
        _fail("partition cover: no ranges")
    if cursor != stop:
        _fail(f"partition cover: ranges end at {cursor}, expected {stop}")


def check_worker_result(result: object, *, start: int | None = None,
                        stop: int | None = None) -> None:
    """Assert a distributed worker's result is sane: it covers exactly
    the range it was assigned, reports a non-negative edge count, and its
    output file exists on disk.

    ``result`` is duck-typed (``repro.dist.runner.WorkerResult``-shaped:
    ``start`` / ``stop`` / ``num_edges`` / ``path`` attributes) so this
    bottom layer does not import the distribution layer.  No-op when
    disabled.
    """
    if not contracts_enabled():
        return
    if result is None:
        _fail("worker result: missing (task produced no result)")
    r_start = getattr(result, "start", None)
    r_stop = getattr(result, "stop", None)
    num_edges = getattr(result, "num_edges", None)
    path = getattr(result, "path", None)
    if start is not None and r_start != start:
        _fail(f"worker result: covers start {r_start}, assigned {start}")
    if stop is not None and r_stop != stop:
        _fail(f"worker result: covers stop {r_stop}, assigned {stop}")
    if not isinstance(num_edges, int) or num_edges < 0:
        _fail(f"worker result: bad edge count {num_edges!r}")
    if path is not None and not os.path.exists(str(path)):
        _fail(f"worker result: output file {path} does not exist")


def check_write_result(result: object, *, tol: float = 1e-6) -> None:
    """Assert a write result's timing decomposition is coherent: encode
    and write time each fit inside the writer's open-to-close window.
    The background writer thread's write time legitimately overlaps
    encode time, so only the per-component bounds apply, not their sum.

    ``result`` is ``repro.formats.base.WriteResult``-shaped
    (``encode_seconds`` / ``write_seconds`` / ``elapsed_seconds``).
    No-op when disabled.
    """
    if not contracts_enabled():
        return
    encode = float(getattr(result, "encode_seconds", 0.0))
    write = float(getattr(result, "write_seconds", 0.0))
    elapsed = float(getattr(result, "elapsed_seconds", 0.0))
    if encode < 0 or write < 0 or elapsed < 0:
        _fail(f"write result: negative timing (encode={encode!r}, "
              f"write={write!r}, elapsed={elapsed!r})")
    bound = elapsed + tol
    if encode > bound:
        _fail(f"write result: encode_seconds {encode!r} exceeds "
              f"elapsed_seconds {elapsed!r}")
    if write > bound:
        _fail(f"write result: write_seconds {write!r} exceeds "
              f"elapsed_seconds {elapsed!r}")


def check_attempt_history(attempts: Sequence[object]) -> None:
    """Assert a task's attempt trail is well-formed: attempt numbers
    strictly increase from 1, every non-final attempt failed, and the
    final attempt succeeded.

    ``attempts`` holds ``repro.dist.faults.TaskAttempt``-shaped records
    (``attempt`` / ``outcome`` attributes).  No-op when disabled.
    """
    if not contracts_enabled():
        return
    if not attempts:
        _fail("attempt history: empty (task was never attempted)")
    previous = 0
    for record in attempts:
        number = getattr(record, "attempt", None)
        if not isinstance(number, int) or number <= previous:
            _fail(f"attempt history: attempt number {number!r} after "
                  f"{previous} (must strictly increase from 1)")
        previous = number
    for record in attempts[:-1]:
        if getattr(record, "outcome", None) == "ok":
            _fail("attempt history: a non-final attempt reported ok "
                  "(the task would have been retried needlessly)")
    if getattr(attempts[-1], "outcome", None) != "ok":
        _fail(f"attempt history: final attempt outcome is "
              f"{getattr(attempts[-1], 'outcome', None)!r}, expected 'ok'")
