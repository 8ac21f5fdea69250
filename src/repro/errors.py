"""Exception hierarchy for the TrillionG reproduction.

All library errors derive from :class:`TrillionGError` so callers can catch
one base class.  Simulated resource failures (e.g. an out-of-memory abort in
the cluster cost model, mirroring the paper's "O.O.M" bars in Figures 11 and
14) raise :class:`OutOfMemoryError` rather than actually exhausting RAM.
"""

from __future__ import annotations

__all__ = [
    "TrillionGError",
    "ConfigurationError",
    "SeedMatrixError",
    "FormatError",
    "DataError",
    "OutOfMemoryError",
    "CapacityError",
    "GenerationError",
    "WorkerError",
    "TaskTimeout",
]


class TrillionGError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(TrillionGError, ValueError):
    """An invalid parameter, seed matrix, or graph configuration."""


class SeedMatrixError(ConfigurationError):
    """A seed probability matrix is malformed (shape, range, or sum)."""


class FormatError(TrillionGError, ValueError):
    """A graph file is malformed or uses an unknown format name."""


class DataError(TrillionGError, ValueError):
    """An on-disk intermediate artifact is malformed.

    Raised by the external-memory layer when a spill run fails its shape
    invariants (e.g. a file whose size is not a whole number of int64
    keys — the signature of a torn, non-atomic write).  Distinct from
    :class:`FormatError`, which covers the *graph output* formats; this
    covers the engine's own scratch files, where silently merging a torn
    run would corrupt a resumed generation.
    """


class OutOfMemoryError(TrillionGError, MemoryError):
    """A (simulated or enforced) memory budget was exceeded.

    The scope-based generators accept a ``memory_budget`` in bytes; a
    generator whose working set provably exceeds the budget raises this
    instead of thrashing, which is how the paper's O.O.M outcomes are
    reproduced deterministically.
    """

    def __init__(self, message: str, required_bytes: int | None = None,
                 budget_bytes: int | None = None) -> None:
        super().__init__(message)
        self.required_bytes = required_bytes
        self.budget_bytes = budget_bytes


class CapacityError(TrillionGError, RuntimeError):
    """A simulated hardware resource other than memory was exhausted
    (e.g. disk capacity in the cluster cost model)."""


class GenerationError(TrillionGError, RuntimeError):
    """Edge generation failed to converge (e.g. a scope could not reach its
    requested size because the scope is smaller than the requested count)."""


class WorkerError(TrillionGError, RuntimeError):
    """A distributed worker task failed permanently.

    Raised by the fault-tolerant scheduler (:mod:`repro.dist.faults`) once
    a task has exhausted its retry budget, or by output validation when a
    worker reported success but its part file is missing or empty.
    Carries the task index and the full per-attempt history so callers
    can see every crash and timeout that led here.
    """

    def __init__(self, message: str, *, task_index: int | None = None,
                 attempts: tuple = ()) -> None:
        super().__init__(message)
        self.task_index = task_index
        self.attempts = tuple(attempts)


class TaskTimeout(WorkerError):
    """A worker task exceeded its per-attempt wall-clock budget on every
    allowed attempt (the hung process is killed before each retry)."""

    def __init__(self, message: str, *, task_index: int | None = None,
                 attempts: tuple = (),
                 timeout_seconds: float | None = None) -> None:
        super().__init__(message, task_index=task_index, attempts=attempts)
        self.timeout_seconds = timeout_seconds

