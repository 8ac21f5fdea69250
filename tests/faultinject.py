"""Test-side fault injection for the supervised scheduler.

:class:`FaultInjector` wraps a worker entry point
(``runner._worker_generate``, ``runner._worker_chunk``,
``wesp_runner._map_task`` / ``_reduce_task`` or a toy worker) so chosen
attempts crash (``os._exit``), hang (sleep), leave an empty part file
behind (the supervisor's size check then reports ``corrupt``), or crash
when a ``stream(seed, task, attempt)`` draw falls under a probability.  Attempts past ``faulty_attempts`` run clean, so every plan
converges under enough retries.

Every attempt is a fresh child process, so attempts are counted with
marker files in a directory rather than in memory.  The wrapper is a
closure the child inherits under ``fork``; ``spawn`` would have to pickle
it, hence :data:`needs_fork`.  In the supervisor itself (``pool_size <=
1``) the wrapper runs the real worker untouched.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from pathlib import Path
from typing import Any, Callable

import pytest

from repro.core.rng import stream

__all__ = ["FaultInjector", "needs_fork"]

needs_fork = pytest.mark.skipif("fork" not in mp.get_all_start_methods(),
                                reason="fork start method unavailable")


class FaultInjector:
    """Deterministic crash / hang / empty-part faults keyed by task index
    (the task tuple's first element) and 1-based attempt number."""

    def __init__(self, marker_dir: Path, *,
                 crash: frozenset[int] = frozenset(),
                 hang: frozenset[int] = frozenset(),
                 empty: frozenset[int] = frozenset(),
                 crash_probability: float = 0.0, seed: int = 0,
                 faulty_attempts: int = 1, hang_seconds: float = 3600.0
                 ) -> None:
        self.marker_dir = Path(marker_dir)
        self.marker_dir.mkdir(parents=True, exist_ok=True)
        self.crash, self.hang, self.empty = crash, hang, empty
        self.crash_probability = crash_probability
        self.seed = seed
        self.faulty_attempts = faulty_attempts
        self.hang_seconds = hang_seconds
        self._supervisor = os.getpid()

    def action(self, index: int, attempt: int) -> str | None:
        """``"crash"`` / ``"hang"`` / ``"empty"`` / ``None``."""
        if attempt > self.faulty_attempts:
            return None
        if index in self.crash:
            return "crash"
        if index in self.hang:
            return "hang"
        if index in self.empty:
            return "empty"
        if self.crash_probability > 0.0:
            draw = float(stream(self.seed, index, attempt).random())
            if draw < self.crash_probability:
                return "crash"
        return None

    def attempts(self, index: int) -> int:
        """Attempts task ``index`` has started in child processes."""
        return len(list(self.marker_dir.glob(f"task{index}-attempt*")))

    def _next_attempt(self, index: int) -> int:
        attempt = 1
        while True:
            marker = self.marker_dir / f"task{index}-attempt{attempt}"
            try:
                os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                return attempt
            except FileExistsError:
                attempt += 1

    def wrap(self, worker: Callable[[Any], Any]) -> Callable[[Any], Any]:
        def faulty(task: Any) -> Any:
            if os.getpid() == self._supervisor:
                return worker(task)
            index = task[0]
            action = self.action(index, self._next_attempt(index))
            if action == "crash":
                os._exit(70)
            if action == "hang":
                time.sleep(self.hang_seconds)
            result = worker(task)
            if action == "empty":
                os.truncate(result.path, 0)
            return result
        return faulty

    def patch(self, monkeypatch: pytest.MonkeyPatch, module: Any,
              name: str) -> "FaultInjector":
        """Replace ``module.name`` with its wrapped self for this test."""
        monkeypatch.setattr(module, name, self.wrap(getattr(module, name)))
        return self
