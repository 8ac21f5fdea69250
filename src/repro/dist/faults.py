"""Fault-tolerant task scheduling for the distributed pipeline.

The paper motivates TrillionG by the wall-clock cost of trillion-scale
runs (Figure 12); at that horizon worker failure is routine, not
exceptional.  This module replaces the bare ``pool.map`` scatter with a
small supervisor: each partition runs in its own worker process with a
configurable per-attempt timeout, and failed or hung workers are killed
and retried after a short exponential backoff.  Because the AVS
generator's randomness is keyed per block, any retry regenerates exactly
the same bytes, so fault recovery never changes the output graph.

Start methods: workers prefer ``fork`` where available and fall back to
``spawn`` (macOS/Windows default); all task payloads are plain picklable
tuples and the worker entry points are module-level functions, so both
start methods round-trip identically.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..errors import (ConfigurationError, TaskTimeout, TrillionGError,
                      WorkerError)
from ..telemetry import (Stopwatch, absorb_telemetry, get_logger,
                         record_worker_report, registry, reset_telemetry,
                         snapshot_telemetry, span)

_log = get_logger("dist.faults")

__all__ = [
    "RetryPolicy",
    "TaskAttempt",
    "run_tasks",
    "pick_start_method",
]


def pick_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    ``fork`` is cheap and inherits the parent's imports; ``spawn`` is the
    only portable choice on macOS/Windows.  Worker tasks are built to be
    picklable so either works.
    """
    import multiprocessing as mp
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler reacts to a failed or hung attempt.

    A task gets ``retries + 1`` attempts in total.  Attempts past
    ``task_timeout`` seconds are killed (``SIGKILL``) and count as
    failures.  Backoff before attempt ``k``'s retry is
    ``min(2.0, 0.05 * 2**(k-1))`` seconds.
    """

    retries: int = 3
    task_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ConfigurationError(
                f"retries must be >= 0, got {self.retries!r}")
        timeout = self.task_timeout
        if timeout is not None and not (math.isfinite(timeout)
                                        and timeout > 0):
            raise ConfigurationError(
                "task_timeout must be a finite number of seconds > 0, "
                f"got {timeout!r}")

    @property
    def max_attempts(self) -> int:
        return self.retries + 1

    @staticmethod
    def backoff_delay(attempt: int) -> float:
        """Seconds to wait before retrying a task after its
        ``attempt``-th failure."""
        return min(2.0, 0.05 * 2.0 ** (attempt - 1))


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt at one task, as observed by the supervisor."""

    attempt: int              #: 1-based attempt number
    outcome: str              #: ``ok`` | ``crashed`` | ``timeout`` |
                              #: ``corrupt`` | ``error``
    elapsed_seconds: float
    in_process: bool = False  #: ran in the supervisor (``pool_size <= 1``)
    error: str | None = None


# ---------------------------------------------------------------------------
# Worker-side entry point
# ---------------------------------------------------------------------------


def _tagged_snapshot(index: int, attempt: int) -> dict:
    """The worker's outcome snapshot, tagged with its task identity (so
    the supervisor can keep per-worker trace tracks)."""
    snap = snapshot_telemetry()
    snap["task_index"] = index
    snap["attempt"] = attempt
    return snap


def _attempt_entry(conn: Any, worker: Callable[[Any], Any], index: int,
                   task: Any, attempt: int) -> None:
    """Subprocess entry: run one attempt and ship the outcome over the
    pipe.  Must catch everything — the process
    boundary is the one place errors can only travel as data.

    Telemetry is reset on entry (under ``fork`` the child inherits the
    parent's live registry — re-reporting it would double-count on merge)
    and a snapshot rides along with *every* outcome message, so even a
    failed or corrupted attempt contributes its partial metrics to the
    supervisor's aggregate.
    """
    reset_telemetry()
    try:
        result = worker(task)
        conn.send(("ok", result, _tagged_snapshot(index, attempt)))
    except BaseException as exc:  # reprolint: disable=RPL402
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}",
                       _tagged_snapshot(index, attempt)))
        except (BrokenPipeError, OSError):
            pass
    finally:
        conn.close()


# ---------------------------------------------------------------------------
# Supervisor
# ---------------------------------------------------------------------------


#: Failure outcome -> scheduler counter incremented on settle.
_OUTCOME_COUNTERS = {
    "crashed": "sched.crashes",
    "timeout": "sched.timeouts",
    "corrupt": "sched.corruptions",
    "error": "sched.errors",
}


@dataclass
class _Running:
    """Book-keeping for one in-flight subprocess attempt."""

    process: Any
    conn: Any
    attempt: int
    started: float
    deadline: float | None


def _reap(entry: _Running) -> tuple[str, Any, dict | None]:
    """Collect an outcome from a readable pipe: the child either sent a
    message or died without one (hard crash / ``os._exit``).  The third
    element is the child's telemetry snapshot when it managed to send
    one — present for clean failures too, absent only for hard deaths."""
    try:
        kind, payload, snap = entry.conn.recv()
    except (EOFError, OSError):
        entry.process.join()
        code = entry.process.exitcode
        return ("crashed",
                f"worker died without reporting (exit {code})", None)
    entry.process.join()
    if kind == "ok":
        return "ok", payload, snap
    return "crashed", payload, snap


def _kill(entry: _Running) -> None:
    if entry.process.is_alive():
        entry.process.kill()
    entry.process.join()
    entry.conn.close()


def _fail_task(index: int, attempts: Sequence[TaskAttempt],
               policy: RetryPolicy) -> TrillionGError:
    """Build the terminal error for a task that exhausted its budget."""
    trail = "; ".join(
        f"#{a.attempt} {a.outcome}"
        + (f" ({a.error})" if a.error else "") for a in attempts)
    if attempts and attempts[-1].outcome == "timeout":
        return TaskTimeout(
            f"task {index} timed out on all {len(attempts)} attempt(s) "
            f"[{trail}]", task_index=index, attempts=tuple(attempts),
            timeout_seconds=policy.task_timeout)
    return WorkerError(
        f"task {index} failed after {len(attempts)} attempt(s) [{trail}]",
        task_index=index, attempts=tuple(attempts))


def _run_in_process(index: int, task: Any, worker: Callable[[Any], Any],
                    validate: Callable[[Any, Any], None] | None,
                    attempts: list[TaskAttempt],
                    policy: RetryPolicy) -> Any:
    """``pool_size <= 1``: run the task in the supervisor itself (no
    timeout — there is no separate process to kill)."""
    watch = Stopwatch().start()
    registry().counter("sched.attempts").inc()
    try:
        result = worker(task)
        if validate is not None:
            validate(task, result)
    except WorkerError as exc:
        attempts.append(TaskAttempt(1, "corrupt", watch.stop(),
                                    in_process=True, error=str(exc)))
        registry().counter("sched.corruptions").inc()
        raise _fail_task(index, attempts, policy) from exc
    except Exception as exc:  # reprolint: disable=RPL402
        attempts.append(TaskAttempt(1, "error", watch.stop(),
                                    in_process=True,
                                    error=f"{type(exc).__name__}: {exc}"))
        registry().counter("sched.errors").inc()
        raise _fail_task(index, attempts, policy) from exc
    attempts.append(TaskAttempt(1, "ok", watch.stop(),
                                in_process=True))
    return result


def run_tasks(tasks: Sequence[Any], worker: Callable[[Any], Any], *,
              pool_size: int,
              policy: RetryPolicy | None = None,
              validate: Callable[[Any, Any], None] | None = None,
              on_result: Callable[[int, Any], None] | None = None,
              ) -> tuple[list[Any], dict[int, list[TaskAttempt]]]:
    """Run every task to completion under retry/timeout supervision.

    Parameters
    ----------
    tasks:
        Picklable task payloads; ``worker(task)`` must be a module-level
        callable (spawn-safe).
    pool_size:
        Max concurrent worker processes, started by
        :func:`pick_start_method`.  ``<= 1`` runs everything in-process
        (no subprocesses).
    policy:
        Retry/timeout policy (default :class:`RetryPolicy`).
    validate:
        ``validate(task, result)`` called in the supervisor after each
        successful attempt; raise :class:`~repro.errors.WorkerError` to
        reject corrupt output and trigger a retry.
    on_result:
        ``on_result(index, result)`` called in the supervisor as each task
        completes — e.g. to checkpoint progress incrementally.

    Returns
    -------
    ``(results, history)`` where ``results[i]`` is task ``i``'s result
    and ``history[i]`` its full attempt trail.

    Raises
    ------
    WorkerError / TaskTimeout
        When a task exhausts its attempt budget; all other in-flight
        workers are killed first.
    """
    policy = policy if policy is not None else RetryPolicy()
    count = len(tasks)
    results: list[Any] = [None] * count
    history: dict[int, list[TaskAttempt]] = {i: [] for i in range(count)}
    if count == 0:
        return results, history

    if pool_size <= 1:
        with span("sched.run_tasks", tasks=count):
            for i, task in enumerate(tasks):
                results[i] = _run_in_process(i, task, worker, validate,
                                             history[i], policy)
                if on_result is not None:
                    on_result(i, results[i])
        return results, history

    # Only a run with worker processes pays for multiprocessing's import
    # (1.2 MiB of a sequential run's peak RSS).
    import multiprocessing as mp
    from multiprocessing import connection as mp_connection
    ctx = mp.get_context(pick_start_method())
    ready: deque[int] = deque(range(count))
    delayed: list[tuple[float, int]] = []     # (release time, index)
    running: dict[int, _Running] = {}
    attempt_no = [0] * count

    def launch(index: int) -> None:
        attempt_no[index] += 1
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_attempt_entry,
            args=(send_conn, worker, index, tasks[index],
                  attempt_no[index]),
            daemon=True)
        proc.start()
        send_conn.close()
        now = time.monotonic()
        deadline = (now + policy.task_timeout
                    if policy.task_timeout is not None else None)
        running[index] = _Running(proc, recv_conn, attempt_no[index],
                                  now, deadline)

    def settle(index: int, outcome: str, attempt: int, elapsed: float,
               payload: Any, error: str | None) -> None:
        history[index].append(TaskAttempt(attempt, outcome, elapsed,
                                          error=error))
        reg = registry()
        reg.counter("sched.attempts").inc()
        if outcome == "ok":
            results[index] = payload
            if on_result is not None:
                on_result(index, payload)
            return
        reg.counter(_OUTCOME_COUNTERS.get(outcome, "sched.errors")).inc()
        _log.warning("task %d attempt %d %s: %s", index, attempt,
                     outcome, error)
        if attempt >= policy.max_attempts:
            raise _fail_task(index, history[index], policy)
        reg.counter("sched.retries").inc()
        release = time.monotonic() + policy.backoff_delay(attempt)
        delayed.append((release, index))

    # Manually entered (rather than a ``with`` over the whole loop) so the
    # worker snapshots absorbed below graft under this span while the
    # existing try/finally keeps the kill-everything cleanup unchanged.
    sched_span = span("sched.run_tasks", tasks=count)
    sched_span.__enter__()
    try:
        while ready or delayed or running:
            now = time.monotonic()
            if delayed:
                still = [(t, i) for t, i in delayed if t > now]
                for t, i in delayed:
                    if t <= now:
                        ready.append(i)
                delayed = still
            while ready and len(running) < pool_size:
                launch(ready.popleft())
            if not running:
                if delayed:
                    pause = min(t for t, _ in delayed) - time.monotonic()
                    if pause > 0:
                        time.sleep(pause)
                continue

            timeout = 0.25
            deadlines = [e.deadline for e in running.values()
                         if e.deadline is not None]
            if deadlines:
                timeout = min(timeout,
                              max(0.0, min(deadlines) - time.monotonic()))
            if delayed:
                timeout = min(timeout,
                              max(0.0, min(t for t, _ in delayed)
                                  - time.monotonic()))
            readable = mp_connection.wait(
                [e.conn for e in running.values()], timeout)

            now = time.monotonic()
            for index, entry in list(running.items()):
                if entry.conn in readable:
                    kind, payload, snap = _reap(entry)
                    entry.conn.close()
                    del running[index]
                    if snap is not None:
                        # Merge the child's metrics and span tree even
                        # when the attempt failed — partial work is real
                        # work, and the aggregate should account for it.
                        # The tagged original is also retained verbatim
                        # so trace export can keep per-worker tracks.
                        absorb_telemetry(snap)
                        record_worker_report(snap)
                    elapsed = now - entry.started
                    if kind == "ok":
                        error = None
                        if validate is not None:
                            try:
                                validate(tasks[index], payload)
                            except WorkerError as exc:
                                kind, error = "corrupt", str(exc)
                        settle(index, "ok" if kind == "ok" else kind,
                               entry.attempt, elapsed,
                               payload if kind == "ok" else None, error)
                    else:
                        settle(index, "crashed", entry.attempt, elapsed,
                               None, str(payload))
                elif entry.deadline is not None and now >= entry.deadline:
                    _kill(entry)
                    del running[index]
                    settle(index, "timeout", entry.attempt,
                           now - entry.started, None,
                           f"no result within {policy.task_timeout}s; "
                           "worker killed")
    finally:
        for entry in running.values():
            _kill(entry)
        sched_span.__exit__(None, None, None)

    return results, history
