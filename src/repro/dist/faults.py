"""Fault-tolerant task scheduling for the distributed pipeline.

The paper motivates TrillionG by the wall-clock cost of trillion-scale
runs (Figure 12); at that horizon worker failure is routine, not
exceptional.  This module replaces the bare ``pool.map`` scatter with a
small supervisor: each partition runs in its own worker process with a
configurable per-attempt timeout, failed or hung workers are killed and
retried with exponential backoff plus deterministic jitter, and a
partition whose worker died repeatedly degrades gracefully to in-process
execution.  Because the AVS generator's randomness is keyed per block,
any retry regenerates exactly the same bytes, so fault recovery never
changes the output graph.

Robustness is testable: :class:`FaultPlan` deterministically injects
crashes, hangs, and corrupted output into chosen task indices (or with a
seeded probability).  Tests pass an explicit plan; CI's
``fault-injection`` job arms the seeded-probability crash for a whole
pytest run with ``TRILLIONG_FAULT_PROB`` / ``TRILLIONG_FAULT_SEED``
(:meth:`FaultPlan.from_env`, read once by the launcher).

Start methods: workers prefer ``fork`` where available and fall back to
``spawn`` (macOS/Windows default); all task payloads are plain picklable
tuples and the worker entry points are module-level functions, so both
start methods round-trip identically.
"""

from __future__ import annotations

import math
import multiprocessing as mp
import os
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing import connection as mp_connection
from pathlib import Path
from typing import Any, Callable, Sequence

from ..core.rng import stream
from ..errors import (ConfigurationError, TaskTimeout, TrillionGError,
                      WorkerError)
from ..telemetry import (Stopwatch, absorb_telemetry, get_logger,
                         record_worker_report, registry, reset_telemetry,
                         snapshot_telemetry, span)

_log = get_logger("dist.faults")

__all__ = [
    "FaultPlan",
    "RetryPolicy",
    "TaskAttempt",
    "run_tasks",
    "pick_start_method",
    "corrupt_file",
]

# Stream tags (distinct from the generator's 10x tags): fault-injection
# draws and backoff jitter must not share entropy with graph generation.
_TAG_FAULT = 201
_TAG_BACKOFF = 202

#: Environment variables activating :meth:`FaultPlan.from_env`.
_ENV_PROB = "TRILLIONG_FAULT_PROB"
_ENV_SEED = "TRILLIONG_FAULT_SEED"


def pick_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``.

    ``fork`` is cheap and inherits the parent's imports; ``spawn`` is the
    only portable choice on macOS/Windows.  Worker tasks are built to be
    picklable so either works.
    """
    return "fork" if "fork" in mp.get_all_start_methods() else "spawn"


def corrupt_file(path: str | Path) -> None:
    """Truncate ``path`` to half its size (the corrupt-output fault)."""
    path = Path(path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault injection for scheduler testing.

    A task attempt faults when its index is listed in one of the explicit
    sets, or (failing that) when a ``(seed, task, attempt)``-keyed uniform
    draw falls below ``crash_probability``.  Attempts beyond
    ``max_faulty_attempts`` never fault, so every plan terminates under
    retry.  Faults apply only to subprocess attempts — the in-process
    degraded path runs the real task so recovery always converges.
    """

    crash_tasks: frozenset[int] = frozenset()
    hang_tasks: frozenset[int] = frozenset()
    corrupt_tasks: frozenset[int] = frozenset()
    crash_probability: float = 0.0
    seed: int = 0
    max_faulty_attempts: int = 1
    hang_seconds: float = 3600.0

    def action(self, task_index: int, attempt: int) -> str | None:
        """``"crash"`` / ``"hang"`` / ``"corrupt"`` / ``None`` for this
        attempt.  Pure function of the plan — the parent can predict
        exactly what it injected into each child."""
        if attempt > self.max_faulty_attempts:
            return None
        if task_index in self.crash_tasks:
            return "crash"
        if task_index in self.hang_tasks:
            return "hang"
        if task_index in self.corrupt_tasks:
            return "corrupt"
        if self.crash_probability > 0.0:
            draw = stream(self.seed, _TAG_FAULT, task_index,
                          attempt).random()
            if float(draw) < self.crash_probability:
                return "crash"
        return None

    @property
    def empty(self) -> bool:
        return (not self.crash_tasks and not self.hang_tasks
                and not self.corrupt_tasks
                and self.crash_probability <= 0.0)

    @classmethod
    def from_env(cls) -> "FaultPlan | None":
        """A seeded-probability crash plan from ``TRILLIONG_FAULT_PROB``
        / ``TRILLIONG_FAULT_SEED``; ``None`` when the probability is
        unset or zero (the common case).  A probability that is not a
        finite float in ``[0, 1]``, or a seed that is not an integer,
        raises :class:`~repro.errors.ConfigurationError`."""
        raw_prob = os.environ.get(_ENV_PROB, "0") or "0"
        try:
            prob = float(raw_prob)
        except ValueError:
            prob = math.nan
        if not 0.0 <= prob <= 1.0:
            raise ConfigurationError(
                f"{_ENV_PROB}={raw_prob!r} is not a probability in [0, 1]")
        raw_seed = os.environ.get(_ENV_SEED, "0") or "0"
        try:
            seed = int(raw_seed)
        except ValueError:
            raise ConfigurationError(
                f"{_ENV_SEED}={raw_seed!r} is not an integer") from None
        if prob == 0.0:
            return None
        return cls(crash_probability=prob, seed=seed)


@dataclass(frozen=True)
class RetryPolicy:
    """How the scheduler reacts to a failed or hung attempt.

    A task gets ``retries + 1`` attempts in total.  Subprocess attempts
    past ``task_timeout`` seconds are killed (``SIGKILL``) and count as
    failures.  After ``in_process_after`` subprocess deaths the remaining
    attempts run in-process in the supervisor (degraded but supervised by
    nothing that can die separately).  Backoff before attempt ``k``'s
    retry is ``backoff_base * backoff_factor**(k-1)`` capped at
    ``backoff_max``, stretched by up to ``jitter`` (deterministically,
    keyed by ``(seed, task, attempt)``).
    """

    retries: int = 3
    task_timeout: float | None = None
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.25
    in_process_after: int = 2
    seed: int = 0

    @property
    def max_attempts(self) -> int:
        return max(1, self.retries + 1)

    def backoff_delay(self, task_index: int, attempt: int) -> float:
        """Seconds to wait before retrying ``task_index`` after its
        ``attempt``-th failure (deterministic, including the jitter)."""
        delay = min(self.backoff_max,
                    self.backoff_base * self.backoff_factor
                    ** max(0, attempt - 1))
        if self.jitter > 0.0 and delay > 0.0:
            draw = stream(self.seed, _TAG_BACKOFF, task_index,
                          attempt).random()
            delay *= 1.0 + self.jitter * float(draw)
        return delay


@dataclass(frozen=True)
class TaskAttempt:
    """One attempt at one task, as observed by the supervisor."""

    attempt: int              #: 1-based attempt number
    outcome: str              #: ``ok`` | ``crashed`` | ``timeout`` |
                              #: ``corrupt`` | ``error``
    elapsed_seconds: float
    in_process: bool = False  #: ran in the supervisor (degraded mode)
    error: str | None = None
    injected: str | None = None   #: fault the plan injected, if any


# ---------------------------------------------------------------------------
# Worker-side entry point
# ---------------------------------------------------------------------------


def _task_output_path(task: Any) -> str | None:
    """Convention: a task tuple ending in a string names its output file
    (used by the corrupt-output fault)."""
    if isinstance(task, (tuple, list)) and task \
            and isinstance(task[-1], str):
        return task[-1]
    return None


def _tagged_snapshot(index: int, attempt: int) -> dict:
    """The worker's outcome snapshot, tagged with its task identity (so
    the supervisor can keep per-worker trace tracks)."""
    snap = snapshot_telemetry()
    snap["task_index"] = index
    snap["attempt"] = attempt
    return snap


def _attempt_entry(conn: Any, worker: Callable[[Any], Any], index: int,
                   task: Any, attempt: int,
                   faults: FaultPlan | None) -> None:
    """Subprocess entry: run one attempt, apply injected faults, and ship
    the outcome over the pipe.  Must catch everything — the process
    boundary is the one place errors can only travel as data.

    Telemetry is reset on entry (under ``fork`` the child inherits the
    parent's live registry — re-reporting it would double-count on merge)
    and a snapshot rides along with *every* outcome message, so even a
    failed or corrupted attempt contributes its partial metrics to the
    supervisor's aggregate.
    """
    reset_telemetry()
    try:
        action = faults.action(index, attempt) if faults is not None \
            else None
        if action == "crash":
            raise WorkerError(
                f"injected crash (task {index}, attempt {attempt})")
        if action == "hang":
            time.sleep(faults.hang_seconds if faults is not None
                       else 3600.0)
        result = worker(task)
        if action == "corrupt":
            out_path = _task_output_path(task)
            if out_path is not None and Path(out_path).is_file():
                corrupt_file(out_path)
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
                    attempts: list[TaskAttempt], attempt: int,
                    policy: RetryPolicy) -> Any:
    """Degraded path: run the task in the supervisor itself (no fault
    injection, no timeout — there is no separate process to kill)."""
    watch = Stopwatch().start()
    registry().counter("sched.attempts").inc()
    try:
        result = worker(task)
        if validate is not None:
            validate(task, result)
    except WorkerError as exc:
        attempts.append(TaskAttempt(attempt, "corrupt", watch.stop(),
                                    in_process=True, error=str(exc)))
        registry().counter("sched.corruptions").inc()
        raise _fail_task(index, attempts, policy) from exc
    except Exception as exc:  # reprolint: disable=RPL402
        attempts.append(TaskAttempt(attempt, "error", watch.stop(),
                                    in_process=True,
                                    error=f"{type(exc).__name__}: {exc}"))
        registry().counter("sched.errors").inc()
        raise _fail_task(index, attempts, policy) from exc
    attempts.append(TaskAttempt(attempt, "ok", watch.stop(),
                                in_process=True))
    return result


def run_tasks(tasks: Sequence[Any], worker: Callable[[Any], Any], *,
              pool_size: int,
              policy: RetryPolicy | None = None,
              faults: FaultPlan | None = None,
              validate: Callable[[Any, Any], None] | None = None,
              on_result: Callable[[int, Any], None] | None = None,
              mp_context: Any = None,
              ) -> tuple[list[Any], dict[int, list[TaskAttempt]]]:
    """Run every task to completion under retry/timeout supervision.

    Parameters
    ----------
    tasks:
        Picklable task payloads; ``worker(task)`` must be a module-level
        callable (spawn-safe).
    pool_size:
        Max concurrent worker processes.  ``<= 1`` runs everything
        in-process (no subprocesses, no fault injection).
    policy:
        Retry/timeout/backoff policy (default :class:`RetryPolicy`).
    faults:
        Optional deterministic fault injection (subprocess attempts only).
    validate:
        ``validate(task, result)`` called in the supervisor after each
        successful attempt; raise :class:`~repro.errors.WorkerError` to
        reject corrupt output and trigger a retry.
    on_result:
        ``on_result(index, result)`` called in the supervisor as each task
        completes — e.g. to checkpoint progress incrementally.
    mp_context:
        A ``multiprocessing`` context; defaults to
        :func:`pick_start_method`.

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
                                             history[i], 1, policy)
                if on_result is not None:
                    on_result(i, results[i])
        return results, history

    ctx = mp_context if mp_context is not None \
        else mp.get_context(pick_start_method())
    ready: deque[int] = deque(range(count))
    delayed: list[tuple[float, int]] = []     # (release time, index)
    running: dict[int, _Running] = {}
    failures = [0] * count                    # subprocess deaths per task
    attempt_no = [0] * count

    def launch(index: int) -> None:
        attempt_no[index] += 1
        recv_conn, send_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=_attempt_entry,
            args=(send_conn, worker, index, tasks[index],
                  attempt_no[index], faults),
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
        injected = (faults.action(index, attempt)
                    if faults is not None else None)
        history[index].append(TaskAttempt(
            attempt, outcome, elapsed, error=error, injected=injected))
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
        failures[index] += 1
        if attempt >= policy.max_attempts:
            raise _fail_task(index, history[index], policy)
        reg.counter("sched.retries").inc()
        release = time.monotonic() + policy.backoff_delay(index, attempt)
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
                index = ready.popleft()
                if failures[index] >= policy.in_process_after:
                    registry().counter("sched.fallbacks").inc()
                    _log.warning("task %d degrading to in-process "
                                 "execution after %d worker deaths",
                                 index, failures[index])
                    attempt_no[index] += 1
                    results[index] = _run_in_process(
                        index, tasks[index], worker, validate,
                        history[index], attempt_no[index], policy)
                    if on_result is not None:
                        on_result(index, results[index])
                else:
                    launch(index)
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
