"""Tests for the fault-tolerance layer: RetryPolicy and the supervised
task scheduler, including the paper-level guarantee that every recovery
path reproduces the bit-identical graph.  Faults come from the test-side
injector (``tests/faultinject.py``)."""

import multiprocessing as mp
import pickle
import time

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.dist import runner
from repro.dist.faults import (RetryPolicy, TaskAttempt, pick_start_method,
                               run_tasks)
from repro.dist.runner import LocalCluster, _worker_generate
from repro.errors import ConfigurationError, TaskTimeout, WorkerError
from tests.faultinject import FaultInjector, needs_fork


def sort_edges(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def make_generator(**kw):
    defaults = dict(scale=10, edge_factor=8, seed=7, block_size=64)
    defaults.update(kw)
    scale = defaults.pop("scale")
    ef = defaults.pop("edge_factor")
    return RecursiveVectorGenerator(scale, ef, **defaults)


# Module-level toy workers: picklable under both fork and spawn.  Tasks
# are ``(index, value)`` so the injector can key on the index.

def _double(task):
    return task[1] * 2


def _sleep_for(task):
    time.sleep(task[1])
    return task[1]


def _always_raises(task):
    raise ValueError(f"broken task {task[1]}")


def _tasks(*values):
    return list(enumerate(values))


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        delays = [RetryPolicy.backoff_delay(k) for k in range(1, 10)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.05)
        assert delays[-1] == pytest.approx(2.0)

    def test_max_attempts(self):
        assert RetryPolicy(retries=3).max_attempts == 4
        assert RetryPolicy(retries=0).max_attempts == 1

    @pytest.mark.parametrize("kwargs", [
        {"retries": -1}, {"retries": -3}, {"task_timeout": 0},
        {"task_timeout": -1.0}, {"task_timeout": float("nan")},
        {"task_timeout": float("inf")}])
    def test_rejects_bad_input(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)


class TestScheduler:
    def test_in_process_when_pool_of_one(self):
        results, history = run_tasks(_tasks(1, 2, 3), _double, pool_size=1)
        assert results == [2, 4, 6]
        assert all(h[-1].in_process for h in history.values())

    @needs_fork
    def test_parallel_results_in_task_order(self):
        results, history = run_tasks(_tasks(*range(6)), _double,
                                     pool_size=3)
        assert results == [0, 2, 4, 6, 8, 10]
        assert all(h[-1].outcome == "ok" for h in history.values())

    @needs_fork
    def test_crash_is_retried(self, tmp_path):
        inj = FaultInjector(tmp_path, crash=frozenset({1}))
        results, history = run_tasks(_tasks(5, 6), inj.wrap(_double),
                                     pool_size=2)
        assert results == [10, 12]
        outcomes = [a.outcome for a in history[1]]
        assert outcomes == ["crashed", "ok"]
        assert "exit 70" in history[1][0].error
        assert inj.attempts(1) == 2

    @needs_fork
    def test_hang_is_killed_and_retried(self, tmp_path):
        inj = FaultInjector(tmp_path, hang=frozenset({0}),
                            hang_seconds=30.0)
        t0 = time.perf_counter()
        results, history = run_tasks(_tasks(3), inj.wrap(_double),
                                     pool_size=2,
                                     policy=RetryPolicy(task_timeout=0.5))
        assert results == [6]
        assert [a.outcome for a in history[0]] == ["timeout", "ok"]
        assert time.perf_counter() - t0 < 20     # not the 30s hang

    @needs_fork
    def test_exhausted_retries_raise_worker_error(self):
        with pytest.raises(WorkerError) as info:
            run_tasks(_tasks(1), _always_raises, pool_size=2,
                      policy=RetryPolicy(retries=1))
        assert info.value.task_index == 0
        assert len(info.value.attempts) == 2
        assert all(isinstance(a, TaskAttempt)
                   for a in info.value.attempts)

    @needs_fork
    def test_all_attempts_hung_raises_task_timeout(self):
        policy = RetryPolicy(retries=1, task_timeout=0.3)
        with pytest.raises(TaskTimeout):
            run_tasks(_tasks(10.0), _sleep_for, pool_size=2, policy=policy)

    @needs_fork
    def test_on_result_called_per_task(self):
        seen = {}
        run_tasks(_tasks(1, 2), _double, pool_size=2,
                  on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 2, 1: 4}

    def test_empty_task_list(self):
        results, history = run_tasks([], _double, pool_size=4)
        assert results == [] and history == {}


class TestClusterFaultRecovery:
    """End-to-end: LocalCluster completes under injected faults and the
    merged edge set is bit-identical to a clean sequential run."""

    @needs_fork
    def test_crash_hang_corrupt_bit_identical(self, tmp_path, monkeypatch):
        FaultInjector(tmp_path / "markers", crash=frozenset({0}),
                      hang=frozenset({1}), empty=frozenset({2}),
                      hang_seconds=30.0).patch(
            monkeypatch, runner, "_worker_generate")
        cluster = LocalCluster(num_workers=4)
        res = cluster.generate_to_files(
            make_generator(), tmp_path / "out", "adj6", processes=2,
            retry=RetryPolicy(task_timeout=2.5))
        assert res.num_retries >= 3
        assert all([a.attempt for a in trail] == [1, 2]
                   for i, trail in res.task_attempts.items() if i < 3)
        assert [a.outcome for a in res.task_attempts[0]] == \
            ["crashed", "ok"]
        assert [a.outcome for a in res.task_attempts[1]] == \
            ["timeout", "ok"]
        assert [a.outcome for a in res.task_attempts[2]] == \
            ["corrupt", "ok"]
        dist_edges = cluster.read_all_edges(res, "adj6")
        seq = make_generator().edges()
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(seq))

    @needs_fork
    def test_exhausted_retries_raise_worker_error(self, tmp_path,
                                                  monkeypatch):
        FaultInjector(tmp_path / "markers", crash=frozenset({1}),
                      faulty_attempts=99).patch(
            monkeypatch, runner, "_worker_generate")
        with pytest.raises(WorkerError) as info:
            LocalCluster(num_workers=2).generate_to_files(
                make_generator(), tmp_path / "out", "adj6", processes=2,
                retry=RetryPolicy(retries=1))
        assert not isinstance(info.value, TaskTimeout)
        assert info.value.task_index == 1
        assert [a.outcome for a in info.value.attempts] == \
            ["crashed", "crashed"]

    @needs_fork
    def test_every_attempt_hung_raises_task_timeout(self, tmp_path,
                                                    monkeypatch):
        FaultInjector(tmp_path / "markers", hang=frozenset({0}),
                      faulty_attempts=99, hang_seconds=30.0).patch(
            monkeypatch, runner, "_worker_generate")
        t0 = time.perf_counter()
        with pytest.raises(TaskTimeout) as info:
            LocalCluster(num_workers=2).generate_to_files(
                make_generator(), tmp_path / "out", "adj6", processes=2,
                retry=RetryPolicy(retries=2, task_timeout=0.5))
        assert info.value.task_index == 0
        assert info.value.timeout_seconds == 0.5
        # Three subprocess attempts, each under the timeout: no attempt
        # escapes it by running in the supervisor.
        assert [(a.outcome, a.in_process) for a in info.value.attempts] \
            == [("timeout", False)] * 3
        assert time.perf_counter() - t0 < 20     # not the 30s hangs

    @needs_fork
    def test_seeded_crash_storm_still_identical(self, tmp_path, monkeypatch):
        inj = FaultInjector(tmp_path / "markers", crash_probability=0.6,
                            seed=11).patch(
            monkeypatch, runner, "_worker_generate")
        cluster = LocalCluster(num_workers=6)
        res = cluster.generate_to_files(make_generator(), tmp_path / "out",
                                        "adj6", processes=3)
        assert res.num_retries == sum(
            inj.action(i, 1) == "crash" for i in range(6)) > 0
        dist_edges = cluster.read_all_edges(res, "adj6")
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(make_generator().edges()))


class TestSpawnSafety:
    def test_pick_start_method(self):
        assert pick_start_method() in ("fork", "spawn")
        assert pick_start_method() in mp.get_all_start_methods()

    def test_worker_task_tuple_pickles_round_trip(self, tmp_path):
        """The spawn contract: a worker task must survive pickling and
        still drive the worker entry point to the same output."""
        g = make_generator(scale=8)
        cluster = LocalCluster(num_workers=2)
        from repro.dist.partition import range_partition
        ranges = range_partition(g, 2)
        tasks = cluster._build_tasks(g, tmp_path, ranges, "adj6")
        revived = pickle.loads(pickle.dumps(tasks))
        assert revived == tasks
        result = _worker_generate(revived[0])
        assert result.num_edges > 0
        assert (tmp_path / "part-0000.adj6").exists()

    def test_spawn_context_run_equals_sequential(self, tmp_path):
        g = make_generator(scale=9)
        cluster = LocalCluster(num_workers=2)
        res = cluster.generate_to_files(g, tmp_path, "adj6",
                                        processes=2,
                                        start_method="spawn")
        dist_edges = cluster.read_all_edges(res, "adj6")
        seq = make_generator(scale=9).edges()
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(seq))
