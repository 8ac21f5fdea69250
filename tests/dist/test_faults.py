"""Tests for the fault-tolerance layer: FaultPlan, RetryPolicy, and the
supervised task scheduler, including the paper-level guarantee that
every recovery path reproduces the bit-identical graph."""

import multiprocessing as mp
import pickle
import time

import numpy as np
import pytest

from repro.core.generator import RecursiveVectorGenerator
from repro.dist.faults import (FaultPlan, RetryPolicy, TaskAttempt,
                               corrupt_file, pick_start_method, run_tasks)
from repro.dist.runner import LocalCluster, _worker_generate
from repro.errors import ConfigurationError, TaskTimeout, WorkerError

FORK_AVAILABLE = "fork" in mp.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK_AVAILABLE,
                                reason="fork start method unavailable")

# Explicit no-fault plan: shields assertions about exact attempt counts
# from TRILLIONG_FAULT_* variables the CI fault-injection job sets.
NO_FAULTS = FaultPlan()

FAST = RetryPolicy(backoff_base=0.01, backoff_factor=1.5,
                   backoff_max=0.05, jitter=0.0)


def sort_edges(edges: np.ndarray) -> np.ndarray:
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    return edges[order]


def make_generator(**kw):
    defaults = dict(scale=10, edge_factor=8, seed=7, block_size=64)
    defaults.update(kw)
    scale = defaults.pop("scale")
    ef = defaults.pop("edge_factor")
    return RecursiveVectorGenerator(scale, ef, **defaults)


# Module-level toy workers: picklable under both fork and spawn.

def _double(task):
    return task * 2


def _sleep_for(task):
    time.sleep(task)
    return task


def _always_raises(task):
    raise ValueError(f"broken task {task}")


class TestFaultPlan:
    def test_explicit_indices(self):
        plan = FaultPlan(crash_tasks=frozenset({0}),
                         hang_tasks=frozenset({1}),
                         corrupt_tasks=frozenset({2}))
        assert plan.action(0, 1) == "crash"
        assert plan.action(1, 1) == "hang"
        assert plan.action(2, 1) == "corrupt"
        assert plan.action(3, 1) is None

    def test_faults_stop_after_max_attempts(self):
        plan = FaultPlan(crash_tasks=frozenset({0}),
                         max_faulty_attempts=2)
        assert plan.action(0, 1) == "crash"
        assert plan.action(0, 2) == "crash"
        assert plan.action(0, 3) is None

    def test_probabilistic_faults_deterministic(self):
        plan = FaultPlan(crash_probability=0.5, seed=3)
        draws = [plan.action(i, 1) for i in range(64)]
        assert draws == [plan.action(i, 1) for i in range(64)]
        assert "crash" in draws and None in draws

    def test_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(crash_tasks=frozenset({1})).empty
        assert not FaultPlan(crash_probability=0.1).empty

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv("TRILLIONG_FAULT_PROB", raising=False)
        monkeypatch.setenv("TRILLIONG_FAULT_SEED", "9")
        assert FaultPlan.from_env() is None     # a seed alone arms nothing
        monkeypatch.setenv("TRILLIONG_FAULT_PROB", "0")
        assert FaultPlan.from_env() is None
        monkeypatch.setenv("TRILLIONG_FAULT_PROB", "0.25")
        assert FaultPlan.from_env() == FaultPlan(crash_probability=0.25,
                                                 seed=9)
        monkeypatch.delenv("TRILLIONG_FAULT_SEED")
        assert FaultPlan.from_env() == FaultPlan(crash_probability=0.25)

    @pytest.mark.parametrize("prob, seed", [
        ("abc", "0"), ("nan", "0"), ("-0.1", "0"), ("1.5", "0"),
        ("0.25", "x")])
    def test_from_env_rejects_invalid_values(self, monkeypatch, prob, seed):
        monkeypatch.setenv("TRILLIONG_FAULT_PROB", prob)
        monkeypatch.setenv("TRILLIONG_FAULT_SEED", seed)
        bad = ("TRILLIONG_FAULT_SEED" if seed == "x"
               else "TRILLIONG_FAULT_PROB")
        with pytest.raises(ConfigurationError, match=bad):
            FaultPlan.from_env()

    def test_plan_is_picklable(self):
        plan = FaultPlan(crash_tasks=frozenset({1}),
                         crash_probability=0.2)
        assert pickle.loads(pickle.dumps(plan)) == plan


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.35, jitter=0.0)
        delays = [policy.backoff_delay(0, k) for k in (1, 2, 3, 4)]
        assert delays == sorted(delays)
        assert delays[0] == pytest.approx(0.1)
        assert delays[-1] == pytest.approx(0.35)

    def test_jitter_bounded_and_deterministic(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=1.0,
                             backoff_max=1.0, jitter=0.5, seed=4)
        first = policy.backoff_delay(3, 1)
        assert 0.1 <= first <= 0.15
        assert first == policy.backoff_delay(3, 1)
        # different tasks draw different jitter
        others = {policy.backoff_delay(t, 1) for t in range(8)}
        assert len(others) > 1

    def test_max_attempts(self):
        assert RetryPolicy(retries=3).max_attempts == 4
        assert RetryPolicy(retries=0).max_attempts == 1


class TestScheduler:
    def test_in_process_when_pool_of_one(self):
        results, history = run_tasks([1, 2, 3], _double, pool_size=1,
                                     policy=FAST, faults=NO_FAULTS)
        assert results == [2, 4, 6]
        assert all(h[-1].in_process for h in history.values())

    @needs_fork
    def test_parallel_results_in_task_order(self):
        results, history = run_tasks(list(range(6)), _double,
                                     pool_size=3, policy=FAST,
                                     faults=NO_FAULTS)
        assert results == [0, 2, 4, 6, 8, 10]
        assert all(h[-1].outcome == "ok" for h in history.values())

    @needs_fork
    def test_crash_is_retried(self):
        plan = FaultPlan(crash_tasks=frozenset({1}))
        results, history = run_tasks([5, 6], _double, pool_size=2,
                                     policy=FAST, faults=plan)
        assert results == [10, 12]
        outcomes = [a.outcome for a in history[1]]
        assert outcomes == ["crashed", "ok"]
        assert history[1][0].injected == "crash"

    @needs_fork
    def test_hang_is_killed_and_retried(self):
        plan = FaultPlan(hang_tasks=frozenset({0}), hang_seconds=30.0)
        policy = RetryPolicy(task_timeout=0.5, backoff_base=0.01,
                             backoff_max=0.02, jitter=0.0)
        t0 = time.perf_counter()
        results, history = run_tasks([3], _double, pool_size=2,
                                     policy=policy, faults=plan)
        assert results == [6]
        assert [a.outcome for a in history[0]] == ["timeout", "ok"]
        assert time.perf_counter() - t0 < 20     # not the 30s hang

    @needs_fork
    def test_exhausted_retries_raise_worker_error(self):
        policy = RetryPolicy(retries=1, backoff_base=0.01,
                             backoff_max=0.02, jitter=0.0,
                             in_process_after=99)
        with pytest.raises(WorkerError) as info:
            run_tasks([1], _always_raises, pool_size=2, policy=policy,
                      faults=NO_FAULTS)
        assert info.value.task_index == 0
        assert len(info.value.attempts) == 2
        assert all(isinstance(a, TaskAttempt)
                   for a in info.value.attempts)

    @needs_fork
    def test_all_attempts_hung_raises_task_timeout(self):
        policy = RetryPolicy(retries=1, task_timeout=0.3,
                             backoff_base=0.01, backoff_max=0.02,
                             jitter=0.0, in_process_after=99)
        with pytest.raises(TaskTimeout):
            run_tasks([10.0], _sleep_for, pool_size=2, policy=policy,
                      faults=NO_FAULTS)

    @needs_fork
    def test_in_process_fallback_after_two_deaths(self):
        plan = FaultPlan(crash_tasks=frozenset({0}),
                         max_faulty_attempts=2)
        results, history = run_tasks([7], _double, pool_size=2,
                                     policy=FAST, faults=plan)
        assert results == [14]
        trail = history[0]
        assert [a.outcome for a in trail] == ["crashed", "crashed", "ok"]
        assert not trail[0].in_process and not trail[1].in_process
        assert trail[2].in_process

    @needs_fork
    def test_on_result_called_per_task(self):
        seen = {}
        run_tasks([1, 2], _double, pool_size=2, policy=FAST,
                  faults=NO_FAULTS,
                  on_result=lambda i, r: seen.__setitem__(i, r))
        assert seen == {0: 2, 1: 4}

    def test_empty_task_list(self):
        results, history = run_tasks([], _double, pool_size=4,
                                     policy=FAST, faults=NO_FAULTS)
        assert results == [] and history == {}


class TestClusterFaultRecovery:
    """End-to-end: LocalCluster completes under injected faults and the
    merged edge set is bit-identical to a clean sequential run."""

    @needs_fork
    def test_crash_hang_corrupt_bit_identical(self, tmp_path):
        plan = FaultPlan(crash_tasks=frozenset({0}),
                         hang_tasks=frozenset({1}),
                         corrupt_tasks=frozenset({2}),
                         hang_seconds=30.0)
        policy = RetryPolicy(task_timeout=2.5, backoff_base=0.01,
                             backoff_max=0.05, jitter=0.0)
        cluster = LocalCluster(num_workers=4)
        res = cluster.generate_to_files(make_generator(), tmp_path,
                                        "adj6", processes=2,
                                        retry=policy, faults=plan)
        assert res.num_retries >= 3
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
    def test_seeded_crash_storm_still_identical(self, tmp_path):
        plan = FaultPlan(crash_probability=0.6, seed=11)
        cluster = LocalCluster(num_workers=6)
        res = cluster.generate_to_files(make_generator(), tmp_path,
                                        "adj6", processes=3,
                                        retry=FAST, faults=plan)
        dist_edges = cluster.read_all_edges(res, "adj6")
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(make_generator().edges()))

    def test_corrupt_file_truncates(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 100)
        corrupt_file(path)
        assert path.stat().st_size == 50


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
                                        faults=NO_FAULTS,
                                        start_method="spawn")
        dist_edges = cluster.read_all_edges(res, "adj6")
        seq = make_generator(scale=9).edges()
        np.testing.assert_array_equal(sort_edges(dist_edges),
                                      sort_edges(seq))
