"""Instrument updates are lock-protected: the pipeline's background
writer thread and the producer share counters, so hammering the same
instruments from two threads must lose zero updates — exact totals,
not approximate ones."""

from __future__ import annotations

import threading

from repro.telemetry import registry

ITERATIONS = 2_000


def hammer(barrier):
    reg = registry()
    counter = reg.counter("test.shared_counter")
    gauge = reg.gauge("test.shared_peak", mode="max")
    hist = reg.histogram("test.shared_hist", bounds=(1.0, 10.0, 100.0))
    barrier.wait()
    for i in range(ITERATIONS):
        counter.inc()
        gauge.set(float(i))
        hist.observe(float(i % 150))


def test_concurrent_updates_lose_nothing():
    barrier = threading.Barrier(2)
    worker = threading.Thread(target=hammer, args=(barrier,),
                              name="test-hammer")
    worker.start()
    hammer(barrier)
    worker.join()
    snap = registry().snapshot()
    assert snap["test.shared_counter"]["value"] == 2 * ITERATIONS
    assert snap["test.shared_peak"]["value"] == float(ITERATIONS - 1)
    hist = snap["test.shared_hist"]
    assert hist["count"] == 2 * ITERATIONS
    assert sum(hist["counts"]) == 2 * ITERATIONS


def test_concurrent_merge_and_updates():
    # A worker folding its snapshot in (the distributed-run path) races
    # the producer's live increments; the folded total must be exact.
    reg = registry()
    counter = reg.counter("test.merged")
    worker_snapshot = {"test.merged": {"type": "counter", "value": 1.0}}
    merges = 500

    def merge_loop():
        for _ in range(merges):
            reg.merge(worker_snapshot)

    worker = threading.Thread(target=merge_loop, name="test-merger")
    worker.start()
    for _ in range(ITERATIONS):
        counter.inc()
    worker.join()
    assert counter.value == ITERATIONS + merges

