"""Registry semantics: instrument behavior and the merge algebra the
cross-process aggregation relies on."""

from __future__ import annotations

import pytest

from repro.telemetry import (POW2_BUCKETS, Histogram, MetricsRegistry,
                             merge_metrics)


def test_counter_gauge_histogram_roundtrip():
    reg = MetricsRegistry()
    reg.counter("edges").inc(5)
    reg.counter("edges").inc(2)
    reg.gauge("depth", mode="max").set(3)
    reg.gauge("depth", mode="max").set(1)       # max keeps 3
    reg.histogram("sizes", bounds=(1.0, 2.0, 4.0)).observe(2.0, count=3)
    snap = reg.snapshot()
    assert snap["edges"] == {"type": "counter", "value": 7.0}
    assert snap["depth"]["value"] == 3.0
    assert snap["sizes"]["counts"] == [0, 3, 0, 0]
    assert snap["sizes"]["sum"] == 6.0
    assert snap["sizes"]["count"] == 3


def test_instruments_are_idempotent_and_type_checked():
    reg = MetricsRegistry()
    assert reg.counter("x") is reg.counter("x")
    with pytest.raises(TypeError):
        reg.gauge("x")


def test_histogram_bucket_placement():
    hist = Histogram((1.0, 2.0, 4.0))
    for value, bucket in [(0.5, 0), (1.0, 0), (1.5, 1), (4.0, 2),
                          (100.0, 3)]:     # beyond last bound: overflow
        before = hist.counts[bucket]
        hist.observe(value)
        assert hist.counts[bucket] == before + 1, value


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram((2.0, 1.0))
    with pytest.raises(ValueError):
        Histogram(())


def test_observe_bulk_matches_repeated_observe():
    a = Histogram(POW2_BUCKETS)
    b = Histogram(POW2_BUCKETS)
    pairs = [(1.0, 4), (16.0, 2), (2.0 ** 50, 1)]
    a.observe_bulk(*zip(*pairs))
    for value, count in pairs:
        b.observe(value, count)
    assert a.snapshot() == b.snapshot()


def _snap(build):
    reg = MetricsRegistry()
    build(reg)
    return reg.snapshot()


def test_merge_metrics_is_associative_and_commutative():
    def one(reg):
        reg.counter("edges").inc(10)
        reg.gauge("hw", mode="max").set(4)
        reg.histogram("h", bounds=(1.0, 8.0)).observe(3.0)

    def two(reg):
        reg.counter("edges").inc(5)
        reg.counter("retries").inc(1)
        reg.gauge("hw", mode="max").set(9)

    def three(reg):
        reg.histogram("h", bounds=(1.0, 8.0)).observe(100.0, count=2)
        reg.gauge("hw", mode="max").set(2)

    s1, s2, s3 = _snap(one), _snap(two), _snap(three)
    left = merge_metrics(merge_metrics(s1, s2), s3)
    right = merge_metrics(s1, merge_metrics(s2, s3))
    swapped = merge_metrics(s3, s1, s2)
    assert left == right == swapped
    assert left["edges"]["value"] == 15.0
    assert left["hw"]["value"] == 9.0
    assert left["h"]["counts"] == [0, 1, 2]


def test_merge_rejects_mismatched_histogram_bounds():
    s1 = _snap(lambda r: r.histogram("h", bounds=(1.0,)).observe(1.0))
    s2 = _snap(lambda r: r.histogram("h", bounds=(2.0,)).observe(1.0))
    with pytest.raises(ValueError):
        merge_metrics(s1, s2)
