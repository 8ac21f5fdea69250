"""Span-tree semantics: nesting, exclusive-time math, aggregation on
re-entry, and the merge/attach algebra."""

from __future__ import annotations

import time

from repro.telemetry import (SpanNode, Stopwatch, merge_span_trees, span,
                             tracer)


def _root(name):
    node = tracer().roots.get(name)
    assert node is not None, (name, sorted(tracer().roots))
    return node


def test_stopwatch_accumulates_and_is_idempotent():
    watch = Stopwatch()
    assert watch.seconds == 0.0
    with watch:
        time.sleep(0.01)
    first = watch.seconds
    assert first > 0.0
    assert watch.stop() == first         # stop while stopped: no-op
    with watch:
        time.sleep(0.01)
    assert watch.seconds > first         # second interval adds on


def test_span_nesting_builds_a_tree():
    with span("outer", workers=2):
        with span("inner"):
            pass
        with span("inner"):
            pass
    outer = _root("outer")
    assert outer.count == 1
    assert outer.attrs == {"workers": 2}
    inner = outer.find("inner")
    assert inner is not None and inner.count == 2
    assert "inner" not in tracer().roots     # nested, not a root


def test_exclusive_time_subtracts_child_wall_time():
    with span("outer") as outer_span:
        time.sleep(0.02)
        with span("inner") as inner_span:
            time.sleep(0.02)
    outer = _root("outer")
    assert outer_span.seconds >= inner_span.seconds
    assert abs(outer.total_seconds - outer_span.seconds) < 1e-9
    expected_exclusive = outer_span.seconds - inner_span.seconds
    assert abs(outer.exclusive_seconds - expected_exclusive) < 1e-9
    inner = outer.find("inner")
    assert abs(inner.exclusive_seconds - inner.total_seconds) < 1e-9


def test_reentry_aggregates_into_one_node():
    for _ in range(5):
        with span("phase"):
            pass
    node = _root("phase")
    assert node.count == 5
    assert len(tracer().roots) == 1


def test_out_of_order_exit_does_not_corrupt_peers():
    # Interleaved lifetimes, as with pipelined writers: a enters, b
    # enters, a exits before b.
    a = span("a").__enter__()
    b = span("b").__enter__()
    a._tracer._exit(a._frame)
    b._tracer._exit(b._frame)
    assert _root("a").count == 1
    # b was entered while a was active, so it is a's child.
    assert _root("a").find("b").count == 1


def test_merge_span_trees_is_associative():
    def snap(count, seconds):
        node = SpanNode("worker.generate")
        node.count = count
        node.total_seconds = seconds
        node.exclusive_seconds = seconds
        child = node.child("format.write_blocks")
        child.count = count
        child.total_seconds = seconds / 2
        return [node.to_dict()]

    s1, s2, s3 = snap(1, 1.0), snap(2, 3.0), snap(4, 0.5)
    left = merge_span_trees(merge_span_trees(s1, s2), s3)
    right = merge_span_trees(s1, merge_span_trees(s2, s3))
    assert left == right
    (root,) = left
    assert root["count"] == 7
    assert abs(root["total_seconds"] - 4.5) < 1e-12
    assert root["children"][0]["count"] == 7


def test_merge_span_trees_deep_and_unbalanced():
    """One report carries a deep chain, the other stops early and has an
    extra sibling subtree: the merge keeps every branch, aligned by
    name, with per-node sums."""
    def chain(depth, seconds):
        root = node = SpanNode("level0")
        node.count = 1
        node.total_seconds = seconds
        for i in range(1, depth):
            node = node.child(f"level{i}")
            node.count = 1
            node.total_seconds = seconds / (i + 1)
        return root

    deep = chain(6, 6.0).to_dict()
    shallow_root = chain(2, 2.0)
    extra = shallow_root.child("sidecar")
    extra.count = 3
    shallow = shallow_root.to_dict()

    (merged,) = merge_span_trees([deep], [shallow])
    node, depth = merged, 0
    while node["children"]:
        named = {c["name"]: c for c in node["children"]}
        if depth == 0:
            assert set(named) == {"level1", "sidecar"}
            assert named["sidecar"]["count"] == 3
        node = named[f"level{depth + 1}"]
        depth += 1
    assert depth == 5                        # the deep chain survived
    assert merged["count"] == 2
    assert abs(merged["total_seconds"] - 8.0) < 1e-12


def test_merge_span_trees_ignores_sibling_order():
    def tree(order):
        root = SpanNode("root")
        root.count = 1
        for name in order:
            child = root.child(name)
            child.count = 1
        return [root.to_dict()]

    forward = merge_span_trees(tree(["a", "b", "c"]),
                               tree(["c", "b", "a"]))
    (root,) = forward
    counts = {c["name"]: c["count"] for c in root["children"]}
    assert counts == {"a": 2, "b": 2, "c": 2}


def test_attach_grafts_under_current_span_without_exclusive_charge():
    worker = SpanNode("worker.generate")
    worker.count = 1
    worker.total_seconds = 100.0
    worker.exclusive_seconds = 100.0
    with span("sched.run_tasks") as sched:
        tracer().attach([worker.to_dict()])
    node = _root("sched.run_tasks")
    grafted = node.find("worker.generate")
    assert grafted is not None and grafted.total_seconds == 100.0
    # The worker's 100s ran in another process: the parent's exclusive
    # time must not go negative because of the graft.
    assert node.exclusive_seconds >= 0.0
    assert abs(node.exclusive_seconds - sched.seconds) < 1e-9


def test_attach_merges_into_existing_child():
    first = SpanNode("w")
    first.count = 1
    second = SpanNode("w")
    second.count = 2
    with span("parent"):
        tracer().attach([first.to_dict()])
        tracer().attach([second.to_dict()])
    assert _root("parent").find("w").count == 3
