"""Spans: hierarchical phase timing, plus the :class:`Stopwatch` primitive.

A ``span("phase", **attrs)`` context manager times one phase of the
pipeline and records it into a per-process trace *tree*.  Unlike a
per-call tracing system, nodes aggregate: re-entering ``span("encode")``
under the same parent accumulates into the same node (count, total wall
seconds, exclusive seconds), so the tree stays bounded no matter how many
blocks flow through a phase and it merges naturally across processes.

``exclusive_seconds`` is the span's wall time minus the wall time of the
child spans entered while it was active — the per-phase cost attribution
the paper's Figure 11/12 phase breakdowns need.

A span costs two clock reads — exactly the cost of the ad-hoc
``perf_counter()`` pairs it replaces — plus one node lookup, and its
measured ``seconds`` also fill the result timing fields.

The span stack is thread-local; finished top-level spans land in the
shared tracer roots.  Background threads (e.g. the pipelined disk
writer) and subprocesses therefore never corrupt the producer's stack —
subprocess trees are shipped as snapshots and grafted with
:meth:`Tracer.attach`.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable, Mapping

__all__ = [
    "Stopwatch",
    "SpanNode",
    "Span",
    "Tracer",
    "tracer",
    "span",
    "reset_tracer",
    "merge_span_trees",
]


class Stopwatch:
    """An accumulating wall-clock timer: the telemetry-layer replacement
    for scattered ``t0 = perf_counter(); ...; total += perf_counter()-t0``
    pairs.  Usable as a (re-entrant-free) context manager or via
    ``start()``/``stop()``; ``seconds`` is the running total.
    """

    __slots__ = ("seconds", "_started")

    def __init__(self) -> None:
        self.seconds = 0.0
        self._started: float | None = None

    def start(self) -> "Stopwatch":
        self._started = time.perf_counter()
        return self

    def stop(self) -> float:
        """Accumulate the open interval; returns the running total.
        Idempotent when not running."""
        if self._started is not None:
            self.seconds += time.perf_counter() - self._started
            self._started = None
        return self.seconds

    @property
    def running(self) -> bool:
        return self._started is not None

    def __enter__(self) -> "Stopwatch":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


class SpanNode:
    """One aggregated node of the trace tree."""

    __slots__ = ("name", "attrs", "count", "total_seconds",
                 "exclusive_seconds", "children")

    def __init__(self, name: str,
                 attrs: Mapping[str, object] | None = None) -> None:
        self.name = name
        self.attrs: dict[str, object] = dict(attrs or {})
        self.count = 0
        self.total_seconds = 0.0
        self.exclusive_seconds = 0.0
        self.children: dict[str, "SpanNode"] = {}

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = SpanNode(name)
        return node

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attrs": dict(self.attrs),
            "count": self.count,
            "total_seconds": self.total_seconds,
            "exclusive_seconds": self.exclusive_seconds,
            "children": [c.to_dict() for _, c in
                         sorted(self.children.items())],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SpanNode":
        node = cls(data["name"], data.get("attrs"))
        node.count = int(data.get("count", 0))
        node.total_seconds = float(data.get("total_seconds", 0.0))
        node.exclusive_seconds = float(data.get("exclusive_seconds", 0.0))
        for child in data.get("children", ()):
            node.children[child["name"]] = cls.from_dict(child)
        return node

    def merge(self, other: "SpanNode") -> None:
        """Fold ``other`` (same name) into this node, recursively."""
        if other.name != self.name:
            raise ValueError(
                f"cannot merge span {other.name!r} into {self.name!r}")
        self.count += other.count
        self.total_seconds += other.total_seconds
        self.exclusive_seconds += other.exclusive_seconds
        for key, value in other.attrs.items():
            self.attrs.setdefault(key, value)
        for name, child in other.children.items():
            mine = self.children.get(name)
            if mine is None:
                self.children[name] = child
            else:
                mine.merge(child)

    def find(self, *path: str) -> "SpanNode | None":
        """Descendant lookup by name path (testing/report convenience)."""
        node: SpanNode | None = self
        for name in path:
            if node is None:
                return None
            node = node.children.get(name)
        return node


class _Frame:
    __slots__ = ("name", "node", "start", "child_seconds")

    def __init__(self, name: str, node: SpanNode, start: float) -> None:
        self.name = name
        self.node = node
        self.start = start
        self.child_seconds = 0.0


class Span:
    """The handle yielded by :func:`span`.

    ``seconds`` holds the measured wall time once the block exits.
    """

    __slots__ = ("name", "attrs", "seconds", "_tracer", "_frame")

    def __init__(self, name: str, attrs: dict[str, object],
                 owner: "Tracer") -> None:
        self.name = name
        self.attrs = attrs
        self.seconds = 0.0
        self._tracer = owner
        self._frame: _Frame | None = None

    def __enter__(self) -> "Span":
        self._frame = self._tracer._enter(self.name, self.attrs)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self._frame is not None
        self.seconds = self._tracer._exit(self._frame)
        self._frame = None


class Tracer:
    """Per-process trace-tree builder with a thread-local span stack."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.roots: dict[str, SpanNode] = {}

    # -- stack machinery -------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str, attrs: Mapping[str, object]) -> _Frame:
        stack = self._stack()
        if stack:
            node = stack[-1].node.child(name)
        else:
            with self._lock:
                node = self.roots.get(name)
                if node is None:
                    node = self.roots[name] = SpanNode(name)
        for key, value in attrs.items():
            node.attrs[key] = value
        frame = _Frame(name, node, time.perf_counter())
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> float:
        elapsed = time.perf_counter() - frame.start
        stack = self._stack()
        # Tolerate out-of-order exits (interleaved writer lifetimes):
        # remove the frame wherever it sits instead of corrupting peers.
        if frame in stack:
            stack.remove(frame)
        node = frame.node
        node.count += 1
        node.total_seconds += elapsed
        node.exclusive_seconds += elapsed - frame.child_seconds
        if stack:
            stack[-1].child_seconds += elapsed
        return elapsed

    # -- public surface --------------------------------------------------

    def span(self, name: str, **attrs: object) -> Span:
        return Span(name, attrs, self)

    def current(self) -> SpanNode | None:
        """The innermost active span node of this thread, if any."""
        stack = self._stack()
        return stack[-1].node if stack else None

    def snapshot(self) -> list[dict]:
        """JSON-able copy of the finished trace tree (roots, sorted)."""
        with self._lock:
            return [self.roots[name].to_dict()
                    for name in sorted(self.roots)]

    def attach(self, trees: Iterable[Mapping]) -> None:
        """Graft serialized span trees (e.g. a worker process snapshot)
        under the current span — or as roots when no span is active.

        Grafted time is *not* charged against the parent's exclusive
        time: the child ran in another process, so its wall clock
        overlaps rather than subdivides the parent's.
        """
        parent = self.current()
        for data in trees:
            node = SpanNode.from_dict(data)
            if parent is not None:
                mine = parent.children.get(node.name)
                if mine is None:
                    parent.children[node.name] = node
                else:
                    mine.merge(node)
            else:
                with self._lock:
                    mine = self.roots.get(node.name)
                    if mine is None:
                        self.roots[node.name] = node
                    else:
                        mine.merge(node)

    def reset(self) -> None:
        with self._lock:
            self.roots.clear()
        self._local = threading.local()


_TRACER = Tracer()


def tracer() -> Tracer:
    """The process-wide tracer."""
    return _TRACER


def span(name: str, **attrs: object) -> Span:
    """Open a span on the global tracer (the module-level convenience
    every instrumented call site uses)::

        with span("scatter", workers=4) as sp:
            ...
        elapsed = sp.seconds
    """
    return _TRACER.span(name, **attrs)


def reset_tracer() -> None:
    """Clear the global trace tree (worker-process entry, tests)."""
    _TRACER.reset()


def merge_span_trees(*snapshots: Iterable[Mapping]) -> list[dict]:
    """Pure merge of span-tree snapshots (lists of root dicts) into one
    combined snapshot; associative and commutative."""
    roots: dict[str, SpanNode] = {}
    for snap in snapshots:
        for data in snap:
            node = SpanNode.from_dict(data)
            mine = roots.get(node.name)
            if mine is None:
                roots[node.name] = node
            else:
                mine.merge(node)
    return [roots[name].to_dict() for name in sorted(roots)]
