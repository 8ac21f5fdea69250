"""Traced pass of the end-to-end benchmark: one workload, stepped block
by block through the layers' public functions.

``run.py`` starts this file in a fresh child with the same paper-level
arguments it gives ``trilliong generate`` / ``trilliong baseline``, plus
``--trace-out``.  The pipeline built here is the one the CLI builds —
same constructors, same defaults, same output bytes (``run.py`` compares
the digests) — but every call that crosses a layer boundary is made
from this file, inside a span.  Nothing inside ``src/`` is instrumented:
the spans say where the time went as seen from outside, and the counts
come from the public result objects and ``repro.telemetry``.

Spans are ``{name, start, end, parent, run}`` records kept in memory and
written once, at exit.  ``parent`` is the index of the enclosing span
(``None`` for a root), ``run`` names the traced workload.  Two roots
exist per trace: ``core.setup`` (constructing the generator, which the
CLI does before its ``elapsed=`` clock starts) and ``trace.pipeline``
(the interval the CLI's ``elapsed=`` covers).  ``run.py`` turns the
spans into the per-layer metrics; a span's self time is its duration
minus its children's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator


class Recorder:
    """In-memory span recorder with a parent stack."""

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "run": self.run}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, call: Callable[..., Any]
             ) -> Callable[..., Any]:
        """``call``, with every invocation recorded as a span."""
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return call(*args, **kwargs)
        return traced

    def iterate(self, name: str, iterable: Iterable[Any]) -> Iterator[Any]:
        """``iterable``, with every ``next()`` recorded as a span — the
        time a lazy producer spends making one item.  The item is handed
        on outside the span, so consumer time is never billed to it."""
        iterator = iter(iterable)
        while True:
            with self.span(name):
                try:
                    item = next(iterator)
                except StopIteration:
                    return
            yield item


def _telemetry() -> dict[str, float]:
    """Counter and gauge values of the program's own metrics registry
    (merged across worker processes by the scheduler)."""
    from repro.telemetry import build_report
    return {name: metric["value"]
            for name, metric in build_report()["metrics"].items()
            if "value" in metric}


def _write_blocks(rec: Recorder, fmt_name: str, path: str,
                  num_vertices: int, blocks: Iterable[Any]
                  ) -> dict[str, Any]:
    """``GraphFormat.write_blocks``, unrolled so each writer call is its
    own span.  Returns the writer-side counts."""
    from repro.formats import get_format
    with rec.span("formats.open_writer"):
        writer = get_format(fmt_name).open_writer(path, num_vertices)
    add_block = rec.wrap("formats.add_block", writer.add_block)
    block_edges = []
    for block in blocks:
        block_edges.append(block.num_edges)
        add_block(block)
    with rec.span("formats.close"):
        result = writer.close()
    return {"edges": result.num_edges,
            "bytes_written": result.bytes_written,
            "encode_s": result.encode_seconds,
            "write_s": result.write_seconds,
            "block_edges": block_edges}


def trace_generate(rec: Recorder, args: argparse.Namespace
                   ) -> dict[str, Any]:
    """``trilliong generate``: sequential, or through ``LocalCluster``."""
    from repro import TrillionG
    from repro.dist.partition import range_partition
    from repro.dist.runner import ClusterSpec, LocalCluster
    cluster = (ClusterSpec(machines=1, threads_per_machine=args.threads)
               if args.threads > 1 else None)
    with rec.span("core.setup"):
        tg = TrillionG(args.scale, noise=args.noise, seed=args.seed,
                       cluster=cluster)
    gen = tg.generator
    num_blocks = -(-gen.num_vertices // gen.block_size)
    if cluster is None:
        # Shadow the bound method on this one instance, so the call
        # generate_block makes itself lands as its child span.
        gen.block_degrees = rec.wrap("core.block_degrees",
                                     gen.block_degrees)
        generate_block = rec.wrap("core.generate_block", gen.generate_block)
        with rec.span("trace.pipeline"):
            counts = _write_blocks(
                rec, args.format, args.output, gen.num_vertices,
                (generate_block(index) for index in range(num_blocks)))
        counts["duplicates_discarded"] = gen.stats.duplicates_discarded
        return counts
    with rec.span("trace.pipeline"):
        # generate_to_files partitions again itself (13 ms at scale 18):
        # a public call can only be given a span by making it from here.
        with rec.span("dist.range_partition"):
            range_partition(gen, cluster.num_workers)
        with rec.span("dist.generate_to_files"):
            result = LocalCluster(cluster).generate_to_files(
                gen, args.output, args.format)
    # The blocks were made in the workers; their sizes are the scope
    # sizes, which the supervisor can redraw (untimed, outside the
    # pipeline span) without generating an edge.
    block_edges = [int(gen.block_degrees(index).sum())
                   for index in range(num_blocks)]
    return {"edges": result.num_edges,
            "bytes_written": sum(p.stat().st_size for p in result.paths),
            "encode_s": result.encode_seconds,
            "write_s": result.write_seconds,
            "block_edges": block_edges,
            "partition_s": result.partition_seconds,
            "scatter_s": result.elapsed_seconds - result.partition_seconds,
            "worker_busy_s": [w.elapsed_seconds for w in result.workers],
            "worker_edges": [w.num_edges for w in result.workers],
            "attempts": sum(len(a) for a in result.task_attempts.values()),
            "retries": result.num_retries}


def trace_baseline(rec: Recorder, args: argparse.Namespace
                   ) -> dict[str, Any]:
    """``trilliong baseline`` for a disk model: spill, merge, regroup,
    write — ``StreamingDedupMixin.write_to`` unrolled."""
    from repro.formats import blocks_from_sorted_keys
    from repro.models import ALL_MODELS
    model = ALL_MODELS[args.model](args.scale, seed=args.seed)
    with rec.span("trace.pipeline"):
        chunks = rec.iterate("models.iter_unique_key_chunks",
                             model.iter_unique_key_chunks())
        blocks = rec.iterate(
            "formats.blocks_from_sorted_keys",
            blocks_from_sorted_keys(chunks, model.num_vertices))
        counts = _write_blocks(rec, args.format, args.output,
                               model.num_vertices, blocks)
    report = model.report
    counts["model_generate_s"] = report.phase_seconds["generate"]
    counts["model_duplicates"] = report.duplicates_discarded
    return counts


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    generate = sub.add_parser("generate")
    generate.add_argument("--noise", type=float, default=0.0)
    generate.add_argument("--threads", type=int, default=1)
    generate.set_defaults(pipeline=trace_generate)
    baseline = sub.add_parser("baseline")
    baseline.add_argument("--model", required=True)
    baseline.set_defaults(pipeline=trace_baseline)
    for command in (generate, baseline):
        command.add_argument("--scale", type=int, required=True)
        command.add_argument("--format", required=True)
        command.add_argument("--seed", type=int, required=True)
        command.add_argument("--output", required=True)
        command.add_argument("--trace-out", required=True)
        command.add_argument("--run", required=True,
                             help="workload name stamped on every span")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rec = Recorder(args.run)
    counts = args.pipeline(rec, args)
    with open(args.trace_out, "w") as handle:
        json.dump({"run": args.run, "spans": rec.spans, "counts": counts,
                   "telemetry": _telemetry()}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
