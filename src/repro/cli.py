"""Command-line interface: ``trilliong`` / ``python -m repro``.

Subcommands
-----------
``generate``   — generate a Graph500-style graph (any n x n seed) to
TSV/ADJ6/CSR6, sequentially, over worker processes, or resumably;
``rich``       — generate a rich (gMark-style) graph (Section 6);
``verify``     — validate a generated graph file;
``stats``      — print statistics of a graph file;
``degrees``    — print the degree histogram of a graph file;
``convert``    — convert between graph formats;
``merge``      — merge ordered part files into one graph file;
``plan``       — capacity planning on the paper's cluster model;
``baseline``   — run one of the paper's baseline generators;
``analyze``    — print realism metrics of a graph file;
``experiment`` — print a paper figure's or table's rows (``--list``);
``fit``        — fit a seed matrix to a graph, optionally rescaling it.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__
from .core.generator import Recipe
from .core.seed import SeedMatrix
from .errors import ConfigurationError
from .formats import available_formats, get_format
from .system import generate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilliong",
        description="TrillionG reproduction: recursive-vector-model "
                    "synthetic graph generator")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic graph")
    gen.add_argument("--scale", type=int, required=True,
                     help="recursion depth; |V| = n^scale")
    gen.add_argument("--edge-factor", type=int, default=None,
                     help="|E| / |V| (Graph500 default: 16)")
    gen.add_argument("--format", choices=available_formats(),
                     default="adj6")
    gen.add_argument("--output", required=True,
                     help="output file (a directory with more than one "
                          "worker or with --resume)")
    gen.add_argument("--noise", type=float, default=0.0,
                     help="NSKG noise parameter N")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--matrix", default=None,
                     help="n x n seed matrix, n*n comma-separated entries "
                          "row-major, e.g. 'a,b,c,d' (default Graph500)")
    gen.add_argument("--machines", type=int, default=1)
    gen.add_argument("--threads", type=int, default=1,
                     help="threads per machine")
    gen.add_argument("--retries", type=int, default=None,
                     help="max re-attempts per worker task before the "
                          "run fails (default 3; needs more than one "
                          "worker)")
    gen.add_argument("--task-timeout", type=float, default=None,
                     help="per-attempt wall-clock budget in seconds; "
                          "hung workers are killed and retried (needs "
                          "more than one worker)")
    gen.add_argument("--resume", action="store_true",
                     help="checkpointed generation into the output "
                          "directory; re-run the same command after a "
                          "crash to continue where it stopped")
    gen.add_argument("--blocks-per-chunk", type=int, default=None,
                     help="checkpoint granularity with --resume "
                          "(default 16)")
    gen.add_argument("--metrics-out", default=None,
                     help="write the run's telemetry report (metrics + "
                          "span tree, merged across workers) as JSON")
    gen.add_argument("--progress", action="store_true",
                     help="live progress line on stderr "
                          "(edges/s, ETA, pipeline queue depth)")
    gen.add_argument("--trace-out", default=None, metavar="PATH",
                     help="write the run's span trees (per-worker "
                          "tracks) as Chrome Trace Event JSON, loadable "
                          "in Perfetto or chrome://tracing")

    rich = sub.add_parser("rich",
                          help="generate a rich (gMark-style) graph")
    rich.add_argument("--vertices", type=int, default=1 << 14)
    rich.add_argument("--edges", type=int, default=None)
    rich.add_argument("--config", default=None,
                      help="JSON graph configuration (overrides --schema)")
    rich.add_argument("--schema", default="bibliographical",
                      help="built-in schema: bibliographical, watdiv, "
                           "snb, or sp2bench")
    rich.add_argument("--output", required=True,
                      help="output triple file (src\\tpred\\tdst)")
    rich.add_argument("--seed", type=int, default=0)
    rich.add_argument("--dump-config", default=None,
                      help="also write the effective configuration as "
                           "JSON to this path")

    verify = sub.add_parser(
        "verify", help="validate a generated graph file")
    verify.add_argument("--input", required=True)
    verify.add_argument("--format", choices=available_formats(),
                        default="adj6")
    verify.add_argument("--vertices", type=int, required=True)
    verify.add_argument("--matrix", default=None,
                        help="2x2 seed matrix 'a,b,c,d' to check the Zipf "
                             "slope against (default Graph500)")
    verify.add_argument("--expected-edges", type=int, default=None)

    stats = sub.add_parser("stats", help="print graph statistics")
    stats.add_argument("--input", required=True)
    stats.add_argument("--format", choices=available_formats(),
                       default="adj6")
    stats.add_argument("--vertices", type=int, default=None,
                       help="|V| (default: max id + 1)")

    degrees = sub.add_parser("degrees", help="print degree histogram")
    degrees.add_argument("--input", required=True)
    degrees.add_argument("--format", choices=available_formats(),
                         default="adj6")
    degrees.add_argument("--direction", choices=("out", "in"),
                         default="out")

    convert = sub.add_parser("convert", help="convert graph formats")
    convert.add_argument("--input", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--from", dest="from_format",
                         choices=available_formats(), required=True)
    convert.add_argument("--to", dest="to_format",
                         choices=available_formats(), required=True)

    merge = sub.add_parser(
        "merge", help="merge ordered part files into one graph file")
    merge.add_argument("--parts", nargs="+", required=True,
                       help="part files in vertex-range order")
    merge.add_argument("--vertices", type=int, required=True)
    merge.add_argument("--output", required=True)
    merge.add_argument("--from", dest="in_format",
                       choices=available_formats(), default="adj6")
    merge.add_argument("--to", dest="out_format",
                       choices=available_formats(), default=None)

    plan = sub.add_parser(
        "plan", help="capacity planning on the paper's cluster model")
    plan.add_argument("--machines", type=int, default=10,
                      help="cluster size (paper-spec PCs)")
    plan.add_argument("--hours", type=float, default=None,
                      help="optional time budget")
    plan.add_argument("--target-scale", type=int, default=None,
                      help="also report machines needed for this scale")

    baseline = sub.add_parser(
        "baseline", help="run one of the paper's baseline generators")
    baseline.add_argument("--model", required=True,
                          help="model name, e.g. 'RMAT-mem' "
                               "(see repro.models.ALL_MODELS)")
    baseline.add_argument("--scale", type=int, required=True)
    baseline.add_argument("--edge-factor", type=int, default=16)
    baseline.add_argument("--format", choices=available_formats(),
                          default="tsv")
    baseline.add_argument("--output", required=True)
    baseline.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze", help="print realism metrics for a graph file")
    analyze.add_argument("--input", required=True)
    analyze.add_argument("--format", choices=available_formats(),
                         default="adj6")
    analyze.add_argument("--vertices", type=int, required=True)

    exp = sub.add_parser(
        "experiment",
        help="run a paper experiment and print its rows")
    exp.add_argument("--id", dest="experiment_id", default=None,
                     help="experiment id (see --list)")
    exp.add_argument("--list", action="store_true",
                     help="list available experiments")

    fit = sub.add_parser(
        "fit", help="fit a seed matrix to a graph; optionally rescale it")
    fit.add_argument("--input", required=True)
    fit.add_argument("--format", choices=available_formats(),
                     default="adj6")
    fit.add_argument("--vertices", type=int, required=True,
                     help="|V| of the input graph (power of two)")
    fit.add_argument("--rescale", type=int, default=None,
                     help="target scale: also generate a scaled graph")
    fit.add_argument("--output", default=None,
                     help="output file for the rescaled graph")
    fit.add_argument("--seed", type=int, default=0)
    return parser


def _parse_matrix(text: str | None) -> SeedMatrix | None:
    """An ``n x n`` seed from ``n * n`` row-major entries, ``n >= 2``."""
    if text is None:
        return None
    try:
        values = [float(x) for x in text.split(",")]
        order = math.isqrt(len(values))
        if order * order != len(values) or order < 2:
            raise SystemExit("--matrix expects n*n entries for some n >= 2 "
                             f"(got {len(values)})")
        return SeedMatrix(np.array(values).reshape(order, order))
    except ValueError as exc:   # a SeedMatrixError among them
        raise SystemExit(f"--matrix: {exc}") from None


def _refuse_ignored_flags(args: argparse.Namespace) -> None:
    """Exit on a flag that the requested mode would silently ignore."""
    if args.machines * args.threads <= 1:
        for flag, value in (("--retries", args.retries),
                            ("--task-timeout", args.task_timeout)):
            if value is not None:
                raise SystemExit(f"{flag} acts only with more than one "
                                 "worker (--machines x --threads > 1)")
    if args.blocks_per_chunk is not None and not args.resume:
        raise SystemExit("--blocks-per-chunk acts only with --resume")


def _cmd_generate(args: argparse.Namespace) -> int:
    _refuse_ignored_flags(args)
    retry = None
    if args.retries is not None or args.task_timeout is not None:
        from .dist.faults import RetryPolicy
        try:
            retry = RetryPolicy(
                retries=args.retries if args.retries is not None else 3,
                task_timeout=args.task_timeout)
        except ConfigurationError as exc:
            raise SystemExit(f"--retries/--task-timeout: {exc}") from None
    reporter = None
    try:
        recipe = Recipe(args.scale, args.edge_factor,
                        _parse_matrix(args.matrix), noise=args.noise,
                        seed=args.seed)
        if args.progress:
            from .telemetry import ProgressReporter
            reporter = ProgressReporter(total_edges=recipe.num_edges)
        result = generate(recipe, args.output, args.format,
                          workers=args.machines * args.threads,
                          retry=retry, resume=args.resume,
                          blocks_per_chunk=args.blocks_per_chunk,
                          progress=reporter)
    except ConfigurationError as exc:
        raise SystemExit(str(exc)) from None
    if reporter is not None:
        reporter.finish()
    if args.metrics_out is not None:
        from .telemetry import write_json_report
        write_json_report(args.metrics_out, result.telemetry)
    if args.trace_out is not None:
        from .telemetry.traceview import write_trace
        write_trace(args.trace_out, result.telemetry,
                    label=f"trilliong scale={args.scale}")
        print(f"chrome trace -> {args.trace_out}")
    print(f"generated |V|={result.num_vertices} "
          f"|E|={result.num_edges} "
          f"bytes={result.bytes_written} "
          f"elapsed={result.elapsed_seconds:.2f}s "
          f"skew={result.skew:.3f} "
          f"edges/s={result.edges_per_second:,.0f} "
          f"MB/s={result.bytes_per_second / 2**20:.1f} "
          f"(encode={result.encode_seconds:.2f}s "
          f"write={result.write_seconds:.2f}s)")
    for p in result.paths:
        print(f"  {p}")
    return 0


def _cmd_rich(args: argparse.Namespace) -> int:
    from .rich_graph import (RichGraphGenerator, builtin_schema,
                             load_config, save_config)
    if args.config is not None:
        config = load_config(args.config)
    else:
        config = builtin_schema(args.schema, args.vertices, args.edges)
    if args.dump_config is not None:
        save_config(config, args.dump_config)
    generator = RichGraphGenerator(config, seed=args.seed)
    count = generator.write_ntriples(args.output)
    print(f"generated rich graph: |V|={config.num_vertices} "
          f"triples={count} -> {args.output}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .errors import FormatError
    from .validate import validate_blocks
    seed_matrix = _parse_matrix(args.matrix)
    if seed_matrix is None:
        from .core.seed import GRAPH500
        seed_matrix = GRAPH500
    if not seed_matrix.is_rmat:
        raise SystemExit("verify --matrix: Lemma 6's Zipf slope is "
                         "defined for 2x2 seeds only")
    blocks = get_format(args.format).read_blocks(args.input)
    try:
        report = validate_blocks(blocks, args.vertices,
                                 seed_matrix=seed_matrix,
                                 expected_edges=args.expected_edges)
    except FormatError as exc:
        raise SystemExit(f"verify: {exc}") from None
    print(report)
    return 0 if report.ok else 1


def _load_edges(args: argparse.Namespace) -> np.ndarray:
    fmt = get_format(args.format)
    return fmt.read_edges(args.input)


def _cmd_stats(args: argparse.Namespace) -> int:
    from .analysis import graph_stats
    edges = _load_edges(args)
    num_vertices = args.vertices
    if num_vertices is None:
        num_vertices = int(edges.max()) + 1 if edges.size else 0
    print(graph_stats(edges, num_vertices))
    return 0


def _cmd_degrees(args: argparse.Namespace) -> int:
    from .analysis import degree_histogram
    out, seq = args.direction == "out", np.zeros(0, dtype=np.int64)
    for block in get_format(args.format).read_blocks(args.input):
        counts = np.bincount(block.sources if out else block.destinations,
                             block.degrees if out else None, seq.size)
        counts[:seq.size] += seq
        seq = counts.astype(np.int64)
    hist = degree_histogram(seq)
    print("degree\tcount")
    for d, c in zip(hist.degrees, hist.counts):
        print(f"{d}\t{c}")
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    src = get_format(args.from_format)
    dst = get_format(args.to_format)
    edges = src.read_edges(args.input)
    num_vertices = int(edges.max()) + 1 if edges.size else 1
    result = dst.write_edges(args.output, edges, num_vertices)
    print(f"converted {args.input} ({args.from_format}) -> "
          f"{result.path} ({args.to_format}), {result.num_edges} edges")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .dist import merge_parts
    result = merge_parts(args.parts, args.vertices, args.output,
                         in_format=args.in_format,
                         out_format=args.out_format)
    print(f"merged {len(args.parts)} parts: |E|={result.num_edges} "
          f"-> {result.path}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from dataclasses import replace as _replace

    from .cluster import PAPER_CLUSTER, capacity_report, machines_needed
    cluster = _replace(PAPER_CLUSTER, machines=args.machines)
    budget = args.hours * 3600 if args.hours is not None else None
    report = capacity_report(cluster, budget)
    print(f"cluster: {cluster.machines} machines x "
          f"{cluster.threads_per_machine} threads, "
          f"{cluster.network.name}")
    if budget is not None:
        print(f"time budget: {args.hours:g} h")
    for method, scale in sorted(report.max_scales.items()):
        cell = scale if scale is not None else "infeasible"
        print(f"  {method:18s} max scale {cell}")
    print(f"best method: {report.winner()}")
    if args.target_scale is not None:
        needed = machines_needed(args.target_scale, base=cluster,
                                 time_budget_seconds=budget)
        print(f"machines needed for scale {args.target_scale}: "
              f"{needed if needed is not None else 'beyond limit'}")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    from .models import ALL_MODELS
    from .models.base import StreamingDedupMixin
    try:
        cls = ALL_MODELS[args.model]
    except KeyError:
        raise SystemExit(
            f"unknown model {args.model!r}; available: "
            f"{sorted(ALL_MODELS)}")
    streaming = isinstance(cls, type) and issubclass(cls,
                                                     StreamingDedupMixin)
    generator = cls(args.scale, args.edge_factor, seed=args.seed)
    if streaming:
        # Disk models stream spill -> sort -> format writer end to end:
        # bounded memory, so the graph may be larger than RAM.
        result = generator.write_to(args.output, fmt=args.format)
    else:
        edges = generator.generate()
        fmt = get_format(args.format)
        result = fmt.write_edges(args.output, edges,
                                 generator.num_vertices)
    report = generator.report
    print(f"{cls.name}: |E|={result.num_edges} "
          f"dup={report.duplicates_discarded} "
          f"elapsed={report.elapsed_seconds:.2f}s -> {result.path}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import (clustering_coefficient_sampled,
                           effective_diameter, fit_kronecker_class_slope,
                           graph_stats, oscillation_score, out_degrees,
                           reciprocity)
    edges = _load_edges(args)
    n = args.vertices
    degs = out_degrees(edges, n)
    print(graph_stats(edges, n))
    try:
        print(f"zipf class slope : {fit_kronecker_class_slope(degs):.3f}")
    except ValueError:
        print("zipf class slope : n/a")
    print(f"oscillation      : {oscillation_score(degs):.3f}")
    print(f"reciprocity      : {reciprocity(edges, n):.3f}")
    print(f"clustering (est.): "
          f"{clustering_coefficient_sampled(edges, n, 2000):.3f}")
    print(f"eff. diameter    : "
          f"{effective_diameter(edges, n, samples=8):.2f}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import (EXPERIMENTS, available_experiments,
                              run_experiment)
    if args.list or args.experiment_id is None:
        for exp_id in available_experiments():
            print(f"{exp_id:18s} {EXPERIMENTS[exp_id][0]}")
        return 0
    rows = run_experiment(args.experiment_id)
    if not rows:
        print("(no rows)")
        return 0
    headers = list(rows[0])
    widths = [max(len(h), max(len(str(r[h])) for r in rows))
              for h in headers]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(r[h]).ljust(w)
                        for h, w in zip(headers, widths)))
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    from .fit import GraphScaler
    fmt = get_format(args.format)
    edges = fmt.read_edges(args.input)
    scaler = GraphScaler.fit(edges, args.vertices)
    seed = scaler.seed_matrix
    print(f"fitted seed matrix: "
          f"[{seed.alpha:.4f}, {seed.beta:.4f}; "
          f"{seed.gamma:.4f}, {seed.delta:.4f}]")
    print(f"edge factor: {scaler.fit_result.edge_factor:.2f}   "
          f"out-slope: {seed.out_zipf_slope():.3f}   "
          f"in-slope: {seed.in_zipf_slope():.3f}")
    if args.rescale is not None:
        if args.output is None:
            raise SystemExit("--rescale requires --output")
        generator = scaler.generator(args.rescale, seed=args.seed)
        result = fmt.write_blocks(args.output, generator.iter_blocks(),
                                  generator.num_vertices)
        print(f"rescaled to scale {args.rescale}: "
              f"{result.num_edges} edges -> {result.path}")
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "fit": _cmd_fit,
    "experiment": _cmd_experiment,
    "baseline": _cmd_baseline,
    "plan": _cmd_plan,
    "merge": _cmd_merge,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
    "rich": _cmd_rich,
    "stats": _cmd_stats,
    "degrees": _cmd_degrees,
    "convert": _cmd_convert,
}


def main(argv: list[str] | None = None) -> int:
    from .telemetry import configure_logging
    configure_logging()
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
