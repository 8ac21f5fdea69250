"""End-to-end benchmark of ``trilliong generate``: five workloads through
the real CLI, every output checked, every metric printed by name.

Two ways in (see README.md in this directory):

``python3 benchmarks/e2e/run.py``
    One *set*: k = 5 rounds of the five workloads, round-robin, then one
    traced pass per workload.  ``--fast`` shrinks it to a smoke run,
    ``--self-check`` runs two sets and compares them (the A/A test).

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload, measured for ``S`` seconds (at least two children);
    the last line of stdout is one JSON object with the end-to-end
    metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

The load is closed-loop with one client: children run strictly one
after another, in fresh processes, in a hermetic environment.  The
metric names, units, directions and bounds are read from
``BENCHMARK.json`` at the repository root; the workloads are defined
here and name only paper-level parameters.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Everything the benchmark writes lands here (listed in .gitignore).
SCRATCH = ROOT / ".bench_e2e"

EDGE_FACTOR = 16
FULL_ROUNDS = 5
#: A timed invocation never measures fewer children per workload: the
#: median of three shrugs off one child that met a burst of the host.
MIN_ROUNDS = 3
#: What :func:`warm_pages` touches and frees: above the largest peak RSS
#: of any workload (517 MiB, ``seq-tsv``).
WARM_BYTES = 640 << 20
#: A child still running after this long is hung (the longest takes 15 s,
#: `trilliong verify` of 8 M edges): it is killed and counts as failed.
CHILD_TIMEOUT_S = 120
#: The issue bounds ``setup_s`` by max(its share, 0.1 s): a third of a
#: second of interpreter start-up does not repeat to the percent.  The
#: A/A check honours the floor; BENCHMARK.json can only hold the share.
SETUP_SLACK_S = 0.1
#: Metrics that are pure functions of the output bytes: an A/A pair must
#: agree on them exactly, not within a bound.
EXACT = frozenset({"bytes_per_edge"})


@dataclass(frozen=True)
class Workload:
    """One CLI invocation, named by paper-level parameters only — never
    an engine, sampler or ``TRILLIONG_*`` switch, so the benchmark
    measures what a user gets by default."""

    name: str
    argv: tuple[str, ...]
    scale: int
    fast_scale: int
    workers: int = 1
    #: Workload that writes the same graph with one worker: the parts of
    #: this one, concatenated, must be its file byte for byte, and its
    #: wall time is the numerator of ``parallel_efficiency``.
    reference: str | None = None

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1]

    @property
    def generates(self) -> bool:
        """``generate`` realises its edge target; the RMAT baseline
        over-draws by 1 % and loses more than that to duplicates."""
        return self.argv[0] == "generate"

    def cli(self, scale: int, seed: int, output: Path) -> list[str]:
        return [*self.argv, "--scale", str(scale), "--seed", str(seed),
                "--output", str(output)]


WORKLOADS = {w.name: w for w in (
    Workload("seq-adj6", ("generate", "--format", "adj6"), 18, 13),
    Workload("seq-tsv", ("generate", "--format", "tsv"), 18, 12),
    # The noise level is set so low because every seed draws its own
    # per-level noise: at 0.1 the hub block, and with it time and peak
    # RSS, moves by a third from one seed to the next.  The code path
    # through NoisyProcess is the same at any level above 0.
    Workload("seq-adj6-noise",
             ("generate", "--format", "adj6", "--noise", "0.01"), 18, 13),
    Workload("par-adj6", ("generate", "--format", "adj6", "--threads", "2"),
             18, 13, workers=2, reference="seq-adj6"),
    Workload("extmem-rmat-disk",
             ("baseline", "--model", "RMAT-disk", "--format", "adj6"),
             19, 13),
)}


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def child_env(tmp: Path) -> dict[str, str]:
    """Hermetic environment: no ``TRILLIONG_*`` switch leaks in, the
    source tree is the one beside this file, numeric libraries get one
    thread (the machine's cores belong to the worker processes),
    temporary files — the spill runs of the external sort — land in the
    run's own directory, and glibc keeps freed memory in the process
    instead of unmapping every numpy temporary: how fast this VM's host
    hands a page back is the largest noise there is, and not the
    program's."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("TRILLIONG_")}
    env.update(PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_MAX_="0",
               MALLOC_TRIM_THRESHOLD_=str(1 << 40))
    return env


def warm_pages() -> None:
    """Leave ``WARM_BYTES`` of free memory that the host still backs.

    This VM's host takes free guest pages back after two seconds and
    faults them in again at 4-7 us/KiB, so a child's ``sys`` time is
    0.15 s or 2.5 s (5 s in a bad hour) depending on what ran before it
    and how long ago (README.md, "How steady it is").  A throw-away
    process pays that instead.  It has to be a numpy array: numpy asks
    for huge pages, as the program's arrays do, and touching the same
    amount as 4 KiB pages leaves the next child as cold as before.
    """
    subprocess.run([sys.executable, "-c", "import numpy; "
                    f"numpy.full({WARM_BYTES}, 1, dtype=numpy.uint8)"],
                   check=True)


def spawn(command: list[str], tmp: Path) -> dict[str, Any]:
    """Run one child to completion; wall time is spawn to exit, CPU and
    peak RSS are those of the child and the descendants it reaped."""
    start = time.perf_counter()
    # Its own session, so that a child that hangs or is interrupted goes
    # down with the workers it forked.
    proc = subprocess.Popen(command, env=child_env(tmp), cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    assert proc.stdout is not None
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                               (proc.pid, signal.SIGKILL))
    watchdog.start()
    output = None
    try:
        with proc.stdout:
            output = proc.stdout.read()
    finally:
        watchdog.cancel()
        if output is None:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "exit_code": proc.returncode, "output": output}


def output_files(output: Path) -> list[Path]:
    return sorted(output.iterdir()) if output.is_dir() else [output]


def digest(files: list[Path]) -> str:
    """sha256 of the files' bytes, concatenated in name order."""
    sha = hashlib.sha256()
    for path in files:
        with open(path, "rb") as handle:
            while chunk := handle.read(1 << 20):
                sha.update(chunk)
    return sha.hexdigest()


def verify_output(workload: Workload, scale: int, output: Path,
                  edges: int) -> str | None:
    """Untimed ``trilliong verify`` of one output; returns what failed.

    Never with ``--expected-edges``: its 5-sigma binomial tolerance is
    tighter than the scope-size sampler's own +0.2 % bias and fails
    correct graphs (README.md, defects); the realised count is checked
    against the target by :func:`run_once` instead.
    """
    files = output_files(output)
    joined = files[0]
    if len(files) > 1:
        joined = output.parent / f"joined.{workload.fmt}"
        with open(joined, "wb") as sink:
            for path in files:
                with open(path, "rb") as source:
                    shutil.copyfileobj(source, sink)
    child = spawn([sys.executable, "-m", "repro", "verify",
                   "--input", str(joined), "--format", workload.fmt,
                   "--vertices", str(1 << scale)], output.parent)
    if child["exit_code"] != 0:
        return f"verify exited {child['exit_code']}: {child['output'][-400:]}"
    shape = re.search(r"edge array shape \((\d+), 2\)", child["output"])
    if shape is None or int(shape.group(1)) != edges:
        return f"verify counted {shape and shape.group(1)} edges, " \
               f"the CLI reported {edges}"
    return None


def run_once(workload: Workload, seed: int, fast: bool, *,
             verify: bool = False, trace_to: Path | None = None,
             warm: bool = False) -> dict[str, Any]:
    """One child in its own temp dir, its output checked and deleted.

    With ``trace_to`` the child is ``trace.py`` — the same pipeline
    stepped through public functions — and writes its spans there.
    With ``warm`` it is preceded by :func:`warm_pages`.
    """
    scale = workload.fast_scale if fast else workload.scale
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        output = Path(tmp) / "out"
        cli = workload.cli(scale, seed, output)
        if trace_to is None:
            command = [sys.executable, "-m", "repro", *cli]
        else:
            command = [sys.executable, str(HERE / "trace.py"), *cli,
                       "--run", workload.name, "--trace-out", str(trace_to)]
        if warm:
            warm_pages()
        run = spawn(command, Path(tmp))
        run.update(scale=scale, seed=seed, failure=None)
        text = run.pop("output")
        if run["exit_code"] != 0:
            run["failure"] = f"exit code {run['exit_code']}: {text[-400:]}"
            return run
        files = output_files(output)
        run.update(bytes=sum(p.stat().st_size for p in files),
                   sha256=digest(files))
        if trace_to is not None:
            return run
        edges = re.search(r"\|E\|=(\d+)", text)
        elapsed = re.search(r"elapsed=([0-9.]+)s", text)
        if edges is None or elapsed is None:
            run["failure"] = f"no |E|= / elapsed= in: {text[-400:]}"
            return run
        run.update(edges=int(edges.group(1)),
                   elapsed_s=float(elapsed.group(1)))
        target = EDGE_FACTOR << scale
        low = 0.99 * target if workload.generates else 1
        printed = re.search(r"bytes=(\d+)", text)
        if not low <= run["edges"] <= 1.01 * target:
            run["failure"] = f"{run['edges']} edges for a target of {target}"
        elif printed is not None and int(printed.group(1)) != run["bytes"]:
            run["failure"] = (f"CLI reported {printed.group(1)} bytes, "
                              f"{run['bytes']} on disk")
        elif verify:
            run["failure"] = verify_output(workload, scale, output,
                                           run["edges"])
    return run


def run_set(names: list[str], seed: int, fast: bool, *,
            rounds: int | None = None, seconds: float = 0.0,
            verify: bool = True, warm_each: bool = False
            ) -> dict[str, list[dict[str, Any]]]:
    """Rounds of one child per workload, round-robin, so machine drift
    spreads evenly over the workloads.  Runs ``rounds`` rounds, or —
    time-boxed — until the children add up to ``seconds``, at least
    ``MIN_ROUNDS`` rounds, and until a run fails.  The first output of
    each workload is verified; every later one must have the first one's
    digest, and a workload with a ``reference`` must have the
    reference's.  A full-size child finds the pages its predecessor
    freed still warm, which is enough after a child of its own size:
    the first one is preceded by :func:`warm_pages`, and with
    ``warm_each`` — five workloads of five sizes in turn — every one.
    """
    runs: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    measured = 0.0
    done = 0
    failed = False
    while (done < rounds if rounds is not None
           else not failed and (done < MIN_ROUNDS or measured < seconds)):
        for name in names:
            first_child = not any(runs.values())
            run = run_once(WORKLOADS[name], seed, fast,
                           verify=verify and done == 0,
                           warm=not fast and (warm_each or first_child))
            measured += run["wall_s"]
            first = runs[name][0] if runs[name] else run
            reference = WORKLOADS[name].reference
            if run["failure"] is None:
                if run["sha256"] != first.get("sha256"):
                    run["failure"] = "digest differs from the first run's"
                elif reference and run["sha256"] != \
                        runs[reference][0].get("sha256"):
                    run["failure"] = f"digest differs from {reference}'s"
            if run["failure"] is not None:
                failed = True
                print(f"FAILED {name}: {run['failure']}", file=sys.stderr)
            runs[name].append(run)
        done += 1
    return runs


# ---------------------------------------------------------------------------
# End-to-end metrics
# ---------------------------------------------------------------------------

def quartiles(values: list[float]) -> dict[str, float]:
    """Median, quartiles, range and n.  Five samples support no tail
    percentile, so none is reported."""
    q1, median, q3 = (statistics.quantiles(values, n=4)
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def end_to_end(runs: dict[str, list[dict[str, Any]]], name: str
               ) -> dict[str, dict[str, float]]:
    """The end-to-end metrics of one workload from its untraced runs."""
    good = [r for r in runs[name] if r["failure"] is None]
    if not good:
        return {}
    samples = {
        "wall_s": [r["wall_s"] for r in good],
        "edges_per_s": [r["edges"] / r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "peak_rss_mb": [r["peak_rss_mb"] for r in good],
        "setup_s": [r["wall_s"] - r["elapsed_s"] for r in good],
        "bytes_per_edge": [r["bytes"] / r["edges"] for r in good],
    }
    metrics = {metric: quartiles(values)
               for metric, values in samples.items()}
    # One worker is its own reference: efficiency 1 by definition.
    efficiency = 1.0
    workload = WORKLOADS[name]
    if workload.reference is not None:
        reference = end_to_end(runs, workload.reference)
        if not reference:
            return {}
        efficiency = (reference["wall_s"]["median"]
                      / (workload.workers * metrics["wall_s"]["median"]))
    metrics["parallel_efficiency"] = quartiles([efficiency])
    return metrics


def manifest(runs: list[dict[str, Any]]) -> dict[str, Any]:
    """What was generated — recorded, never gated on: a later PR may
    re-freeze the digests, it may not make two runs disagree."""
    first = runs[0]
    return {key: first.get(key)
            for key in ("seed", "scale", "edges", "bytes", "sha256")}


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict[str, Any], untraced_elapsed_s: float,
                  serial_fraction: float) -> dict[str, float]:
    """Per-layer metrics from one trace.  A layer that is idle on the
    workload reads 0.  Busy time is self time: a span's duration minus
    its children's."""
    spans = trace["spans"]
    own = [s["end"] - s["start"] for s in spans]
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    busy: dict[str, float] = defaultdict(float)
    longest: dict[str, float] = defaultdict(float)
    for span, self_s in zip(spans, own):
        busy[span["name"]] += self_s
        longest[span["name"]] = max(longest[span["name"]], self_s)
    pipeline = next(s for s in spans if s["name"] == "trace.pipeline")
    wall = pipeline["end"] - pipeline["start"]

    counts = defaultdict(float, trace["counts"])
    telemetry = defaultdict(float, trace["telemetry"])
    edges = counts["edges"]
    core_edges = telemetry["generator.edges"]
    core_dups = telemetry["generator.duplicates_discarded"]
    max_block = max(counts["block_edges"]) if core_edges else 0
    worker_busy = counts["worker_busy_s"] or [0.0]
    worker_edges = counts["worker_edges"] or [0.0]
    chunk_spans = [s["end"] - s["start"] for s in spans
                   if s["name"] == "models.iter_unique_key_chunks"]
    model_generate = counts["model_generate_s"]
    merge_busy = sum(chunk_spans) - model_generate
    core_busy = busy["core.block_degrees"] + busy["core.generate_block"]
    return {
        "core.setup.busy_s": busy["core.setup"],
        "core.scope.busy_s": busy["core.block_degrees"],
        "core.generate_block.busy_s": busy["core.generate_block"],
        "core.generate_block.share": busy["core.generate_block"] / wall,
        "core.generate_block.max_s": longest["core.generate_block"],
        "core.ns_per_edge": ratio(1e9 * core_busy, core_edges),
        "core.edges": core_edges,
        "core.duplicates_discarded": core_dups,
        "core.duplicate_ratio": ratio(core_dups, core_edges + core_dups),
        "core.max_block_edges": max_block,
        "core.max_block_share": ratio(max_block, core_edges),
        "formats.add_block.busy_s": busy["formats.add_block"],
        "formats.add_block.share": busy["formats.add_block"] / wall,
        "formats.encode_s": counts["encode_s"],
        "formats.encode_mb_per_s": ratio(counts["bytes_written"] / 1e6,
                                         counts["encode_s"]),
        "formats.write_s": counts["write_s"],
        "formats.close_s": busy["formats.close"],
        "formats.queue_high_water": telemetry["pipeline.queue_high_water"],
        "formats.bytes_written": counts["bytes_written"],
        "formats.blocks": telemetry["format.blocks_encoded"],
        "formats.regroup.busy_s": busy["formats.blocks_from_sorted_keys"],
        "dist.partition_s": counts["partition_s"],
        "dist.scatter_s": counts["scatter_s"],
        "dist.worker_busy_max_s": max(worker_busy),
        "dist.worker_busy_sum_s": sum(worker_busy),
        "dist.overhead_s": counts["scatter_s"] - max(worker_busy),
        "dist.edge_skew": ratio(max(worker_edges),
                                statistics.mean(worker_edges)),
        "dist.time_skew": ratio(max(worker_busy),
                                statistics.mean(worker_busy)),
        "dist.attempts": counts["attempts"],
        "dist.retries": counts["retries"],
        "dist.serial_fraction": serial_fraction,
        "models.rmat.generate_s": model_generate,
        "models.rmat.duplicate_ratio": ratio(
            counts["model_duplicates"], edges + counts["model_duplicates"]),
        "util.spill.runs": telemetry["extsort.runs_spilled"],
        "util.spill.bytes": telemetry["extsort.spill_bytes"],
        "util.spill.write_amplification": ratio(
            telemetry["extsort.spill_bytes"], counts["bytes_written"]),
        "util.merge.first_chunk_s": (chunk_spans[0] - model_generate
                                     if chunk_spans else 0.0),
        "util.merge.busy_s": merge_busy,
        "util.merge.keys_per_s": ratio(edges, merge_busy),
        "util.merge.readahead_wait_s":
            telemetry["extsort.readahead_wait_seconds"],
        "util.merge.peak_buffered_items":
            telemetry["extsort.peak_buffered_items"],
        "trace.wall_s": wall,
        "trace.unattributed_share": busy["trace.pipeline"] / wall,
        "trace.overhead_share": wall / untraced_elapsed_s - 1.0,
    }


def traced_pass(name: str, seed: int, fast: bool,
                runs: dict[str, list[dict[str, Any]]], out_dir: Path,
                warm: bool = False) -> tuple[dict[str, float], str | None]:
    """One traced child of ``name``; ``runs`` are the untraced runs of
    the same set, which give the bytes the traced pipeline must
    reproduce, the untraced ``elapsed=`` to price the tracing against,
    and the two medians behind the Amdahl serial fraction."""
    workload = WORKLOADS[name]
    metrics = end_to_end(runs, name)
    if not metrics:
        return {}, "no good untraced run to compare the trace with"
    good = [r for r in runs[name] if r["failure"] is None]
    serial_fraction = 0.0
    if workload.reference is not None:
        # Amdahl: T_p = T_1 (s + (1 - s) / p), and efficiency = T_1 / (p T_p).
        p = workload.workers
        speedup = p * metrics["parallel_efficiency"]["median"]
        serial_fraction = (1 / speedup - 1 / p) / (1 - 1 / p)
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace-{name}.json"
    run = run_once(workload, seed, fast, trace_to=trace_path, warm=warm)
    if run["failure"] is None and run["sha256"] != good[0]["sha256"]:
        run["failure"] = "traced pipeline wrote other bytes than the CLI"
    if run["failure"] is not None:
        return {}, run["failure"]
    trace = json.loads(trace_path.read_text())
    elapsed = statistics.median(r["elapsed_s"] for r in good)
    return layer_metrics(trace, elapsed, serial_fraction), None


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def load_spec() -> dict[str, Any]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = [w["name"] for w in spec["workloads"]]
    if named != list(WORKLOADS):
        raise SystemExit(f"BENCHMARK.json names workloads {named}, "
                         f"run.py defines {list(WORKLOADS)}")
    return spec


def stamp() -> dict[str, Any]:
    """Where and on what the numbers were measured."""
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                         capture_output=True)
    cpu = re.search(r"model name\s*:\s*(.+)",
                    Path("/proc/cpuinfo").read_text())
    return {"commit": git.stdout.strip() if git.returncode == 0
            else "unknown",
            "nproc": os.cpu_count(),
            "cpu": cpu.group(1) if cpu else platform.processor(),
            "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


def measure_set(spec: dict[str, Any], seed: int, fast: bool, out_dir: Path
                ) -> dict[str, Any]:
    """One full set: the untraced rounds, then the traced pass."""
    names = list(WORKLOADS)
    runs = run_set(names, seed, fast, rounds=1 if fast else FULL_ROUNDS,
                   warm_each=True)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    result: dict[str, Any] = {}
    for name in names:
        attempted = len(runs[name])
        failed = sum(r["failure"] is not None for r in runs[name])
        metrics = end_to_end(runs, name)
        if metrics and WORKLOADS[name].workers > (os.cpu_count() or 1):
            metrics["parallel_efficiency"]["unresolved"] = True
        for metric, stats in metrics.items():
            stats["unit"] = units[metric]
        layers, trace_failure = traced_pass(name, seed, fast, runs, out_dir,
                                            warm=not fast)
        result[name] = {
            "command": ["trilliong", *WORKLOADS[name].cli(
                runs[name][0]["scale"], seed, Path("OUT"))],
            "manifest": manifest(runs[name]),
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted,
            "failures": [r["failure"] for r in runs[name] if r["failure"]]
            + ([trace_failure] if trace_failure else []),
            "end_to_end": metrics,
            "per_layer": {metric: {"value": value, "unit": units[metric]}
                          for metric, value in layers.items()},
        }
        print(f"\n{name}: {attempted} runs, {failed} failed, "
              f"sha256 {str(result[name]['manifest']['sha256'])[:16]}")
        for metric, stats in metrics.items():
            print(f"  {metric:32s} {stats['median']:14.6g} {stats['unit']:8s}"
                  f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                  f" min {stats['min']:.6g} max {stats['max']:.6g}"
                  f" n {stats['n']}")
        print(f"  {'failed_share':32s} {failed / attempted:14.6g} ratio")
        for metric, value in layers.items():
            print(f"  {metric:32s} {value:14.6g} {units[metric]}")
    return result


def set_failed(result: dict[str, Any]) -> bool:
    return any(w["failures"] for w in result.values())


def compare_sets(spec: dict[str, Any], first: dict[str, Any],
                 second: dict[str, Any]) -> dict[str, Any]:
    """A/A verdicts: per workload and end-to-end metric, do the two
    medians agree within the metric's bound?  A metric whose own spread
    is wider than its bound cannot tell, and is ``unresolved``."""
    verdicts: dict[str, Any] = {}
    for name in WORKLOADS:
        verdicts[name] = {}
        for metric in spec["end_to_end"]:
            a = first[name]["end_to_end"][metric["name"]]
            b = second[name]["end_to_end"][metric["name"]]
            spread = max(a["spread"], b["spread"])
            gap = abs(b["median"] - a["median"]) / a["median"]
            bound = metric["bound"]
            if metric["name"] == "setup_s":
                bound = max(bound, SETUP_SLACK_S / a["median"])
            if metric["name"] in EXACT:
                verdict = "agree" if gap == 0 else "disagree"
            elif spread > bound or a.get("unresolved"):
                verdict = "unresolved"
            else:
                verdict = "agree" if gap <= bound else "disagree"
            verdicts[name][metric["name"]] = {
                "first": a["median"], "second": b["median"], "gap": gap,
                "spread": spread, "bound": bound, "verdict": verdict}
            print(f"{name:18s} {metric['name']:20s} {a['median']:12.6g} "
                  f"{b['median']:12.6g} gap {gap:7.2%} spread {spread:7.2%} "
                  f"bound {bound:6.1%} {verdict}")
    return verdicts


def standalone(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    out_dir = Path(args.out) if args.out else SCRATCH / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    report: dict[str, Any] = {
        "schema": 1, "stamp": stamp(), "seed": args.seed,
        "mode": "fast" if args.fast else "full",
        "rounds": 1 if args.fast else FULL_ROUNDS,
        "workloads": measure_set(spec, args.seed, args.fast, out_dir)}
    failed = set_failed(report["workloads"])
    if args.self_check and not failed:
        second = measure_set(spec, args.seed, args.fast, out_dir)
        failed = set_failed(second)
        if not failed:
            report["second_set"] = {
                name: {key: second[name][key]
                       for key in ("manifest", "end_to_end", "per_layer")}
                for name in second}
            report["self_check"] = compare_sets(spec, report["workloads"],
                                                second)
            failed = any(
                v["verdict"] == "disagree"
                for w in report["self_check"].values() for v in w.values())
    (out_dir / "results.json").write_text(json.dumps(report, indent=1))
    print(f"\nresults -> {out_dir / 'results.json'}"
          f"{' (FAILED)' if failed else ''}")
    return 1 if failed else 0


def one_workload(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    """The driver's entry: one workload, one JSON line."""
    workload = WORKLOADS[args.workload]
    names = [n for n in (workload.reference, workload.name) if n]
    # Warm the page cache and the bytecode cache, which no user pays
    # for on every run, so the first timed child starts like the rest.
    run_once(WORKLOADS["seq-adj6"], args.seed, fast=True)
    if args.trace:
        # `trilliong verify` costs as much as the run it checks, so it
        # runs where the set is run once: here.  The timed invocations
        # check exit code, counts, bytes and digests.
        runs = run_set(names, args.seed, fast=False, rounds=1)
        layers, failure = traced_pass(workload.name, args.seed, False, runs,
                                      SCRATCH / "results")
        metrics, listed = layers, spec["per_layer"]
    else:
        runs = run_set(names, args.seed, fast=False, seconds=args.seconds,
                       verify=False)
        metrics = {name: stats["median"] for name, stats
                   in end_to_end(runs, workload.name).items()}
        failure, listed = None, spec["end_to_end"]
    mine = runs[workload.name]
    failed = sum(r["failure"] is not None for r in mine)
    # A failed reference run leaves nothing to compare with: then no
    # run of this workload counts as good either.
    correct = failure is None and bool(metrics) and not any(
        r["failure"] for rs in runs.values() for r in rs)
    if not correct:
        print(f"FAILED {workload.name}: {failure or 'see above'}",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True, "attempted": len(mine), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed}}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7,
                        help="passed to every child as its --seed")
    parser.add_argument("--fast", action="store_true",
                        help="smoke run: scale 12-13, one round, no bounds")
    parser.add_argument("--self-check", action="store_true",
                        help="A/A: two sets, medians must agree within "
                             "the bounds of BENCHMARK.json")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and "
                             "trace-<workload>.json")
    parser.add_argument("--workload", choices=list(WORKLOADS), default=None,
                        help="measure one workload and print one JSON line")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="with --workload: how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 prints the end-to-end "
                             "metrics, 1 the per-layer metrics")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    try:
        if args.workload is not None:
            return one_workload(args, spec)
        return standalone(args, spec)
    finally:
        # Per-run temp dirs clean up after themselves; this catches what
        # an interrupted run left behind.
        for leftover in SCRATCH.glob("tmp*"):
            shutil.rmtree(leftover, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
