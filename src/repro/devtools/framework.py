"""Checker framework for ``reprolint``.

Two kinds of rules plug into the framework:

- A :class:`Checker` is an :class:`ast.NodeVisitor` subclass registered
  via :func:`register_checker`.  The runner parses each file once into a
  :class:`SourceFile` (source text, AST, dotted module name, pragma
  table) and hands it to every enabled checker; checkers call
  :meth:`Checker.flag` to report :class:`Violation` records.  File
  checkers see one file at a time, so their results are cacheable per
  file (see :mod:`repro.devtools.engine.cache`).
- A :class:`ProjectChecker` (registered via
  :func:`register_project_checker`) runs once over the whole-program
  :class:`~repro.devtools.engine.project.ProjectModel` — the symbol
  table, import graph, and call graph built from every file — and flags
  cross-file properties no single-file pass can see.

Suppressions use pragma comments (scanned from real COMMENT tokens, so
pragma-shaped *strings* in fixture code do not suppress anything):

- ``# reprolint: disable=<name-or-code>[,<name-or-code>...]`` on the
  offending line (or ``disable=all``),
- ``# reprolint: disable-file=<name-or-code>[,...]`` anywhere in the file
  to silence a checker for the whole file,
- ``# reprolint: skip-file`` to skip the file entirely.

Every pragma's *use* is recorded; the ``dead-pragma`` project checker
(RPL701) reports pragmas that suppressed nothing.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .engine.project import ModuleSummary, ProjectModel

__all__ = ["Violation", "LintConfig", "SourceFile", "Checker",
           "ProjectChecker", "Pragma", "PragmaTable",
           "register_checker", "all_checkers",
           "register_project_checker", "all_project_checkers",
           "lint_file", "lint_paths", "module_name", "iter_python_files",
           "config_with", "relaxed_profile", "ALL", "RELAXED_CODES"]

_PRAGMA = re.compile(r"#\s*reprolint:\s*(skip-file|disable(?:-file)?=([\w\-, ]+))")

#: Sentinel meaning "every checker" in a pragma's disable set.
ALL = "all"

#: Codes the relaxed (tests / benchmarks) profile switches off: fixtures
#: may seed ad-hoc RNGs, assert exact float values, print tables, and
#: skip ``__all__`` declarations.
RELAXED_CODES = frozenset({
    "RPL101", "RPL102", "RPL103",            # ad-hoc RNGs in fixtures
    "RPL111",                                # determinism tests *assert*
                                             # same-seed streams match
    "RPL301",                                # exact-value asserts
    "RPL501", "RPL502", "RPL503", "RPL504",  # no __all__ contract
    "RPL508",                                # print() in harness output
    "RPL520",                                # tests/benches materialize
                                             # merge streams to compare
    "RPL811", "RPL812",                      # fixtures build tiny arrays
                                             # where default dtypes and
                                             # narrow accumulators are fine
})


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what went wrong."""

    path: str
    line: int
    col: int
    code: str      #: stable machine code, e.g. ``RPL101``
    name: str      #: checker name, e.g. ``rng-determinism``
    message: str

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.code} [{self.name}] {self.message}")

    def to_dict(self) -> dict[str, object]:
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "name": self.name,
                "message": self.message}

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> "Violation":
        return cls(path=str(doc["path"]), line=int(doc["line"]),  # type: ignore[call-overload]
                   col=int(doc["col"]), code=str(doc["code"]),  # type: ignore[call-overload]
                   name=str(doc["name"]), message=str(doc["message"]))


@dataclass(frozen=True)
class Pragma:
    """One ``# reprolint:`` suppression comment, located and parsed."""

    line: int
    kind: str                  #: ``disable`` | ``disable-file`` | ``skip-file``
    targets: frozenset[str]    #: lower-cased checker names / codes / ``all``

    def to_json(self) -> dict[str, object]:
        return {"line": self.line, "kind": self.kind,
                "targets": sorted(self.targets)}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "Pragma":
        return cls(line=int(doc["line"]), kind=str(doc["kind"]),  # type: ignore[call-overload]
                   targets=frozenset(doc["targets"]))  # type: ignore[arg-type]


@dataclass
class PragmaTable:
    """The suppression pragmas of one file, plus which of them fired.

    ``used`` holds ``(pragma_line, matched_target)`` pairs; RPL701
    reports any non-``skip-file`` pragma none of whose targets ever
    matched a would-be violation.
    """

    skip: bool = False
    pragmas: list[Pragma] = field(default_factory=list)
    used: set[tuple[int, str]] = field(default_factory=set)

    @classmethod
    def scan(cls, text: str) -> "PragmaTable":
        """Parse pragmas from ``text``'s comment tokens.

        Tokenizing (rather than regexing whole lines) keeps pragma-shaped
        string literals — lint-fixture code embedded in tests — from
        registering as real suppressions.  Unreadable sources fall back
        to the line scan.
        """
        table = cls()
        try:
            comments = [(tok.start[0], tok.string) for tok in
                        tokenize.generate_tokens(io.StringIO(text).readline)
                        if tok.type == tokenize.COMMENT]
        except (tokenize.TokenError, IndentationError, SyntaxError):
            comments = [(lineno, line) for lineno, line
                        in enumerate(text.splitlines(), start=1)
                        if "#" in line]
        for lineno, comment in comments:
            match = _PRAGMA.search(comment)
            if not match:
                continue
            if match.group(1) == "skip-file":
                table.skip = True
                continue
            kind = ("disable-file" if match.group(1).startswith("disable-file")
                    else "disable")
            targets = frozenset(t.strip().lower() for t in
                                (match.group(2) or "").split(",") if t.strip())
            if targets:
                table.pragmas.append(Pragma(lineno, kind, targets))
        return table

    def is_disabled(self, keys: set[str], line: int) -> bool:
        """True if a pragma suppresses a violation with ``keys`` at
        ``line``; the match is recorded for dead-pragma detection."""
        hit = False
        for pragma in self.pragmas:
            if pragma.kind == "disable" and pragma.line != line:
                continue
            matched = keys & pragma.targets
            if matched:
                for target in matched:
                    self.used.add((pragma.line, target))
                hit = True
        return hit

    def unused_pragmas(self) -> list[Pragma]:
        """Pragmas (excluding ``skip-file``) that never suppressed."""
        return [p for p in self.pragmas
                if not any((p.line, t) in self.used for t in p.targets)]

    def to_json(self) -> dict[str, object]:
        return {"skip": self.skip,
                "pragmas": [p.to_json() for p in self.pragmas]}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "PragmaTable":
        return cls(skip=bool(doc["skip"]),
                   pragmas=[Pragma.from_json(p)
                            for p in doc["pragmas"]])  # type: ignore[union-attr]


#: Default interval seeds for the numeric analysis (RPL8xx): the
#: paper's value ranges, keyed by exact parameter name.  2^48 - 1 is
#: the ADJ6 ID ceiling; scale tops out at 62 (edges fit int64).
_INTERVAL_SEEDS: dict[str, tuple[float, float]] = {
    "scale": (0, 62),
    "log_n": (0, 62),
    "block_size": (1, 2 ** 31),
    "edge_factor": (0, 2 ** 20),
    "degree": (0, 2 ** 32 - 1),
    "degrees": (0, 2 ** 32 - 1),
    "max_degree": (0, 2 ** 32 - 1),
    "max_id": (0, 2 ** 48 - 1),
    "num_vertices": (1, 2 ** 48),
    "n_vertices": (1, 2 ** 48),
    "num_edges": (0, 2 ** 62),
    "n_edges": (0, 2 ** 62),
    "p": (0.0, 1.0),
    "prob": (0.0, 1.0),
    "probability": (0.0, 1.0),
}


@dataclass(frozen=True)
class LintConfig:
    """Project policy consumed by the checkers.

    The defaults encode the TrillionG repo's rules; tests override
    individual fields to exercise checkers against fixture trees, and
    :func:`relaxed_profile` is the stock policy for test/benchmark
    directories.
    """

    #: Module allowed to construct numpy generators / SeedSequences.
    rng_module: str = "repro.core.rng"
    #: Extra modules allowed to *call into* numpy's random module
    #: (none by default — everything routes through ``rng_module``).
    rng_allowed_modules: frozenset[str] = frozenset()
    #: ``numpy.random`` attributes that may be referenced anywhere because
    #: they are types used in annotations, not entropy sources.
    rng_type_names: frozenset[str] = frozenset(
        {"Generator", "BitGenerator", "RandomState"})
    #: Layering rules: modules under <key> must not import <values>.
    layering_rules: dict[str, tuple[str, ...]] = field(default_factory=lambda: {
        "repro.core": ("repro.dist", "repro.formats", "repro.cli",
                       "repro.cluster"),
        "repro.models": ("repro.dist",),
        "repro.util": ("repro.core", "repro.models", "repro.dist",
                       "repro.formats", "repro.cluster", "repro.cli"),
        # telemetry is the bottom layer: every other layer may import it,
        # so it must import none of them (or instrumentation would cycle).
        "repro.telemetry": ("repro.core", "repro.models", "repro.dist",
                            "repro.formats", "repro.cluster", "repro.cli",
                            "repro.system", "repro.util",
                            "repro.sanitize"),
        # the sanitizer sits beside telemetry at the bottom: rng and the
        # format pipeline call into it, so it may import nothing above.
        "repro.sanitize": ("repro.core", "repro.models", "repro.dist",
                           "repro.formats", "repro.cluster", "repro.cli",
                           "repro.system", "repro.util", "repro.telemetry"),
    })
    #: Modules whose Decimal high-precision paths must not round-trip
    #: through ``float()``.
    precision_modules: frozenset[str] = frozenset(
        {"repro.core.recvec", "repro.core.probability"})
    #: Modules where broad ``except`` clauses are tolerated (none today).
    broad_except_allowed: frozenset[str] = frozenset()
    #: Module prefixes where unbounded blocking pool calls are forbidden:
    #: ``pool.map`` and timeout-less ``AsyncResult.get()`` hang the whole
    #: run when one worker hangs; use the fault-tolerant scheduler.
    pool_timeout_module_prefixes: tuple[str, ...] = ("repro.dist",)
    #: Module basenames exempt from the ``__all__`` requirement.
    all_exempt_basenames: frozenset[str] = frozenset({"__main__.py"})
    #: Float literals that are exact in binary and legitimate sentinels,
    #: so ``x == 0.0`` style guards are not flagged.
    exact_float_sentinels: frozenset[float] = frozenset({0.0, 1.0, -1.0})
    #: Identifier substrings marking an expression as a probability /
    #: CDF value for the float-equality rule.
    probability_name_patterns: tuple[str, ...] = (
        "prob", "cdf", "recvec", "pvec")
    #: Module prefixes where producers must feed writers whole
    #: ``AdjacencyBlock``s (``add_block``/``write_blocks``), never
    #: per-vertex ``writer.add(...)`` loops or pair-stream ``write``.
    block_streaming_module_prefixes: tuple[str, ...] = (
        "repro.system", "repro.dist")
    #: Module prefixes where a streaming merge must stay streamed:
    #: collecting the whole deduplicated key stream into one list/array
    #: re-creates the unbounded ``np.concatenate(list(...))`` pattern
    #: the external-memory engine removed (RPL520).
    merge_stream_module_prefixes: tuple[str, ...] = (
        "repro.models", "repro.dist")
    #: Call names that produce a bounded streaming merge (chunk
    #: iterators); feeding one to ``list``/``tuple``/``sorted`` or a
    #: numpy concatenation materializes the whole merged set.
    merge_stream_producer_names: frozenset[str] = frozenset(
        {"merge_sorted_runs", "iter_unique_keys", "iter_unique",
         "iter_unique_key_chunks"})
    #: Module prefixes holding the batched sampling kernel, where a
    #: Python ``for`` loop over a per-edge array would reinsert the
    #: O(|E|) interpreter loop the bitwise kernel exists to remove.
    #: Functions whose name mentions ``reference`` are exempt (the
    #: paper-faithful per-edge engine is a loop by design).
    kernel_module_prefixes: tuple[str, ...] = ("repro.core.generator",)
    #: Names of per-edge arrays in the kernel: looping over one of
    #: these (directly, or via ``enumerate``/``zip``) is RPL510.
    kernel_edge_array_names: frozenset[str] = frozenset(
        {"rows", "dests", "destinations", "xs", "refill_rows",
         "new_dests"})
    #: Module prefixes where raw ``time.perf_counter()`` pairs are
    #: forbidden: pipeline timing must flow through
    #: ``repro.telemetry`` (``span()`` / ``Stopwatch``) so it lands in
    #: the unified report instead of ad-hoc fields.
    telemetry_span_module_prefixes: tuple[str, ...] = (
        "repro.system", "repro.dist", "repro.formats")
    #: Module prefixes allowed to call bare ``print()`` — the CLI owns
    #: stdout; everything else reports through the ``repro.*`` loggers.
    #: ``repro.sanitize.diff`` is the trace-diff command-line entry
    #: (``python -m repro.sanitize.diff``), so it owns its stdout too.
    print_allowed_module_prefixes: tuple[str, ...] = (
        "repro.cli", "repro.devtools", "repro.sanitize.diff")
    #: Module prefixes that must follow the atomic-write protocol
    #: (write temp -> flush -> fsync -> close -> rename): the checkpoint
    #: and spill-file layers, where a torn write corrupts a resumable run.
    atomic_write_module_prefixes: tuple[str, ...] = (
        "repro.dist", "repro.util")
    #: Call names whose result is a deterministic RNG stream for the
    #: flow-sensitive rng-stream-flow analysis.
    rng_stream_constructors: frozenset[str] = frozenset(
        {"stream", "default_rng"})
    #: Generator methods that *draw* from a stream (advance its state).
    rng_draw_methods: frozenset[str] = frozenset(
        {"random", "integers", "normal", "standard_normal", "uniform",
         "choice", "shuffle", "permutation", "permuted", "exponential",
         "poisson", "binomial", "geometric", "bytes"})
    #: Callable names that ship their arguments to another process /
    #: pickle them into a task (worker boundary for rng-stream-flow).
    worker_submit_calls: frozenset[str] = frozenset(
        {"Process", "apply_async", "submit", "run_tasks",
         "map_async", "starmap_async", "dumps"})
    #: Module prefixes where the spawn-hygiene project rule (RPL620)
    #: applies: worker callables crossing a spawn boundary must be
    #: picklable top-level functions.
    spawn_module_prefixes: tuple[str, ...] = ("repro.dist",)
    #: Module prefixes holding *read-only live introspection* (RPL509):
    #: the flight recorder, the telemetry HTTP server, and the trace
    #: exporter observe a running generation, so any write they perform
    #: — an RNG draw, a registry mutation, importing generator code —
    #: could perturb the run they are watching.
    introspection_module_prefixes: tuple[str, ...] = (
        "repro.telemetry.flight", "repro.telemetry.server",
        "repro.telemetry.traceview")
    #: Import prefixes forbidden inside introspection modules: pulling
    #: in generator machinery gives read-only code a path to the hot
    #: loop (and its RNG streams).
    introspection_forbidden_imports: tuple[str, ...] = (
        "repro.core", "repro.models")
    #: Module prefixes the numeric abstract interpretation (RPL810 /
    #: RPL812 / RPL813 / RPL814 + summary return facts) runs over.
    numeric_module_prefixes: tuple[str, ...] = ("repro",)
    #: Module prefixes where numpy constructors must name a dtype
    #: (RPL811) — the ID-carrying packages where a platform-default
    #: ``np.arange`` silently wraps past 2^31 on 32-bit builds.
    default_dtype_module_prefixes: tuple[str, ...] = (
        "repro.core", "repro.formats", "repro.models", "repro.dist")
    #: Parameter-name -> (lo, hi) interval seeds for the numeric
    #: analysis: the paper's known value ranges (48-bit IDs, scale
    #: ≤ 62, probabilities in [0, 1]).  Names are matched exactly;
    #: anything not listed falls back to the probability-name
    #: patterns above, then to unknown.
    interval_seeds: dict[str, tuple[float, float]] = field(
        default_factory=lambda: dict(_INTERVAL_SEEDS))
    #: Element count the accumulation-overflow rule (RPL812) assumes:
    #: 2^33 ≈ one scale-33 vertex partition, the smallest scale where
    #: IDs straddle 2^32.
    accumulation_element_count: int = 2 ** 33
    #: Violation codes switched off wholesale (per-directory profiles).
    disabled_codes: frozenset[str] = frozenset()


def relaxed_profile(config: LintConfig | None = None) -> LintConfig:
    """The tests/benchmarks policy: ``config`` with :data:`RELAXED_CODES`
    disabled (fixtures may use stdlib ``random``/ad-hoc RNGs, assert
    exact floats, print, and skip ``__all__``)."""
    base = config or LintConfig()
    return replace(base, disabled_codes=base.disabled_codes | RELAXED_CODES)


@dataclass
class SourceFile:
    """A parsed source file plus the metadata checkers need."""

    path: Path
    text: str
    tree: ast.Module
    module: str                        #: dotted name, e.g. ``repro.core.rng``
    pragma_table: PragmaTable = field(default_factory=PragmaTable)

    @classmethod
    def parse(cls, path: Path | str) -> "SourceFile":
        path = Path(path)
        with tokenize.open(path) as handle:
            text = handle.read()
        tree = ast.parse(text, filename=str(path))
        return cls(path=path, text=text, tree=tree,
                   module=module_name(path),
                   pragma_table=PragmaTable.scan(text))

    @property
    def skip(self) -> bool:
        return self.pragma_table.skip

    def is_disabled(self, checker: "Checker | str", line: int,
                    code: str) -> bool:
        name = checker if isinstance(checker, str) else checker.name
        keys = {name.lower(), code.lower(), ALL}
        return self.pragma_table.is_disabled(keys, line)


def module_name(path: Path) -> str:
    """Dotted module name, found by walking up through ``__init__.py``s.

    ``src/repro/core/rng.py`` maps to ``repro.core.rng``; a loose file
    outside any package maps to its own stem.
    """
    path = Path(path).resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    parent = path.parent
    while (parent / "__init__.py").exists():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


class Checker(ast.NodeVisitor):
    """Base class for one single-file lint rule family.

    Subclasses set :attr:`name` and :attr:`codes`, implement visitor
    methods, and call :meth:`flag`.  One instance is created per file.
    """

    #: Kebab-case rule name used in pragmas and reports.
    name: str = "abstract"
    #: Mapping of machine code -> human description of the rule.
    codes: dict[str, str] = {}

    def __init__(self, source: SourceFile, config: LintConfig) -> None:
        self.source = source
        self.config = config
        self.violations: list[Violation] = []

    def run(self) -> list[Violation]:
        """Collect this checker's violations for :attr:`source`."""
        self.visit(self.source.tree)
        self.finish()
        return self.violations

    def finish(self) -> None:
        """Hook for whole-module rules that report after traversal."""

    def flag(self, node: ast.AST | None, code: str, message: str) -> None:
        if code in self.config.disabled_codes:
            return
        line = getattr(node, "lineno", 1) if node is not None else 1
        col = getattr(node, "col_offset", 0) if node is not None else 0
        if self.source.is_disabled(self, line, code):
            return
        self.violations.append(Violation(
            path=str(self.source.path), line=line, col=col, code=code,
            name=self.name, message=message))


class ProjectChecker:
    """Base class for one whole-program lint rule family.

    Instantiated once per run with the project-wide config;
    :meth:`check` inspects the :class:`ProjectModel` and calls
    :meth:`flag` with the target module's summary.  Per-module profile
    configs and pragma suppression are applied by :meth:`flag`.
    """

    name: str = "abstract-project"
    codes: dict[str, str] = {}
    #: Checkers run in ascending priority; dead-pragma runs last so it
    #: sees every suppression the other rules recorded.
    priority: int = 0

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.violations: list[Violation] = []

    def run(self, project: "ProjectModel") -> list[Violation]:
        self.project = project
        self.check(project)
        self.violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
        return self.violations

    def check(self, project: "ProjectModel") -> None:
        raise NotImplementedError

    def flag(self, summary: "ModuleSummary", line: int, col: int,
             code: str, message: str) -> None:
        config = self.project.config_for_path(summary.path)
        if code in config.disabled_codes:
            return
        keys = {self.name.lower(), code.lower(), ALL}
        if summary.pragma_table.is_disabled(keys, line):
            return
        self.violations.append(Violation(
            path=summary.path, line=line, col=col, code=code,
            name=self.name, message=message))


_CHECKERS: dict[str, Type[Checker]] = {}
_PROJECT_CHECKERS: dict[str, Type[ProjectChecker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a file checker to the global registry."""
    if cls.name in _CHECKERS or cls.name in _PROJECT_CHECKERS:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _CHECKERS[cls.name] = cls
    return cls


def register_project_checker(cls: Type[ProjectChecker]
                             ) -> Type[ProjectChecker]:
    """Class decorator adding a project checker to the global registry."""
    if cls.name in _CHECKERS or cls.name in _PROJECT_CHECKERS:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _PROJECT_CHECKERS[cls.name] = cls
    return cls


def _import_bundled() -> None:
    from . import checkers as _file_rules            # noqa: F401
    from .engine import concurrency_checkers as _conc_rules  # noqa: F401
    from .engine import flow_checkers as _flow_rules  # noqa: F401
    from .engine import numeric_checkers as _numeric_rules  # noqa: F401
    from .engine import project_checkers as _project_rules  # noqa: F401


def all_checkers() -> dict[str, Type[Checker]]:
    """Registered file checkers by name (importing the bundled set)."""
    _import_bundled()
    return dict(_CHECKERS)


def all_project_checkers() -> dict[str, Type[ProjectChecker]]:
    """Registered project checkers by name (importing the bundled set)."""
    _import_bundled()
    return dict(_PROJECT_CHECKERS)


def _validate_names(enabled: Iterable[str] | None,
                    disabled: Iterable[str] | None) -> None:
    known = set(all_checkers()) | set(all_project_checkers())
    for group in (enabled, disabled):
        if group is not None:
            unknown = set(group) - known
            if unknown:
                raise KeyError(f"unknown checkers: {sorted(unknown)}")


def _select(enabled: Iterable[str] | None,
            disabled: Iterable[str] | None) -> list[Type[Checker]]:
    _validate_names(enabled, disabled)
    registry = all_checkers()
    names = set(registry)
    if enabled is not None:
        names &= set(enabled)
    if disabled is not None:
        names -= set(disabled)
    return [registry[name] for name in sorted(names)]


def _select_project(enabled: Iterable[str] | None,
                    disabled: Iterable[str] | None
                    ) -> list[Type[ProjectChecker]]:
    _validate_names(enabled, disabled)
    registry = all_project_checkers()
    names = set(registry)
    if enabled is not None:
        names &= set(enabled)
    if disabled is not None:
        names -= set(disabled)
    return [registry[name] for name
            in sorted(names, key=lambda n: (registry[n].priority, n))]


def lint_file(path: Path | str, config: LintConfig | None = None, *,
              enabled: Iterable[str] | None = None,
              disabled: Iterable[str] | None = None) -> list[Violation]:
    """Run the (selected) file checkers over one file.

    Project checkers need the whole tree and do not run here; use
    :func:`lint_paths` for the full analysis.
    """
    config = config or LintConfig()
    source = SourceFile.parse(path)
    if source.skip:
        return []
    out: list[Violation] = []
    for cls in _select(enabled, disabled):
        out.extend(cls(source, config).run())
    out.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return out


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path
        else:
            raise FileNotFoundError(f"not a python file or directory: {path}")


def lint_paths(paths: Iterable[Path | str],
               config: LintConfig | None = None, *,
               enabled: Iterable[str] | None = None,
               disabled: Iterable[str] | None = None,
               cache_dir: Path | str | None = None
               ) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths`` — file checkers *and* the
    whole-program project checkers.

    Returns ``(violations, files_checked)``.  Unparseable files raise
    :class:`SyntaxError` to the caller (the CLI maps that to exit 2).
    ``cache_dir`` enables the incremental cache (the CLI passes it; the
    API default stays uncached so tests see cold behaviour).
    """
    from .engine.runner import run_paths
    result = run_paths(paths, config=config, enabled=enabled,
                       disabled=disabled, cache_dir=cache_dir)
    return result.violations, result.files_checked


def config_with(config: LintConfig | None = None, **overrides) -> LintConfig:
    """Convenience for tests: a config with selected fields replaced."""
    return replace(config or LintConfig(), **overrides)
