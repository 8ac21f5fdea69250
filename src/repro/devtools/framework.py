"""Checker framework for ``reprolint``: one pass per file.

A :class:`Checker` is an :class:`ast.NodeVisitor` subclass registered
via :func:`register_checker`.  :func:`lint_paths` parses each file once
into a :class:`SourceFile` (source text, AST, dotted module name, pragma
table), runs every selected checker over it — :meth:`Checker.flag`
drops findings a pragma suppresses — and then runs the ``dead-pragma``
rule (RPL701) over the same file, which reports the pragmas that
suppressed nothing.  No rule looks beyond the file it is given.

Suppressions use pragma comments (scanned from real COMMENT tokens, so
pragma-shaped *strings* in fixture code do not suppress anything):

- ``# reprolint: disable=<name-or-code>[,<name-or-code>...]`` on the
  offending line (or ``disable=all``),
- ``# reprolint: disable-file=<name-or-code>[,...]`` anywhere in the file
  to silence a checker for the whole file,
- ``# reprolint: skip-file`` to skip the file entirely.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Iterator, Type

__all__ = ["Violation", "LintConfig", "SourceFile", "Checker", "Pragma",
           "PragmaTable", "DeadPragmaChecker", "register_checker",
           "all_checkers", "lint_paths", "module_name", "iter_python_files",
           "config_with", "relaxed_profile", "ALL", "RELAXED_CODES"]

_PRAGMA = re.compile(r"#\s*reprolint:\s*(skip-file|disable(?:-file)?=([\w\-, ]+))")
_CODE_RE = re.compile(r"^rpl\d+$")

#: Sentinel meaning "every checker" in a pragma's disable set.
ALL = "all"

#: Codes the relaxed (tests / benchmarks / examples) profile switches
#: off: fixtures may seed ad-hoc RNGs, assert exact float values, print
#: tables, and skip ``__all__`` declarations.
RELAXED_CODES = frozenset({
    "RPL101", "RPL102", "RPL103",            # ad-hoc RNGs in fixtures
    "RPL111",                                # determinism tests *assert*
                                             # same-seed streams match
    "RPL301",                                # exact-value asserts
    "RPL501", "RPL502", "RPL503", "RPL504",  # no __all__ contract
    "RPL508",                                # print() in harness output
})

#: Path components whose files are linted under :func:`relaxed_profile`.
_RELAXED_DIRS = ("tests", "benchmarks", "examples")


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


@dataclass(frozen=True)
class Pragma:
    """One ``# reprolint:`` suppression comment, located and parsed."""

    line: int
    kind: str                  #: ``disable`` | ``disable-file``
    targets: frozenset[str]    #: lower-cased checker names / codes / ``all``


@dataclass
class PragmaTable:
    """The suppression pragmas of one file, plus which of them fired.

    ``used`` holds ``(pragma_line, matched_target)`` pairs; RPL701
    reports any pragma none of whose targets ever matched a would-be
    violation.
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
        """Pragmas that never suppressed anything."""
        return [p for p in self.pragmas
                if not any((p.line, t) in self.used for t in p.targets)]


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
                            "repro.system", "repro.util"),
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
    #: Module prefixes where raw ``time.perf_counter()`` pairs are
    #: forbidden: pipeline timing must flow through
    #: ``repro.telemetry`` (``span()`` / ``Stopwatch``) so it lands in
    #: the unified report instead of ad-hoc fields.
    telemetry_span_module_prefixes: tuple[str, ...] = (
        "repro.system", "repro.dist", "repro.formats")
    #: Module prefixes allowed to call bare ``print()`` — the CLI owns
    #: stdout; everything else reports through the ``repro.*`` loggers.
    print_allowed_module_prefixes: tuple[str, ...] = (
        "repro.cli", "repro.devtools")
    #: Module prefixes that must follow the atomic-write protocol
    #: (write temp -> flush -> fsync -> close -> rename): the checkpoint
    #: and spill-file layers, where a torn write corrupts a resumable run.
    atomic_write_module_prefixes: tuple[str, ...] = (
        "repro.dist", "repro.util")
    #: Call names whose result is a deterministic RNG stream, for the
    #: flow-sensitive rng-stream-flow analysis.
    rng_stream_constructors: frozenset[str] = frozenset(
        {"stream", "default_rng"})
    #: Generator methods that *draw* from a stream (advance its state).
    rng_draw_methods: frozenset[str] = frozenset(
        {"random", "integers", "normal", "standard_normal", "uniform",
         "choice", "shuffle", "permutation", "permuted", "exponential",
         "poisson", "binomial", "geometric", "bytes"})
    #: Callable names that ship their arguments to another process /
    #: pickle them into a task (worker boundary for rng-stream-flow and
    #: spawn-hygiene).
    worker_submit_calls: frozenset[str] = frozenset(
        {"Process", "apply_async", "submit", "run_tasks",
         "map_async", "starmap_async", "dumps"})
    #: Module prefixes where the spawn-hygiene rule (RPL620) applies:
    #: worker callables crossing a spawn boundary must be picklable
    #: top-level functions.
    spawn_module_prefixes: tuple[str, ...] = ("repro.dist",)
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
    """Base class for one lint rule family.

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
        return self.violations

    def flag(self, node: ast.AST | int | None, code: str,
             message: str) -> None:
        """Report ``code`` at ``node`` (or at a bare line number) unless
        the profile or a pragma switches it off."""
        if code in self.config.disabled_codes:
            return
        if isinstance(node, int):
            line, col = node, 0
        else:
            line = getattr(node, "lineno", 1)
            col = getattr(node, "col_offset", 0)
        keys = {self.name.lower(), code.lower(), ALL}
        if self.source.pragma_table.is_disabled(keys, line):
            return
        self.violations.append(Violation(
            path=str(self.source.path), line=line, col=col, code=code,
            name=self.name, message=message))


_CHECKERS: dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the global registry."""
    if cls.name in _CHECKERS:
        raise ValueError(f"duplicate checker name {cls.name!r}")
    _CHECKERS[cls.name] = cls
    return cls


def all_checkers() -> dict[str, Type[Checker]]:
    """Registered checkers by name (importing the bundled set)."""
    from . import checkers as _file_rules            # noqa: F401
    from .engine import concurrency_checkers as _conc_rules  # noqa: F401
    from .engine import flow_checkers as _flow_rules  # noqa: F401
    return dict(_CHECKERS)


@register_checker
class DeadPragmaChecker(Checker):
    """Suppression comments that suppress nothing (RPL701).

    Runs after every other selected checker on the same file, so each
    suppression they recorded is visible.  A pragma is only declared
    dead when each of its targets *provably* ran: the target's checker
    was selected this pass (``ran``) and none of its codes are switched
    off by the directory profile — otherwise silence proves nothing.
    """

    name = "dead-pragma"
    codes = {"RPL701": "pragma suppresses nothing"}

    def __init__(self, source: SourceFile, config: LintConfig,
                 ran: Iterable[str]) -> None:
        super().__init__(source, config)
        self.ran = set(ran)

    def run(self) -> list[Violation]:
        codes_of = {name: frozenset(code.lower() for code in cls.codes)
                    for name, cls in all_checkers().items()}
        owners = {code: name for name, codes in codes_of.items()
                  for code in codes}
        off = {code.lower() for code in self.config.disabled_codes}

        def provable(target: str) -> bool:
            if target == ALL:
                return not off and self.ran >= set(codes_of)
            if _CODE_RE.match(target):
                owner = owners.get(target)
                # a code that exists nowhere can't suppress anything
                return owner is None or (owner in self.ran
                                         and target not in off)
            codes = codes_of.get(target)
            if codes is None:
                return True  # unknown checker name can't suppress
            return target in self.ran and not codes & off

        for pragma in self.source.pragma_table.unused_pragmas():
            if all(provable(t) for t in pragma.targets):
                targets = ",".join(sorted(pragma.targets))
                self.flag(pragma.line, "RPL701",
                          f"pragma 'disable={targets}' suppresses "
                          f"nothing: the targeted rules ran clean on "
                          f"this line, so the comment is dead weight")
        return self.violations


def _select(enabled: Iterable[str] | None,
            disabled: Iterable[str] | None) -> list[Type[Checker]]:
    registry = all_checkers()
    for group in (enabled, disabled):
        if group is not None:
            unknown = set(group) - set(registry)
            if unknown:
                raise KeyError(f"unknown checkers: {sorted(unknown)}")
    names = set(registry)
    if enabled is not None:
        names &= set(enabled)
    if disabled is not None:
        names -= set(disabled)
    return [registry[name] for name in sorted(names)]


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
               disabled: Iterable[str] | None = None
               ) -> tuple[list[Violation], int]:
    """Lint every ``.py`` file under ``paths``, one file at a time.

    Per file: parse, run the selected checkers (pragma-filtered), then
    sweep the file's dead pragmas.  Any file with a ``tests``,
    ``benchmarks`` or ``examples`` path component is linted under
    :func:`relaxed_profile`.  Returns ``(violations, files_checked)``.
    Unparseable files raise :class:`SyntaxError` to the caller (the CLI
    maps that to exit 2).
    """
    config = config or LintConfig()
    relaxed = relaxed_profile(config)
    selected = _select(enabled, disabled)
    ran = {cls.name for cls in selected}
    rules = [cls for cls in selected if cls is not DeadPragmaChecker]

    violations: list[Violation] = []
    files_checked = 0
    for path in iter_python_files(paths):
        source = SourceFile.parse(path)
        files_checked += 1
        if source.skip:
            continue
        file_config = (relaxed if any(part in _RELAXED_DIRS
                                      for part in path.parts) else config)
        for cls in rules:
            violations.extend(cls(source, file_config).run())
        if DeadPragmaChecker in selected:
            violations.extend(
                DeadPragmaChecker(source, file_config, ran).run())
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return violations, files_checked


def config_with(config: LintConfig | None = None, **overrides) -> LintConfig:
    """Convenience for tests: a config with selected fields replaced."""
    return replace(config or LintConfig(), **overrides)
