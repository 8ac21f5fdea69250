"""Whole-program model for the reprolint v2 engine.

A :class:`ModuleSummary` is the JSON-serializable *interface* of one
source file: its imports (module- and function-scope), top-level
definitions, classes/methods, approximate call sites, ``__all__``, and
pragma table.  Summaries are what the incremental cache stores, so a
warm run can rebuild the whole-program model without re-parsing
unchanged files.

A :class:`ProjectModel` is the set of summaries plus derived structure:

- a **symbol table** — which module defines which name, with
  ``from``-import bindings resolved through re-export chains;
- an **import graph** over in-project modules, distinguishing
  module-scope from function-local (lazy) imports;
- an approximate **call graph**: *resolved* edges where the callee's
  defining module is provable through the binding chain, plus
  *name-based* method edges (every method with a matching basename —
  CHA without type inference).  Layering rules use only resolved edges
  to stay false-positive-free; reachability queries may use both.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from ..framework import LintConfig, PragmaTable, SourceFile

if TYPE_CHECKING:  # pragma: no cover
    pass

__all__ = ["ImportRecord", "FunctionInfo", "ClassInfo", "ModuleSummary",
           "ProjectModel", "summarize_source"]

#: Resolution chains longer than this are cyclic re-exports; stop.
_MAX_RESOLVE_DEPTH = 32


@dataclass(frozen=True)
class ImportRecord:
    """One import binding: ``import m [as a]`` or ``from m import s [as a]``."""

    module: str          #: absolute dotted module imported from
    symbol: str | None   #: ``None`` for plain ``import m``
    alias: str           #: the local name bound
    line: int
    scope: str           #: ``"module"`` or ``"function"``
    function: str = ""   #: enclosing function qualname for lazy imports

    def to_json(self) -> dict[str, object]:
        return {"module": self.module, "symbol": self.symbol,
                "alias": self.alias, "line": self.line,
                "scope": self.scope, "function": self.function}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "ImportRecord":
        return cls(module=str(doc["module"]),
                   symbol=None if doc["symbol"] is None else str(doc["symbol"]),
                   alias=str(doc["alias"]), line=int(doc["line"]),  # type: ignore[call-overload]
                   scope=str(doc["scope"]), function=str(doc["function"]))


@dataclass
class FunctionInfo:
    """One function or method: where it is and what it calls."""

    qualname: str        #: ``f``, ``Class.method``, ``outer.inner``
    line: int
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: dotted call chains as written (``fmt.write_blocks``) with lines

    def to_json(self) -> dict[str, object]:
        return {"qualname": self.qualname, "line": self.line,
                "calls": [[chain, line] for chain, line in self.calls]}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "FunctionInfo":
        return cls(qualname=str(doc["qualname"]), line=int(doc["line"]),  # type: ignore[call-overload]
                   calls=[(str(c), int(l)) for c, l in doc["calls"]])  # type: ignore[union-attr]


@dataclass
class ClassInfo:
    """One class: its methods (basenames) and base-class chains."""

    name: str
    line: int
    methods: list[str] = field(default_factory=list)
    bases: list[str] = field(default_factory=list)

    def to_json(self) -> dict[str, object]:
        return {"name": self.name, "line": self.line,
                "methods": self.methods, "bases": self.bases}

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "ClassInfo":
        return cls(name=str(doc["name"]), line=int(doc["line"]),  # type: ignore[call-overload]
                   methods=list(doc["methods"]),  # type: ignore[call-overload]
                   bases=list(doc["bases"]))  # type: ignore[call-overload]


#: Call basenames recorded as spawn sites (a config-independent
#: superset; the spawn-hygiene checker filters by the active config's
#: ``worker_submit_calls``).
_SPAWN_CANDIDATES = frozenset(
    {"Process", "Thread", "submit", "apply_async", "run_tasks",
     "map_async", "starmap_async", "dumps"})


@dataclass
class ModuleSummary:
    """The cacheable whole-program interface of one source file."""

    module: str
    path: str
    imports: list[ImportRecord] = field(default_factory=list)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    #: every name bound at module level (defs, classes, assignments,
    #: import aliases) — the module's attribute surface
    defs: set[str] = field(default_factory=set)
    #: statically-extracted ``__all__`` (None when absent or dynamic)
    exports: list[str] | None = None
    #: ``importlib.import_module("x")`` / ``__import__("x")`` calls with
    #: a string-literal target — imports no import statement ever shows
    dynamic_imports: list[tuple[str, int]] = field(default_factory=list)
    #: worker-spawn call sites: ``{"line", "function", "callee",
    #: "workers"}`` where ``workers`` are the candidate worker-callable
    #: expressions (dotted chains or ``"<lambda>"``)
    spawn_sites: list[dict] = field(default_factory=list)
    #: numeric-analysis facts (RPL8xx): ``{"functions": {qualname:
    #: [dtype, lo, hi]}, "deferred": [...], "assumes": [...]}`` — empty
    #: for modules outside the numeric scope
    numeric: dict = field(default_factory=dict)
    pragma_table: PragmaTable = field(default_factory=PragmaTable)

    def bindings(self) -> dict[str, ImportRecord]:
        """Module-scope import bindings by local alias."""
        return {rec.alias: rec for rec in self.imports
                if rec.scope == "module"}

    def to_json(self) -> dict[str, object]:
        return {
            "module": self.module,
            "path": self.path,
            "imports": [rec.to_json() for rec in self.imports],
            "functions": {q: fn.to_json()
                          for q, fn in sorted(self.functions.items())},
            "classes": {n: c.to_json()
                        for n, c in sorted(self.classes.items())},
            "defs": sorted(self.defs),
            "exports": self.exports,
            "dynamic_imports": [[m, line] for m, line in self.dynamic_imports],
            "spawn_sites": self.spawn_sites,
            "numeric": self.numeric,
            "pragmas": self.pragma_table.to_json(),
        }

    @classmethod
    def from_json(cls, doc: dict[str, object]) -> "ModuleSummary":
        return cls(
            module=str(doc["module"]), path=str(doc["path"]),
            imports=[ImportRecord.from_json(r) for r in doc["imports"]],  # type: ignore[union-attr]
            functions={str(q): FunctionInfo.from_json(f)
                       for q, f in doc["functions"].items()},  # type: ignore[union-attr]
            classes={str(n): ClassInfo.from_json(c)
                     for n, c in doc["classes"].items()},  # type: ignore[union-attr]
            defs=set(doc["defs"]),  # type: ignore[call-overload]
            exports=(None if doc["exports"] is None
                     else [str(e) for e in doc["exports"]]),  # type: ignore[union-attr]
            dynamic_imports=[(str(m), int(line))
                             for m, line in doc["dynamic_imports"]],  # type: ignore[union-attr]
            # .get defaults keep pre-2.1 cached summaries loadable (the
            # cache also versions on ENGINE_VERSION, so this is belt and
            # braces for hand-rolled docs in tests).
            spawn_sites=list(doc.get("spawn_sites", [])),  # type: ignore[call-overload]
            numeric=dict(doc.get("numeric", {})),  # type: ignore[call-overload]
            pragma_table=PragmaTable.from_json(doc["pragmas"]),  # type: ignore[arg-type]
        )


# -- summarization -----------------------------------------------------


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str | None) -> str:
    """Absolute module for a (possibly relative) import in ``module``."""
    if level == 0:
        return target or ""
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    base = ".".join(parts)
    if target:
        return f"{base}.{target}" if base else target
    return base


def _call_chain(func: ast.expr) -> str | None:
    """``a.b.c`` for an attribute/name chain, else ``None``."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    if isinstance(node, ast.Call):
        # ``get_format(name).write_blocks`` — keep the method tail so
        # name-based edges still see ``.write_blocks``.
        return ".".join(["<call>"] + list(reversed(parts)))
    return None


class _Summarizer(ast.NodeVisitor):
    def __init__(self, summary: ModuleSummary, is_package: bool) -> None:
        self.summary = summary
        self.is_package = is_package
        self.func_stack: list[str] = []
        self.class_stack: list[str] = []

    # imports ----------------------------------------------------------

    def _scope(self) -> tuple[str, str]:
        if self.func_stack:
            return "function", ".".join(self.func_stack)
        return "module", ""

    def visit_Import(self, node: ast.Import) -> None:
        scope, function = self._scope()
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            self.summary.imports.append(ImportRecord(
                module=alias.name, symbol=None, alias=local,
                line=node.lineno, scope=scope, function=function))
            if scope == "module" and not self.class_stack:
                self.summary.defs.add(local)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        scope, function = self._scope()
        base = _resolve_relative(self.summary.module, self.is_package,
                                 node.level, node.module)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.summary.imports.append(ImportRecord(
                module=base, symbol=alias.name, alias=local,
                line=node.lineno, scope=scope, function=function))
            if scope == "module" and not self.class_stack:
                self.summary.defs.add(local)

    # definitions ------------------------------------------------------

    def _function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if not self.func_stack and not self.class_stack:
            self.summary.defs.add(node.name)
        if self.class_stack and not self.func_stack:
            self.summary.classes[self.class_stack[-1]].methods.append(
                node.name)
        qual = ".".join(self.class_stack + self.func_stack + [node.name])
        self.summary.functions[qual] = FunctionInfo(qual, node.lineno)
        self.func_stack.append(node.name)
        self.generic_visit(node)
        self.func_stack.pop()

    visit_FunctionDef = _function
    visit_AsyncFunctionDef = _function

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if not self.func_stack and not self.class_stack:
            self.summary.defs.add(node.name)
        bases = [chain for base in node.bases
                 if (chain := _call_chain(base)) is not None]
        self.summary.classes[node.name] = ClassInfo(
            node.name, node.lineno, bases=bases)
        self.class_stack.append(node.name)
        self.generic_visit(node)
        self.class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        if not self.func_stack and not self.class_stack:
            for target in node.targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        self.summary.defs.add(sub.id)
            self._maybe_all(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if (not self.func_stack and not self.class_stack
                and isinstance(node.target, ast.Name)):
            self.summary.defs.add(node.target.id)
        self.generic_visit(node)

    def _maybe_all(self, targets: list[ast.expr], value: ast.expr) -> None:
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__all__":
                if isinstance(value, (ast.List, ast.Tuple)):
                    names = [el.value for el in value.elts
                             if isinstance(el, ast.Constant)
                             and isinstance(el.value, str)]
                    self.summary.exports = names

    # calls ------------------------------------------------------------

    def _qual(self) -> str:
        return ".".join(self.class_stack + self.func_stack) or "<module>"

    @staticmethod
    def _worker_expr(node: ast.expr) -> str | None:
        """Render a candidate worker callable: a dotted chain, the
        ``"<lambda>"`` marker, or ``None`` for anything opaque."""
        if isinstance(node, ast.Lambda):
            return "<lambda>"
        return _call_chain(node)

    def _record_spawn(self, node: ast.Call, chain: str, qual: str) -> None:
        workers: list[str] = []
        for kw in node.keywords:
            if kw.arg == "target":
                expr = self._worker_expr(kw.value)
                if expr is not None:
                    workers.append(expr)
        for arg in node.args:
            expr = self._worker_expr(arg)
            if expr is not None:
                workers.append(expr)
        self.summary.spawn_sites.append({
            "line": node.lineno, "function": qual,
            "callee": chain, "workers": workers})

    def visit_Call(self, node: ast.Call) -> None:
        chain = _call_chain(node.func)
        if chain is not None:
            qual = self._qual()
            info = self.summary.functions.get(qual)
            if info is None:
                info = self.summary.functions.setdefault(
                    "<module>", FunctionInfo("<module>", node.lineno))
            info.calls.append((chain, node.lineno))
            tail = chain.split(".")[-1]
            if (tail in ("import_module", "__import__") and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                self.summary.dynamic_imports.append(
                    (node.args[0].value, node.lineno))
            if tail in _SPAWN_CANDIDATES:
                self._record_spawn(node, chain, qual)
        self.generic_visit(node)


def summarize_source(source: SourceFile,
                     config: LintConfig | None = None) -> ModuleSummary:
    """Build the :class:`ModuleSummary` for a parsed file in one pass.

    With a ``config``, the numeric analysis also runs (memoized on the
    source, so the file checker reuses the same result) and its facts —
    summarized return intervals, deferred cross-module checks, assume
    pragmas — travel in ``summary.numeric``.
    """
    summary = ModuleSummary(module=source.module, path=str(source.path),
                            pragma_table=source.pragma_table)
    is_package = source.path.name == "__init__.py"
    _Summarizer(summary, is_package).visit(source.tree)
    if config is not None:
        from .numeric_checkers import analyze_module
        numerics = analyze_module(source, config)
        doc = numerics.summary_doc()
        if doc["functions"] or doc["deferred"] or doc["assumes"]:
            summary.numeric = doc
    return summary


# -- the project model -------------------------------------------------


class ProjectModel:
    """Summaries of every linted file plus derived graphs."""

    def __init__(self, summaries: Iterable[ModuleSummary],
                 config: LintConfig,
                 configs_by_path: dict[str, LintConfig] | None = None
                 ) -> None:
        self.config = config
        #: every linted file's summary (distinct even when loose files
        #: share a module name)
        self.summaries: list[ModuleSummary] = list(summaries)
        self.modules: dict[str, ModuleSummary] = {
            s.module: s for s in self.summaries}
        self._configs_by_path = configs_by_path or {}
        #: names/codes of the checkers that ran this pass — dead-pragma
        #: only declares a pragma dead when its target provably ran.
        #: Empty means "everything ran".
        self.ran_names: set[str] = set()
        self.ran_codes: set[str] = set()
        self._call_graph: dict[str, set[str]] | None = None
        self._name_edges: dict[str, set[str]] | None = None
        self._method_index: dict[str, set[str]] | None = None

    # configs ----------------------------------------------------------

    def config_for(self, module: str) -> LintConfig:
        """The (possibly per-directory-profiled) config for a module."""
        summary = self.modules.get(module)
        if summary is not None:
            return self._configs_by_path.get(summary.path, self.config)
        return self.config

    def config_for_path(self, path: str) -> LintConfig:
        return self._configs_by_path.get(path, self.config)

    # symbol resolution ------------------------------------------------

    def defines(self, module: str, name: str) -> bool:
        summary = self.modules.get(module)
        if summary is None:
            return False
        head = name.split(".")[0]
        return (head in summary.defs or head in summary.classes
                or name in summary.functions)

    def resolve(self, module: str, name: str) -> tuple[str, str | None]:
        """Follow ``name``'s binding chain from ``module``.

        Returns ``(defining_module, symbol)``; ``symbol`` is ``None``
        when the name resolves to a module object.  Re-export chains
        (``from x import y`` then ``from here import y`` elsewhere) are
        walked to the original definition; external modules end the walk.
        """
        current, symbol = module, name
        for _ in range(_MAX_RESOLVE_DEPTH):
            summary = self.modules.get(current)
            if summary is None or symbol is None:
                return current, symbol
            binding = summary.bindings().get(symbol)
            if binding is None:
                if f"{current}.{symbol}" in self.modules:
                    # subpackage attribute, e.g. ``repro.formats.pipeline``
                    return f"{current}.{symbol}", None
                return current, symbol
            if binding.symbol is None:
                return binding.module, None
            current, symbol = binding.module, binding.symbol
        return current, symbol

    def resolve_chain(self, module: str, chain: str
                      ) -> tuple[str, str | None]:
        """Resolve a dotted chain like ``pkg.mod.func`` from ``module``.

        Walks module-object segments (aliases and subpackages) as far as
        they resolve, then returns the first non-module attribute as the
        symbol.  ``("", None)`` means unresolvable.
        """
        parts = chain.split(".")
        owner, symbol = self.resolve(module, parts[0])
        for part in parts[1:]:
            if symbol is not None:
                # attribute of a non-module value: not statically resolvable
                return "", None
            owner, symbol = self.resolve(owner, part)
            if owner not in self.modules and symbol is not None:
                return "", None
        return owner, symbol

    # import graph -----------------------------------------------------

    def import_edges(self, module: str, *, scope: str | None = None
                     ) -> list[ImportRecord]:
        summary = self.modules.get(module)
        if summary is None:
            return []
        return [rec for rec in summary.imports
                if scope is None or rec.scope == scope]

    def imported_modules(self, module: str) -> set[str]:
        """In-project modules ``module`` imports (any scope), with
        ``from pkg import symbol`` resolved to the defining module."""
        out: set[str] = set()
        for rec in self.import_edges(module):
            target = rec.module
            if rec.symbol is not None and f"{target}.{rec.symbol}" in self.modules:
                target = f"{target}.{rec.symbol}"
            if target in self.modules:
                out.add(target)
        return out

    # call graph -------------------------------------------------------

    def _method_defs(self) -> dict[str, set[str]]:
        """method basename -> {``module:Class.method`` qualified defs}."""
        if self._method_index is None:
            index: dict[str, set[str]] = {}
            for module, summary in self.modules.items():
                for cls in summary.classes.values():
                    for method in cls.methods:
                        index.setdefault(method, set()).add(
                            f"{module}:{cls.name}.{method}")
            self._method_index = index
        return self._method_index

    def _build_call_graph(self) -> None:
        resolved: dict[str, set[str]] = {}
        by_name: dict[str, set[str]] = {}
        methods = self._method_defs()
        for module, summary in self.modules.items():
            for qual, info in summary.functions.items():
                src = f"{module}:{qual}"
                res = resolved.setdefault(src, set())
                nam = by_name.setdefault(src, set())
                for chain, _line in info.calls:
                    if chain.startswith("<call>"):
                        tail = chain.split(".")[-1]
                        nam.update(methods.get(tail, ()))
                        continue
                    owner, symbol = self.resolve_chain(module, chain)
                    if owner in self.modules and symbol is not None:
                        target_summary = self.modules[owner]
                        if (symbol in target_summary.functions
                                or symbol in target_summary.classes):
                            res.add(f"{owner}:{symbol}")
                            continue
                    # fall back to method-name matching for the tail
                    if "." in chain:
                        nam.update(methods.get(chain.split(".")[-1], ()))
        self._call_graph = resolved
        self._name_edges = by_name

    def call_edges(self, qualified: str, *, name_based: bool = False
                   ) -> set[str]:
        """Outgoing call edges of ``module:qualname``."""
        if self._call_graph is None:
            self._build_call_graph()
        assert self._call_graph is not None and self._name_edges is not None
        edges = set(self._call_graph.get(qualified, ()))
        if name_based:
            edges.update(self._name_edges.get(qualified, ()))
        return edges

    def reaches(self, start: str, module_prefix: str, *,
                name_based: bool = True, max_nodes: int = 10_000
                ) -> list[str]:
        """BFS from ``module:qualname``; returns the first call path
        (list of qualified names) into a module matching ``module_prefix``,
        or ``[]``.  Class constructions expand into the class's methods
        (calling ``Cls(...)`` may invoke any of its methods later)."""
        from collections import deque

        queue = deque([(start, [start])])
        seen = {start}
        while queue and len(seen) < max_nodes:
            current, path = queue.popleft()
            module = current.split(":")[0]
            if (module == module_prefix
                    or module.startswith(module_prefix + ".")) and current != start:
                return path
            for succ in sorted(self.call_edges(current,
                                               name_based=name_based)):
                targets = [succ]
                mod, _, sym = succ.partition(":")
                summary = self.modules.get(mod)
                if summary and sym in summary.classes:
                    targets += [f"{mod}:{sym}.{m}"
                                for m in summary.classes[sym].methods]
                for target in targets:
                    if target not in seen:
                        seen.add(target)
                        queue.append((target, path + [target]))
        return []
