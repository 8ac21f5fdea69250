"""The syntactic ``reprolint`` checkers: one AST visitor each.

Each checker guards one invariant the paper's correctness argument relies
on; ``docs/static_analysis.md`` documents the catalogue in prose.

==================  =======  ==================================================
checker             codes    invariant
==================  =======  ==================================================
rng-determinism     RPL101+  all entropy flows through ``repro.core.rng``
layering            RPL201   ``core``/``models`` stay importable bottom-up
numerical-safety    RPL301+  no float ``==`` on probabilities, no
                             Decimal->float round-trips on precision paths
exception-hygiene   RPL401+  no bare/broad ``except`` outside the allowlist
api-completeness    RPL501+  every module declares a consistent ``__all__``
telemetry           RPL507+  pipeline timing goes through ``span``/``Stopwatch``;
                             only the CLI and devtools print
read-only-          RPL509   flight/server/traceview stay read-only: no RNG,
introspection                no registry writes, no generator imports
mutable-defaults    RPL601   no mutable default arguments
==================  =======  ==================================================
"""

from __future__ import annotations

import ast

from .framework import Checker, Violation, register_checker

__all__ = [
    "RngDeterminismChecker",
    "LayeringChecker",
    "NumericalSafetyChecker",
    "ExceptionHygieneChecker",
    "ApiCompletenessChecker",
    "TelemetryChecker",
    "IntrospectionChecker",
    "MutableDefaultsChecker",
]

_NUMPY_ALIASES = {"numpy", "np"}


def _attr_chain(node: ast.AST) -> list[str] | None:
    """``np.random.default_rng`` -> ``["np", "random", "default_rng"]``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return parts[::-1]
    return None


def _resolve_relative(module: str, node: ast.ImportFrom) -> str:
    """Absolute dotted target of a relative ``from`` import in ``module``."""
    parts = module.split(".")
    base = parts[:-node.level] if node.level <= len(parts) else []
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base)


def _module_under(module: str, prefixes: tuple[str, ...]) -> bool:
    return any(module == prefix or module.startswith(prefix + ".")
               for prefix in prefixes)


@register_checker
class RngDeterminismChecker(Checker):
    """All randomness must come from :mod:`repro.core.rng`.

    ``import random``, calls through ``numpy.random``, and
    ``default_rng(...)`` / ``SeedSequence(...)`` constructed outside the
    RNG module each break the seed -> stream -> graph determinism chain
    (Section 5 of the paper: streams are keyed by scope id, not worker
    id, so the partitioning cannot change the graph).
    """

    name = "rng-determinism"
    codes = {
        "RPL101": "stdlib `random` imported",
        "RPL102": "numpy.random called outside the RNG module",
        "RPL103": "generator/seed constructed outside the RNG module",
    }

    def _in_rng_module(self) -> bool:
        allowed = {self.config.rng_module} | set(
            self.config.rng_allowed_modules)
        return self.source.module in allowed

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root == "random":
                self.flag(node, "RPL101",
                          "stdlib `random` is unseeded per-process state; "
                          "use repro.core.rng.stream instead")
            elif alias.name == "numpy.random" and not self._in_rng_module():
                self.flag(node, "RPL102",
                          "import numpy.random only inside "
                          f"{self.config.rng_module}")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level == 0 and node.module:
            root = node.module.split(".")[0]
            if root == "random":
                self.flag(node, "RPL101",
                          "stdlib `random` is unseeded per-process state; "
                          "use repro.core.rng.stream instead")
            elif root == "numpy" and not self._in_rng_module():
                if node.module == "numpy.random":
                    bad = [alias.name for alias in node.names
                           if alias.name not in self.config.rng_type_names]
                    if bad:
                        self.flag(node, "RPL103",
                                  f"importing {', '.join(bad)} from "
                                  "numpy.random outside the RNG module; "
                                  "route entropy through "
                                  f"{self.config.rng_module}")
                elif node.module == "numpy" and any(
                        alias.name == "random" for alias in node.names):
                    self.flag(node, "RPL102",
                              "import numpy.random only inside "
                              f"{self.config.rng_module}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._in_rng_module():
            chain = _attr_chain(node.func)
            if (chain and chain[0] in _NUMPY_ALIASES and len(chain) >= 3
                    and chain[1] == "random"
                    and chain[2] not in self.config.rng_type_names):
                self.flag(node, "RPL102",
                          f"call to {'.'.join(chain)} outside "
                          f"{self.config.rng_module} bypasses the "
                          "SeedSequence-keyed streams")
            elif isinstance(node.func, ast.Name) and node.func.id in (
                    "default_rng", "SeedSequence"):
                self.flag(node, "RPL103",
                          f"{node.func.id}() constructed outside "
                          f"{self.config.rng_module}; use stream()/"
                          "spawn_streams()/derive_seed()")
        self.generic_visit(node)


@register_checker
class LayeringChecker(Checker):
    """Package layering: lower layers must not import higher ones.

    ``core`` (the RecVec math) must stay importable without the
    distribution, format, CLI, or cluster layers; ``models`` must not
    reach into ``dist`` (generators are orchestrated *by* the
    distribution layer, never the reverse).
    """

    name = "layering"
    codes = {"RPL201": "forbidden cross-layer import"}

    def _forbidden(self) -> tuple[str, ...]:
        for prefix, banned in self.config.layering_rules.items():
            if (self.source.module == prefix
                    or self.source.module.startswith(prefix + ".")):
                return banned
        return ()

    def _check(self, node: ast.AST, target: str) -> bool:
        for banned in self._forbidden():
            if target == banned or target.startswith(banned + "."):
                layer = self.source.module.rsplit(".", 1)[0]
                self.flag(node, "RPL201",
                          f"{layer} must not import {banned} "
                          f"(imported {target})")
                return True
        return False

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        target = (_resolve_relative(self.source.module, node)
                  if node.level else node.module)
        if target and not self._check(node, target):
            # `from pkg import name` may pull a submodule, not an attr.
            for alias in node.names:
                if self._check(node, f"{target}.{alias.name}"):
                    break
        self.generic_visit(node)


def _contains_float_literal(node: ast.AST, sentinels: frozenset[float]
                            ) -> ast.Constant | None:
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Constant) and isinstance(sub.value, float)
                and sub.value not in sentinels):
            return sub
    return None


@register_checker
class NumericalSafetyChecker(Checker):
    """Probability arithmetic must not rely on exact float equality, and
    the Decimal precision path must not round-trip through ``float``.

    Seshadhri et al. show SKG degree distributions shift invisibly under
    tiny parameter perturbations; an ``==`` against a probability hides
    exactly that class of bug.  Comparisons against the exact binary
    sentinels 0.0 / 1.0 / -1.0 are allowed.
    """

    name = "numerical-safety"
    codes = {
        "RPL301": "float equality on a probability expression",
        "RPL302": "Decimal value round-tripped through float()",
    }

    def _is_probability_expr(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            ident = None
            if isinstance(sub, ast.Name):
                ident = sub.id
            elif isinstance(sub, ast.Attribute):
                ident = sub.attr
            elif isinstance(sub, ast.Call):
                chain = _attr_chain(sub.func)
                ident = chain[-1] if chain else None
            if ident and any(pat in ident.lower() for pat in
                             self.config.probability_name_patterns):
                return True
        return False

    def _is_exact_sentinel(self, node: ast.AST) -> bool:
        return (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and float(node.value) in self.config.exact_float_sentinels)

    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if self._is_exact_sentinel(left) or self._is_exact_sentinel(right):
                continue
            for side in (left, right):
                literal = _contains_float_literal(
                    side, self.config.exact_float_sentinels)
                if literal is not None:
                    self.flag(node, "RPL301",
                              f"`==`/`!=` against float literal "
                              f"{literal.value!r}; compare with a tolerance "
                              "(math.isclose / np.isclose)")
                    break
                if self._is_probability_expr(side):
                    self.flag(node, "RPL301",
                              "`==`/`!=` on a probability/CDF expression; "
                              "compare with a tolerance "
                              "(math.isclose / np.isclose)")
                    break
        self.generic_visit(node)

    def _is_decimal_expr(self, node: ast.AST) -> bool:
        for sub in ast.walk(node):
            ident = None
            if isinstance(sub, ast.Call):
                chain = _attr_chain(sub.func)
                ident = chain[-1] if chain else None
            elif isinstance(sub, (ast.Name, ast.Attribute)):
                ident = (sub.id if isinstance(sub, ast.Name) else sub.attr)
            if ident is None:
                continue
            lowered = ident.lower()
            if (ident == "Decimal" or lowered.endswith("decimal")
                    or lowered.endswith("_dec") or lowered.startswith("dec_")):
                return True
        return False

    def visit_Call(self, node: ast.Call) -> None:
        if (self.source.module in self.config.precision_modules
                and isinstance(node.func, ast.Name)
                and node.func.id == "float" and node.args
                and self._is_decimal_expr(node.args[0])):
            self.flag(node, "RPL302",
                      "float(<Decimal>) inside a high-precision module "
                      "defeats the Decimal path; keep the value in Decimal "
                      "or convert at the API boundary")
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        sides = (node.left, node.right)
        has_decimal = any(
            isinstance(s, ast.Call) and isinstance(s.func, ast.Name)
            and s.func.id == "Decimal" for s in sides)
        has_float = any(
            isinstance(s, ast.Constant) and isinstance(s.value, float)
            for s in sides)
        if has_decimal and has_float:
            self.flag(node, "RPL302",
                      "arithmetic mixes Decimal(...) with a float literal; "
                      "Decimal('...') the literal instead")
        self.generic_visit(node)


@register_checker
class ExceptionHygieneChecker(Checker):
    """No bare or broad ``except`` clauses outside the allowlist, and no
    unbounded blocking pool calls in the distribution layer.

    Broad handlers swallow :class:`~repro.errors.TrillionGError` subtypes
    (including the *simulated* OutOfMemoryError the experiments rely on)
    and hide real I/O failures; catch the specific errors and route them
    through :mod:`repro.errors`.  In ``dist/`` modules, a bare
    ``pool.map`` (or a timeout-less ``AsyncResult.get()``) turns one hung
    worker into a hung run — the fault-tolerant scheduler
    (:func:`repro.dist.faults.run_tasks`) exists so nothing in the
    distribution layer blocks forever.
    """

    name = "exception-hygiene"
    codes = {
        "RPL401": "bare `except:`",
        "RPL402": "broad `except Exception`/`except BaseException`",
        "RPL403": "blocking pool.map in a distribution module",
        "RPL404": "AsyncResult.get() without a timeout in a "
                  "distribution module",
    }

    _BROAD = {"Exception", "BaseException"}
    _POOL_BLOCKING = {"map", "imap", "imap_unordered", "starmap",
                      "map_async", "starmap_async"}
    _RESULT_NAMES = ("result", "future", "async", "task")

    def _exception_names(self, node: ast.expr | None) -> list[str]:
        if node is None:
            return []
        items = node.elts if isinstance(node, ast.Tuple) else [node]
        out = []
        for item in items:
            chain = _attr_chain(item)
            if chain:
                out.append(chain[-1])
        return out

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if self.source.module not in self.config.broad_except_allowed:
            if node.type is None:
                self.flag(node, "RPL401",
                          "bare `except:` swallows KeyboardInterrupt and "
                          "every library error; name the exceptions")
            else:
                broad = self._BROAD.intersection(
                    self._exception_names(node.type))
                if broad:
                    self.flag(node, "RPL402",
                              f"`except {sorted(broad)[0]}` is too broad; "
                              "catch the specific errors (see repro.errors)")
        self.generic_visit(node)

    def _in_pool_timeout_module(self) -> bool:
        return _module_under(self.source.module,
                             self.config.pool_timeout_module_prefixes)

    def visit_Call(self, node: ast.Call) -> None:
        if self._in_pool_timeout_module():
            chain = _attr_chain(node.func)
            if chain is not None and len(chain) >= 2:
                receiver = chain[-2].lower()
                method = chain[-1]
                has_timeout = (bool(node.args) or any(
                    kw.arg == "timeout" for kw in node.keywords))
                if method in self._POOL_BLOCKING and "pool" in receiver:
                    self.flag(node, "RPL403",
                              f"`{receiver}.{method}(...)` blocks forever "
                              "if one worker hangs; use "
                              "repro.dist.faults.run_tasks (timeouts, "
                              "retries, fault injection)")
                elif (method == "get" and not has_timeout
                      and any(tag in receiver
                              for tag in self._RESULT_NAMES)):
                    self.flag(node, "RPL404",
                              f"`{receiver}.get()` without a timeout "
                              "blocks forever if the worker hangs; pass "
                              "get(timeout=...) or use "
                              "repro.dist.faults.run_tasks")
        self.generic_visit(node)


@register_checker
class ApiCompletenessChecker(Checker):
    """Every module declares ``__all__``, and it is complete + consistent.

    ``__all__`` is the contract the docs, the star-import surface, and
    this linter's own registry discovery all read; a public def missing
    from it is an API change nobody reviewed.
    """

    name = "api-completeness"
    codes = {
        "RPL501": "module missing __all__",
        "RPL502": "__all__ names an undefined symbol",
        "RPL503": "public definition missing from __all__",
        "RPL504": "__all__ is not a static list/tuple of strings",
    }

    def run(self) -> list[Violation]:
        if self.source.path.name in self.config.all_exempt_basenames:
            return []
        tree = self.source.tree
        declared, all_node = self._declared_all(tree)
        top_level = self._top_level_names(tree)
        public_defs = self._public_defs(tree)
        if all_node is None:
            if public_defs:  # pure-constant or empty modules are exempt
                self.flag(None, "RPL501",
                          "module defines a public API "
                          f"({', '.join(sorted(public_defs)[:4])}...) "
                          "but no __all__")
            return self.violations
        if declared is None:
            self.flag(all_node, "RPL504",
                      "__all__ must be a static list/tuple of string "
                      "literals so tooling can read it")
            return self.violations
        for name in declared:
            if name not in top_level:
                self.flag(all_node, "RPL502",
                          f"__all__ lists {name!r} which is not defined or "
                          "imported at module top level")
        for name in sorted(set(public_defs) - set(declared)):
            self.flag(public_defs[name], "RPL503",
                      f"public {type(public_defs[name]).__name__.lower()} "
                      f"{name!r} is not exported in __all__ (prefix it with "
                      "'_' or add it)")
        return self.violations

    def _declared_all(self, tree: ast.Module
                      ) -> tuple[list[str] | None, ast.AST | None]:
        for node in tree.body:
            targets = []
            if isinstance(node, ast.Assign):
                targets = [t for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name):
                targets = [node.target]
            if not any(t.id == "__all__" for t in targets):
                continue
            value = node.value
            if not isinstance(value, (ast.List, ast.Tuple)):
                return None, node
            names = []
            for elt in value.elts:
                if not (isinstance(elt, ast.Constant)
                        and isinstance(elt.value, str)):
                    return None, node
                names.append(elt.value)
            return names, node
        return None, None

    def _top_level_names(self, tree: ast.Module) -> set[str]:
        names: set[str] = {"__version__", "__doc__"}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            names.add(sub.id)
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(node.target, ast.Name):
                    names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    names.add(alias.asname
                              or alias.name.split(".")[0])
            elif isinstance(node, (ast.If, ast.Try)):
                # TYPE_CHECKING / fallback-import blocks: one level deep.
                for sub in ast.iter_child_nodes(node):
                    if isinstance(sub, (ast.FunctionDef, ast.ClassDef)):
                        names.add(sub.name)
                    elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                        for alias in sub.names:
                            if alias.name != "*":
                                names.add(alias.asname
                                          or alias.name.split(".")[0])
        return names

    def _public_defs(self, tree: ast.Module) -> dict[str, ast.AST]:
        defs: dict[str, ast.AST] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if not node.name.startswith("_"):
                    defs[node.name] = node
        return defs


@register_checker
class TelemetryChecker(Checker):
    """Timing and reporting route through :mod:`repro.telemetry`.

    RPL507 — a raw ``time.perf_counter()`` call in an instrumented layer
    (``telemetry_span_module_prefixes``: the system facade, the
    distributed runtime, and the formats package).  Ad-hoc
    ``t0 = perf_counter(); ...; elapsed = perf_counter() - t0`` pairs
    produce timing no exporter can see and that cross-process
    aggregation cannot merge; use ``span(...)`` (hierarchical, appears
    in the trace tree) or ``Stopwatch`` (hot-path accumulator) instead.
    ``time.monotonic``/``time.sleep`` are fine — the rule is about
    *measurement*, not scheduling.

    RPL508 — a bare ``print(...)`` outside the allowed prefixes
    (``print_allowed_module_prefixes``: the CLI owns stdout, devtools
    write their own reports).  Library layers report through the
    ``repro.*`` logger hierarchy so verbosity follows
    ``TRILLIONG_LOG_LEVEL`` and output never corrupts piped graph data.
    """

    name = "telemetry"
    codes = {
        "RPL507": "raw time.perf_counter() in an instrumented layer",
        "RPL508": "bare print() in a library module",
    }

    def _in_span_module(self) -> bool:
        module = self.source.module
        if _module_under(module, ("repro.telemetry",)):
            return False     # the implementation must call the real clock
        return _module_under(module,
                             self.config.telemetry_span_module_prefixes)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _attr_chain(node.func)
        if (chain is not None and chain[-1] == "perf_counter"
                and self._in_span_module()):
            self.flag(node, "RPL507",
                      "raw time.perf_counter(); use repro.telemetry's "
                      "span(...) or Stopwatch so the timing lands in "
                      "the unified report")
        if (isinstance(node.func, ast.Name) and node.func.id == "print"
                and not _module_under(
                    self.source.module,
                    self.config.print_allowed_module_prefixes)):
            self.flag(node, "RPL508",
                      "bare print() in a library module; use "
                      "repro.telemetry.get_logger(...) so output "
                      "respects TRILLIONG_LOG_LEVEL")
        self.generic_visit(node)


@register_checker
class IntrospectionChecker(Checker):
    """Live introspection stays read-only (RPL509).

    Modules under ``introspection_module_prefixes`` (the flight
    recorder, the telemetry HTTP server, the trace exporter) observe a
    *running* generation.  The whole design contract is that turning
    them on cannot change the output bytes, so inside them:

    - no RNG stream construction or draws (``stream()`` /
      ``default_rng()`` / ``.random()`` & co) — an introspection-path
      draw would shift every subsequent generator draw;
    - no metrics-registry mutation — neither instrument updates
      (``.inc()`` / ``.observe()`` / ``.merge()`` / ``.reset()``) nor
      the accessor methods ``counter()``/``gauge()``/``histogram()``,
      which *create* instruments as a side effect (read via
      ``registry.snapshot()`` instead);
    - no imports of generator machinery
      (``introspection_forbidden_imports``: ``repro.core`` /
      ``repro.models``).

    ``.set(...)`` is deliberately *not* in the mutator set: it is far
    more often ``threading.Event.set()`` (lifecycle, fine) than
    ``Gauge.set()``, and gauge writes from introspection code are
    already unreachable without first calling the flagged ``gauge()``
    accessor.
    """

    name = "read-only-introspection"
    codes = {"RPL509": "non-read-only action in an introspection module"}

    _MUTATORS = frozenset({"inc", "observe", "observe_bulk", "merge",
                           "reset", "counter", "gauge", "histogram"})

    def _active(self) -> bool:
        return _module_under(self.source.module,
                             self.config.introspection_module_prefixes)

    def _check_import(self, node: ast.AST, target: str) -> None:
        for banned in self.config.introspection_forbidden_imports:
            if target == banned or target.startswith(banned + "."):
                self.flag(node, "RPL509",
                          f"introspection module imports {target}; "
                          "read-only observers must not reach into "
                          "generator machinery")
                return

    def visit_Import(self, node: ast.Import) -> None:
        if self._active():
            for alias in node.names:
                self._check_import(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self._active():
            target = (_resolve_relative(self.source.module, node)
                      if node.level else node.module)
            if target:
                self._check_import(node, target)
                for alias in node.names:
                    self._check_import(node, f"{target}.{alias.name}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if not self._active():
            self.generic_visit(node)
            return
        if (isinstance(node.func, ast.Name)
                and node.func.id in self.config.rng_stream_constructors):
            self.flag(node, "RPL509",
                      f"{node.func.id}() constructs an RNG stream in an "
                      "introspection module; read-only observers must "
                      "not draw entropy")
        elif isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in self.config.rng_draw_methods:
                self.flag(node, "RPL509",
                          f".{attr}() draws from an RNG stream in an "
                          "introspection module; a single draw here "
                          "shifts every subsequent generator draw")
            elif attr in self._MUTATORS:
                self.flag(node, "RPL509",
                          f".{attr}() mutates the metrics registry in an "
                          "introspection module; read the state via "
                          "registry.snapshot() instead")
        self.generic_visit(node)


@register_checker
class MutableDefaultsChecker(Checker):
    """No mutable default arguments.

    A ``def f(x, acc=[])`` shares one list across every call — in a
    generator library that means state leaking between supposedly
    independent runs, i.e. seed-dependent results that are not functions
    of the seed.
    """

    name = "mutable-defaults"
    codes = {"RPL601": "mutable default argument"}

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                      "Counter", "OrderedDict", "deque"}

    def _check_args(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                    | ast.Lambda) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if isinstance(default, (ast.List, ast.Dict, ast.Set)):
                kind = type(default).__name__.lower()
                self.flag(default, "RPL601",
                          f"mutable default ({kind} literal) is shared "
                          "across calls; default to None and create it "
                          "inside the function")
            elif (isinstance(default, ast.Call)
                  and isinstance(default.func, ast.Name)
                  and default.func.id in self._MUTABLE_CALLS):
                self.flag(default, "RPL601",
                          f"mutable default ({default.func.id}()) is "
                          "shared across calls; default to None and create "
                          "it inside the function")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_args(node)
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._check_args(node)
        self.generic_visit(node)
