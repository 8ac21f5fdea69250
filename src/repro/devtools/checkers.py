"""The syntactic ``reprolint`` checkers: one AST visitor each.

Each checker guards one invariant the paper's correctness argument relies
on; ``docs/static_analysis.md`` documents the catalogue in prose.

===================  =======  ==================================================
checker              codes    invariant
===================  =======  ==================================================
rng-determinism      RPL101+  all entropy flows through ``repro.core.rng``
layering             RPL201   ``core``/``models`` stay importable bottom-up
numerical-safety     RPL301+  no float ``==`` on probabilities, no
                              Decimal->float round-trips on precision paths
exception-hygiene    RPL401+  no bare/broad ``except`` outside the allowlist
api-completeness     RPL501+  every module declares a consistent ``__all__``
telemetry            RPL507+  pipeline timing goes through ``span``/``Stopwatch``;
                              only the CLI and devtools print
mutable-defaults     RPL601   no mutable default arguments
thread-shared-state  RPL610   attributes shared with a thread are written
                              under a lock
spawn-hygiene        RPL620   worker callables are picklable top-level
                              functions
===================  =======  ==================================================
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
    "MutableDefaultsChecker",
    "ThreadSharedStateChecker",
    "SpawnHygieneChecker",
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


#: Constructors whose instances synchronize access on their own: an
#: attribute holding one of these is a sanctioned cross-thread channel.
_SYNC_TYPES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore", "Barrier", "Event"})
_QUEUE_TYPES = frozenset({"Queue", "SimpleQueue", "LifoQueue",
                          "PriorityQueue", "JoinableQueue", "deque"})


def _self_attr(node: ast.expr) -> str | None:
    """``attr`` for a plain ``self.attr`` expression, else ``None``."""
    if (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def _attr_write_targets(stmt: ast.stmt) -> list[tuple[str, int]]:
    """``self.X`` attributes this statement assigns (plain, tuple, or
    augmented assignment)."""
    out: list[tuple[str, int]] = []
    if isinstance(stmt, ast.Assign):
        targets: list[ast.expr] = list(stmt.targets)
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        targets = [stmt.target]
    else:
        return out
    for target in targets:
        for sub in ast.walk(target):
            attr = _self_attr(sub)
            if attr is not None and isinstance(sub.ctx, ast.Store):
                out.append((attr, stmt.lineno))
    return out


class _MethodScan:
    """One method's facts for the shared-state analysis."""

    def __init__(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                 lock_attrs: set[str]) -> None:
        self.name = node.name
        #: ``self.M()`` calls — intra-class call edges
        self.self_calls: set[str] = set()
        #: ``self.M`` handed to ``Thread(target=...)``
        self.thread_targets: set[str] = set()
        #: attribute writes: ``(attr, line, guarded_by_lock)``
        self.writes: list[tuple[str, int, bool]] = []
        self._lock_attrs = lock_attrs
        for stmt in node.body:
            self._walk(stmt, guarded=False)

    def _walk(self, stmt: ast.stmt, guarded: bool) -> None:
        for attr, line in _attr_write_targets(stmt):
            self.writes.append((attr, line, guarded))
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                attr = _self_attr(sub.func)
                if attr is not None:
                    self.self_calls.add(attr)
                chain = _attr_chain(sub.func)
                if chain and chain[-1] == "Thread":
                    for kw in sub.keywords:
                        if kw.arg == "target":
                            target = _self_attr(kw.value)
                            if target is not None:
                                self.thread_targets.add(target)
        # nested blocks: only ``with self.<lock>:`` upgrades the guard;
        # re-walk the bodies of compound statements with the right flag.
        for child_body, child_guard in self._child_blocks(stmt, guarded):
            for child in child_body:
                self._walk(child, child_guard)

    def _child_blocks(self, stmt: ast.stmt, guarded: bool):
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            locked = guarded or any(
                (attr := _self_attr(item.context_expr)) is not None
                and attr in self._lock_attrs
                for item in stmt.items)
            yield stmt.body, locked
            return
        for field_name in ("body", "orelse", "finalbody"):
            body = getattr(stmt, field_name, None)
            if body:
                yield body, guarded
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body, guarded


@register_checker
class ThreadSharedStateChecker(Checker):
    """Attributes written on both sides of an in-class thread boundary
    must be lock-guarded (or be a synchronizing queue).

    A class that hands one of its own methods to
    ``threading.Thread(target=...)`` shares every ``self`` attribute
    between the spawned thread and its other methods.  An attribute
    *assigned* both inside the thread-reachable methods and outside them
    is a cross-thread write race unless every such assignment sits under
    ``with self.<lock>:`` (or the attribute is a ``queue.Queue``-like
    handoff, which synchronizes internally).
    """

    name = "thread-shared-state"
    codes = {"RPL610": "attribute written by both the spawned thread "
                       "and other methods without a lock"}

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._check_class(node)
        self.generic_visit(node)

    def _check_class(self, node: ast.ClassDef) -> None:
        methods = {m.name: m for m in node.body
                   if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
        lock_attrs, safe_attrs = self._channel_attrs(methods.values())
        scans = {name: _MethodScan(fn, lock_attrs)
                 for name, fn in methods.items()}

        roots = {t for scan in scans.values() for t in scan.thread_targets}
        if not roots:
            return
        reachable = set()
        frontier = list(roots & set(scans))
        while frontier:
            name = frontier.pop()
            if name in reachable:
                continue
            reachable.add(name)
            frontier.extend(scans[name].self_calls & set(scans))

        flagged: set[str] = set()
        for attr in sorted({a for scan in scans.values()
                            for a, _, _ in scan.writes}):
            if attr in safe_attrs or attr in lock_attrs or attr in flagged:
                continue
            inside = [(s.name, line, guarded)
                      for s in scans.values() if s.name in reachable
                      for a, line, guarded in s.writes if a == attr]
            outside = [(s.name, line, guarded)
                       for s in scans.values()
                       if s.name not in reachable and s.name != "__init__"
                       for a, line, guarded in s.writes if a == attr]
            if not inside or not outside:
                continue
            unguarded = [(m, line) for m, line, guarded
                         in inside + outside if not guarded]
            if not unguarded:
                continue
            flagged.add(attr)
            line = min(w[1] for w in unguarded)
            thread_side = ", ".join(sorted({m for m, _, _ in inside}))
            caller_side = ", ".join(sorted({m for m, _, _ in outside}))
            self.flag(line, "RPL610",
                      f"attribute 'self.{attr}' is written by the spawned "
                      f"thread (via {thread_side}) and by {caller_side} "
                      f"without a lock: guard every write with "
                      f"`with self.<lock>:` or hand the value over "
                      f"through a queue")

    @staticmethod
    def _channel_attrs(methods) -> tuple[set[str], set[str]]:
        locks: set[str] = set()
        queues: set[str] = set()
        for fn in methods:
            for stmt in ast.walk(fn):
                if not isinstance(stmt, ast.Assign):
                    continue
                if not isinstance(stmt.value, ast.Call):
                    continue
                chain = _attr_chain(stmt.value.func)
                tail = chain[-1] if chain else ""
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if tail in _SYNC_TYPES:
                        locks.add(attr)
                    elif tail in _QUEUE_TYPES:
                        queues.add(attr)
        return locks, queues


def _nested_defs(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names of the functions defined directly inside ``func``."""
    names: set[str] = set()
    todo: list[ast.AST] = list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif not isinstance(node, (ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))
    return names


@register_checker
class SpawnHygieneChecker(Checker):
    """Worker callables must be picklable top-level functions.

    In the ``spawn_module_prefixes`` layers, the worker callable at a
    spawn site must be a module-level function, not a lambda or a nested
    ``def``: ``spawn``-context pickling fails at runtime, and even under
    ``fork`` the closure smuggles parent state into the worker.
    """

    name = "spawn-hygiene"
    codes = {
        "RPL620": "non-picklable worker callable crosses a spawn boundary",
    }

    def __init__(self, source, config) -> None:
        super().__init__(source, config)
        #: ``(name, directly nested def names)`` per enclosing function
        self._scopes: list[tuple[str, set[str]]] = []

    def run(self) -> list[Violation]:
        if _module_under(self.source.module,
                         self.config.spawn_module_prefixes):
            self.visit(self.source.tree)
        return self.violations

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                        ) -> None:
        self._scopes.append((node.name, _nested_defs(node)))
        self.generic_visit(node)
        self._scopes.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        tail = (func.attr if isinstance(func, ast.Attribute)
                else func.id if isinstance(func, ast.Name) else None)
        if tail in self.config.worker_submit_calls:
            callee = ast.unparse(func)
            workers = [kw.value for kw in node.keywords
                       if kw.arg == "target"] + list(node.args)
            for worker in workers:
                if isinstance(worker, ast.Lambda):
                    self.flag(node, "RPL620",
                              f"lambda passed to {callee}(): lambdas do "
                              f"not pickle, so spawn-context workers crash "
                              f"at submission — use a module-level function")
                elif (isinstance(worker, ast.Name) and self._scopes
                        and worker.id in self._scopes[-1][1]):
                    enclosing = self._scopes[-1][0]
                    self.flag(node, "RPL620",
                              f"nested function '{worker.id}' (defined "
                              f"inside {enclosing}) passed to {callee}(): "
                              f"nested defs do not pickle and capture "
                              f"parent state — move the worker to module "
                              f"level")
        self.generic_visit(node)
