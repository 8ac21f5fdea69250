"""Concurrency lint rules (the RPL6xx family).

Determinism in TrillionG survives threads only under three disciplines,
each enforced by one rule family here:

- **thread-shared-state** (RPL610) — a class that hands one of its own
  methods to ``threading.Thread(target=...)`` shares every ``self``
  attribute between the spawned thread and its other methods.  Any
  attribute *assigned* both inside the thread-reachable methods and
  outside them is a cross-thread write race unless every such
  assignment sits under ``with self.<lock>:`` (or the attribute is a
  ``queue.Queue``-like handoff, which synchronizes internally).
- **thread-lifecycle** (RPL611) — a thread started in a function and
  neither joined on every normal exit nor handed off (returned, stored,
  passed on) keeps running after the function returns; whatever it
  writes now races with the caller, and interpreter shutdown may cut it
  off mid-write.
- **spawn-hygiene** (RPL620, a whole-program pass over the
  ``spawn_module_prefixes`` layers) — the worker callable at a spawn
  site must be a picklable module-level function, not a lambda or
  nested ``def`` (``spawn``-context pickling fails at runtime, and even
  under ``fork`` the closure smuggles parent state into the worker).

RPL610 and RPL611 are single-file rules (a class or function is visible
whole); RPL620 reads the spawn sites recorded in the project's module
summaries.  (Which functions may read the environment at all is pinned
by a plain test, ``tests/test_env_surface.py``.)
"""

from __future__ import annotations

import ast

from ..framework import (Checker, LintConfig, ProjectChecker,
                         register_checker, register_project_checker)
from .cfg import CFG, CFGNode, FunctionLike, build_cfg
from .dataflow import ForwardAnalysis, run_forward
from .flow_checkers import (_calls, _chain, _escaping_names, _kills,
                            _line_node, _simple_assign_target)

from .project import ModuleSummary, ProjectModel

__all__ = ["ThreadSharedStateChecker", "ThreadLifecycleChecker",
           "SpawnHygieneChecker"]

#: Constructors whose instances synchronize access on their own: an
#: attribute holding one of these is a sanctioned cross-thread channel.
_SYNC_TYPES = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore", "Barrier", "Event"})
_QUEUE_TYPES = frozenset({"Queue", "SimpleQueue", "LifoQueue",
                          "PriorityQueue", "JoinableQueue", "deque"})


# -- RPL610: thread-shared-state ---------------------------------------


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
                chain = _chain(sub.func)
                if chain and chain.split(".")[-1] == "Thread":
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
    must be lock-guarded (or be a synchronizing queue)."""

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
            self.flag(_line_node(line), "RPL610",
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
                chain = _chain(stmt.value.func)
                tail = chain.split(".")[-1] if chain else ""
                for target in stmt.targets:
                    attr = _self_attr(target)
                    if attr is None:
                        continue
                    if tail in _SYNC_TYPES:
                        locks.add(attr)
                    elif tail in _QUEUE_TYPES:
                        queues.add(attr)
        return locks, queues


# -- RPL611: thread-lifecycle ------------------------------------------


class _ThreadAnalysis(ForwardAnalysis):
    """Facts: ``("t", var, state, line)`` — ``var`` holds a thread
    created at ``line``; ``state`` is ``pending`` until ``.start()``,
    ``started`` after.  ``.join()`` or escape (returned, stored on an
    object, passed on) ends the function's responsibility."""

    def transfer(self, node: CFGNode, facts):  # type: ignore[override]
        out = set(facts)
        for name in _kills(node):
            out -= {f for f in out if f[0] == "t" and f[1] == name}

        joined: set[str] = set()
        started: set[str] = set()
        for call in _calls(node):
            chain = _chain(call.func)
            if chain is None or "." not in chain:
                continue
            receiver, _, tail = chain.rpartition(".")
            if tail == "join":
                joined.add(receiver)
            elif tail == "start":
                started.add(receiver)
        escaped = _escaping_names(node)
        out = {f for f in out
               if not (f[0] == "t" and (f[1] in joined or f[1] in escaped))}
        for fact in list(out):
            if fact[0] == "t" and fact[1] in started:
                out.discard(fact)
                out.add(("t", fact[1], "started", fact[3]))

        target = _simple_assign_target(node)
        if target is not None:
            stmt = node.stmt
            assert stmt is not None
            value = stmt.value if isinstance(
                stmt, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Call):
                chain = _chain(value.func)
                if chain and chain.split(".")[-1] == "Thread":
                    out.add(("t", target, "pending", stmt.lineno))
        return frozenset(out)


@register_checker
class ThreadLifecycleChecker(Checker):
    """Locally-created threads must be joined on every normal exit."""

    name = "thread-lifecycle"
    codes = {"RPL611": "thread started but not joined on every exit"}

    def run(self):  # type: ignore[override]
        for node in ast.walk(self.source.tree):
            if isinstance(node, FunctionLike):
                self._check_function(build_cfg(node))
        self.finish()
        return self.violations

    def _check_function(self, cfg: CFG) -> None:
        results = run_forward(cfg, _ThreadAnalysis())
        normal_preds, _exc_preds = cfg.preds()
        exit_facts = ForwardAnalysis.join(
            results[p.index][1] for p in normal_preds[cfg.exit.index])
        flagged: set[tuple[str, int]] = set()
        for fact in sorted(exit_facts):
            if (fact[0] == "t" and fact[2] == "started"
                    and (fact[1], fact[3]) not in flagged):
                flagged.add((fact[1], fact[3]))
                self.flag(_line_node(fact[3]), "RPL611",
                          f"thread '{fact[1]}' started here is not joined "
                          f"on every exit: the function returns while the "
                          f"thread still runs, racing the caller (join it "
                          f"in a finally block or hand it to the caller)")


# -- RPL620: spawn-hygiene ---------------------------------------------


@register_project_checker
class SpawnHygieneChecker(ProjectChecker):
    """Worker callables must be picklable top-level functions."""

    name = "spawn-hygiene"
    codes = {
        "RPL620": "non-picklable worker callable crosses a spawn boundary",
    }

    def check(self, project: "ProjectModel") -> None:
        for summary in project.summaries:
            config = project.config_for_path(summary.path)
            if not self._in_scope(summary.module, config):
                continue
            for site in summary.spawn_sites:
                callee_tail = str(site["callee"]).split(".")[-1]
                if callee_tail not in config.worker_submit_calls:
                    continue
                for worker in site["workers"]:
                    self._check_worker(summary, site, str(worker))

    @staticmethod
    def _in_scope(module: str, config: LintConfig) -> bool:
        return any(module == p or module.startswith(p + ".")
                   for p in config.spawn_module_prefixes)

    def _check_worker(self, summary: "ModuleSummary", site: dict,
                      worker: str) -> None:
        line = int(site["line"])
        enclosing = str(site["function"])
        if worker == "<lambda>":
            self.flag(summary, line, 0, "RPL620",
                      f"lambda passed to {site['callee']}(): lambdas do "
                      f"not pickle, so spawn-context workers crash at "
                      f"submission — use a module-level function")
            return
        if "." not in worker and enclosing != "<module>":
            nested = f"{enclosing}.{worker}"
            if nested in summary.functions:
                self.flag(summary, line, 0, "RPL620",
                          f"nested function '{worker}' (defined inside "
                          f"{enclosing}) passed to {site['callee']}(): "
                          f"nested defs do not pickle and capture parent "
                          f"state — move the worker to module level")
