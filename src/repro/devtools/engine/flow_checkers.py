"""Flow-sensitive file checkers built on the CFG + dataflow engine.

Three families, each a forward may-analysis over every function body:

- **rng-stream-flow** (RPL110/111) — an RNG stream that crosses a
  worker boundary (pickled into a task, handed to ``Process``/
  ``submit``/``run_tasks``) and is then drawn from in the parent has
  forked state: parent and worker draw the same values, silently
  breaking the one-value-per-edge guarantee.  RPL111 flags the same
  stream derived twice from identical arguments along one path —
  overlapping streams, the other half of the hazard.
- **atomic-write** (RPL310/311) — in the checkpoint/spill layers
  (``atomic_write_module_prefixes``): a handle that reaches
  ``os.replace``/``os.rename`` without ``flush()`` + ``os.fsync()`` on
  *some* path (RPL310 — the rename can publish a torn file after a
  crash), and a ``.tmp``/``.partial`` path an exception can leak
  because no ``try/finally`` cleans it up (RPL311).
- **resource-lifecycle** (RPL320) — a handle from ``open()`` that some
  path abandons without ``close()``; handles that escape (returned,
  yielded, stored, passed on) are the caller's problem and never flag.

All three analyze each function in isolation but path-sensitively:
facts from different branches stay distinct under the union join, so
"fsynced on the happy path only" is visible where a syntactic scan
sees one ``fsync`` call and goes quiet.
"""

from __future__ import annotations

import ast

from ..framework import Checker, LintConfig, register_checker
from .cfg import (CFG, CFGNode, assigned_names, iter_function_cfgs,
                  node_fragments)
from .dataflow import ForwardAnalysis, run_forward

__all__ = ["RngStreamFlowChecker", "AtomicWriteChecker",
           "ResourceLifecycleChecker"]

#: node kinds whose ``assigned_names`` take effect when the node runs
#: (a ``with_end`` node shares its statement with the ``with`` head but
#: rebinds nothing).
_BINDING_KINDS = ("stmt", "loop", "with")


def _chain(func: ast.expr) -> str | None:
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _calls(node: CFGNode) -> list[ast.Call]:
    return [sub for frag in node_fragments(node)
            for sub in ast.walk(frag) if isinstance(sub, ast.Call)]


def _arg_names(call: ast.Call) -> set[str]:
    names: set[str] = set()
    for arg in list(call.args) + [kw.value for kw in call.keywords]:
        for sub in ast.walk(arg):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
    return names


def _kills(node: CFGNode) -> set[str]:
    if node.kind not in _BINDING_KINDS or node.stmt is None:
        return set()
    return assigned_names(node.stmt)


def _simple_assign_target(node: CFGNode) -> str | None:
    """``x`` for a plain ``x = <expr>`` statement node."""
    stmt = node.stmt
    if node.kind != "stmt":
        return None
    if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)):
        return stmt.targets[0].id
    if (isinstance(stmt, ast.AnnAssign) and stmt.value is not None
            and isinstance(stmt.target, ast.Name)):
        return stmt.target.id
    return None


def _assign_value(node: CFGNode) -> ast.expr | None:
    stmt = node.stmt
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        return stmt.value
    return None


class _FlowChecker(Checker):
    """Shared driver: build a CFG per function and run an analysis."""

    def run(self):  # type: ignore[override]
        for func, cfg in iter_function_cfgs(self.source.tree):
            self.check_function(func, cfg)
        return self.violations

    def check_function(self, func: ast.AST, cfg: CFG) -> None:
        raise NotImplementedError


# -- RPL110/111: rng-stream-flow ---------------------------------------


class _StreamAnalysis(ForwardAnalysis):
    """Facts:

    - ``("s", var, "fresh"|"shipped", line)`` — ``var`` holds an RNG
      stream; ``shipped`` once it crossed a worker boundary at ``line``;
    - ``("d", argrepr, line)`` — a stream was derived from these exact
      constructor arguments at ``line``.
    """

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.flags: list[tuple[ast.Call, str, str]] = []
        self._seen: set[tuple[int, str]] = set()

    def _flag_once(self, call: ast.Call, code: str, message: str) -> None:
        key = (call.lineno, code)
        if key not in self._seen:
            self._seen.add(key)
            self.flags.append((call, code, message))

    def transfer(self, node: CFGNode, facts):  # type: ignore[override]
        out = set(facts)
        for name in _kills(node):
            out -= {f for f in out if f[0] == "s" and f[1] == name}

        for call in _calls(node):
            chain = _chain(call.func)
            if chain is None:
                continue
            tail = chain.split(".")[-1]

            if (tail in self.config.rng_stream_constructors
                    and (call.args or call.keywords)):
                argrepr = ast.unparse(ast.Tuple(
                    elts=list(call.args), ctx=ast.Load()))
                for fact in facts:
                    if (fact[0] == "d" and fact[1] == argrepr
                            and fact[2] != call.lineno):
                        self._flag_once(
                            call, "RPL111",
                            f"stream derived twice from the same arguments "
                            f"{argrepr} on one path (first at line "
                            f"{fact[2]}): the two generators emit "
                            f"identical values")
                out.add(("d", argrepr, call.lineno))
                target = _simple_assign_target(node)
                if target is not None and _assign_value(node) is call:
                    out.add(("s", target, "fresh", call.lineno))
                continue

            if tail in self.config.worker_submit_calls:
                for name in _arg_names(call):
                    for fact in list(out):
                        if fact[0] == "s" and fact[1] == name:
                            out.discard(fact)
                            out.add(("s", name, "shipped", call.lineno))

            if "." in chain and tail in self.config.rng_draw_methods:
                owner = chain.rsplit(".", 1)[0]
                for fact in facts:
                    if (fact[0] == "s" and fact[1] == owner
                            and fact[2] == "shipped"):
                        self._flag_once(
                            call, "RPL110",
                            f"stream '{owner}' was shipped to a worker "
                            f"(pickled at line {fact[3]}) and is drawn "
                            f"from again in the parent: parent and worker "
                            f"now draw identical values")
        return frozenset(out)


@register_checker
class RngStreamFlowChecker(_FlowChecker):
    """RNG streams across worker boundaries and duplicate derivations."""

    name = "rng-stream-flow"
    codes = {
        "RPL110": "stream drawn from after crossing a worker boundary",
        "RPL111": "stream derived twice from the same seed on one path",
    }

    def check_function(self, func: ast.AST, cfg: CFG) -> None:
        analysis = _StreamAnalysis(self.config)
        run_forward(cfg, analysis)
        for call, code, message in analysis.flags:
            self.flag(call, code, message)


# -- RPL310/311: atomic-write ------------------------------------------

_TMP_MARKERS = (".tmp", ".partial")


def _is_write_open(call: ast.Call) -> bool:
    chain = _chain(call.func)
    if chain is None or chain.split(".")[-1] != "open":
        return False
    mode = None
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant):
        mode = call.args[1].value
    for kw in call.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            mode = kw.value.value
    if mode is None:
        # builtin open() defaults to read; ``tmp.open()`` without a mode
        # does too.
        return False
    return isinstance(mode, str) and any(c in mode for c in "wax+")


def _open_path_repr(call: ast.Call) -> str | None:
    chain = _chain(call.func)
    if chain is not None and "." in chain:
        # ``tmp.open("wb")`` — the receiver is the path, and the first
        # positional argument is the *mode*, not the file.
        return chain.rsplit(".", 1)[0]
    if call.args:
        return ast.unparse(call.args[0])
    for kw in call.keywords:
        if kw.arg in ("file", "path"):
            return ast.unparse(kw.value)
    return None


def _tmpish(expr: ast.expr) -> bool:
    """Heuristic: does this expression build a temp-file path?"""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if any(marker in sub.value for marker in _TMP_MARKERS):
                return True
        if isinstance(sub, ast.Call):
            chain = _chain(sub.func)
            tail = chain.split(".")[-1] if chain else ""
            if tail in ("mkstemp", "NamedTemporaryFile", "mktemp"):
                return True
    return False


class _AtomicWriteAnalysis(ForwardAnalysis):
    """Facts:

    - ``("w", var, pathrepr, state, line)`` — handle ``var`` writes
      ``pathrepr``; state walks open -> flushed -> fsynced;
    - ``("t", var, state, line)`` — ``var`` is a temp path; state is
      ``clean`` (nothing on disk yet) or ``dirty`` (written to).
    """

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.replace_flags: list[tuple[ast.Call, str, int]] = []
        self._seen: set[tuple[int, str]] = set()

    @staticmethod
    def _upgrade(out: set, var: str, from_states: tuple[str, ...],
                 to_state: str) -> None:
        for fact in list(out):
            if fact[0] == "w" and fact[1] == var and fact[3] in from_states:
                out.discard(fact)
                out.add(("w", fact[1], fact[2], to_state, fact[4]))

    def transfer(self, node: CFGNode, facts):  # type: ignore[override]
        stmt = node.stmt
        out = set(facts)

        for name in _kills(node):
            # reassignment drops handle facts; temp-path facts persist
            # until cleaned (rebinding the *variable* doesn't delete the
            # file) unless regenerated below.
            out -= {f for f in out if f[0] == "w" and f[1] == name}

        target = _simple_assign_target(node)
        value = _assign_value(node)
        if target is not None and value is not None and _tmpish(value):
            out -= {f for f in out if f[0] == "t" and f[1] == target}
            out.add(("t", target, "clean", stmt.lineno))

        # ``with open(tmp, "wb") as fh:`` binds at the with header
        if node.kind == "with":
            assert isinstance(stmt, (ast.With, ast.AsyncWith))
            for item in stmt.items:
                if (isinstance(item.context_expr, ast.Call)
                        and _is_write_open(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)):
                    out -= {f for f in out if f[0] == "w"
                            and f[1] == item.optional_vars.id}
                    out.add(("w", item.optional_vars.id,
                             _open_path_repr(item.context_expr) or "?",
                             "open", stmt.lineno))

        for call in _calls(node):
            chain = _chain(call.func)
            if chain is None:
                continue
            tail = chain.split(".")[-1]

            if _is_write_open(call):
                if target is not None and value is call:
                    out.add(("w", target, _open_path_repr(call) or "?",
                             "open", stmt.lineno))
                self._mark_dirty(out, call)
            elif tail == "flush" and "." in chain:
                self._upgrade(out, chain.rsplit(".", 1)[0],
                              ("open",), "flushed")
            elif tail == "fsync":
                # os.fsync(fh.fileno()); fsync *without* a prior flush
                # syncs a part-buffered file, so "open" does not upgrade
                # and the replace site still flags.
                for name in _arg_names(call):
                    self._upgrade(out, name, ("flushed",), "fsynced")
            elif tail in ("replace", "rename") and chain.startswith("os."):
                self._replace_site(out, call)
            elif tail in ("unlink", "remove"):
                cleaned = set(_arg_names(call))
                if "." in chain:  # tmp.unlink()
                    cleaned.add(chain.rsplit(".", 1)[0])
                out -= {f for f in out if f[0] == "t" and f[1] in cleaned}
            elif tail in ("replace", "rename") and "." in chain:
                # ``tmp.replace(final)`` — pathlib; only a *tracked* temp
                # path receiver counts, so ``str.replace`` stays quiet.
                receiver = chain.rsplit(".", 1)[0]
                if any(f[0] == "t" and f[1] == receiver for f in out):
                    self._replace_site(out, call, receiver=receiver)
            else:
                # any other call handed the temp path writes through it
                for name in _arg_names(call):
                    for fact in list(out):
                        if (fact[0] == "t" and fact[1] == name
                                and fact[2] == "clean"):
                            out.discard(fact)
                            out.add(("t", name, "dirty", fact[3]))
        return frozenset(out)

    @staticmethod
    def _mark_dirty(out: set, open_call: ast.Call) -> None:
        names = _arg_names(open_call)
        chain = _chain(open_call.func)
        if chain and "." in chain:
            names.add(chain.split(".")[0])
        for fact in list(out):
            if fact[0] == "t" and fact[1] in names and fact[2] == "clean":
                out.discard(fact)
                out.add(("t", fact[1], "dirty", fact[3]))

    def _replace_site(self, out: set, call: ast.Call,
                      receiver: str | None = None) -> None:
        src = receiver
        if src is None and call.args:
            src = ast.unparse(call.args[0])
        if src is None:
            return
        for fact in set(out):
            if fact[0] == "w" and fact[2] == src and fact[3] != "fsynced":
                key = (call.lineno, fact[3])
                if key not in self._seen:
                    self._seen.add(key)
                    self.replace_flags.append((call, fact[3], fact[4]))
        # a successful replace consumes the temp path
        out -= {f for f in out if f[0] == "t" and f[1] == src}


@register_checker
class AtomicWriteChecker(_FlowChecker):
    """The write-temp -> flush -> fsync -> rename protocol, checked
    path-by-path in the checkpoint/spill modules."""

    name = "atomic-write"
    codes = {
        "RPL310": "rename reachable without flush+fsync on some path",
        "RPL311": "temp file can leak: no try/finally cleanup",
    }

    def run(self):  # type: ignore[override]
        prefixes = self.config.atomic_write_module_prefixes
        module = self.source.module
        if not any(module == p or module.startswith(p + ".")
                   for p in prefixes):
            return self.violations
        return super().run()

    def check_function(self, func: ast.AST, cfg: CFG) -> None:
        analysis = _AtomicWriteAnalysis(self.config)
        results = run_forward(cfg, analysis)
        normal_preds, _exc_preds = cfg.preds()

        for call, state, open_line in analysis.replace_flags:
            detail = ("was never flushed" if state == "open"
                      else "was flushed but never fsynced")
            self.flag(call, "RPL310",
                      f"rename is reachable on a path where the handle "
                      f"opened at line {open_line} {detail}: a crash "
                      f"after the rename can publish a torn file")

        # RPL311: a dirty temp path is live where an unhandled exception
        # can end the function — at a call-bearing node with no
        # exceptional edge — or survives to the normal exit.
        leaks: set[tuple[str, int]] = set()
        exit_facts = ForwardAnalysis.join(
            results[p.index][1] for p in normal_preds[cfg.exit.index])
        for fact in exit_facts:
            if fact[0] == "t" and fact[2] == "dirty":
                leaks.add((fact[1], fact[3]))
        for node in cfg.nodes:
            if node.exc_succs or not _calls(node):
                continue
            for fact in results[node.index][0]:
                if fact[0] == "t" and fact[2] == "dirty":
                    leaks.add((fact[1], fact[3]))
        for var, line in sorted(leaks):
            self.flag(line, "RPL311",
                      f"temp file '{var}' (created at line {line}) can "
                      f"leak: an exception between write and rename "
                      f"escapes with no try/finally unlink")


# -- RPL320: resource-lifecycle ----------------------------------------


class _HandleAnalysis(ForwardAnalysis):
    """Facts: ``("h", var, line)`` — ``var`` holds an open handle the
    function is responsible for closing."""

    #: method calls that end a handle's lifetime
    _CLOSERS = frozenset({"close", "release", "terminate", "shutdown"})

    def transfer(self, node: CFGNode, facts):  # type: ignore[override]
        out = set(facts)

        if node.kind == "with_end":
            stmt = node.stmt
            assert isinstance(stmt, (ast.With, ast.AsyncWith))
            managed: set[str] = set()
            for item in stmt.items:
                for sub in ast.walk(item.context_expr):
                    if isinstance(sub, ast.Name):
                        managed.add(sub.id)
                if isinstance(item.optional_vars, ast.Name):
                    managed.add(item.optional_vars.id)
            return frozenset(f for f in out
                             if not (f[0] == "h" and f[1] in managed))

        for name in _kills(node):
            out -= {f for f in out if f[0] == "h" and f[1] == name}

        closed: set[str] = set()
        for call in _calls(node):
            chain = _chain(call.func)
            if (chain and "." in chain
                    and chain.split(".")[-1] in self._CLOSERS):
                closed.add(chain.rsplit(".", 1)[0])
        escaped = _escaping_names(node)
        out = {f for f in out
               if not (f[0] == "h" and (f[1] in closed or f[1] in escaped))}

        target = _simple_assign_target(node)
        value = _assign_value(node)
        if target is not None and isinstance(value, ast.Call):
            chain = _chain(value.func)
            if chain is not None and chain.split(".")[-1] == "open":
                out.add(("h", target, node.stmt.lineno))
        return frozenset(out)


def _escaping_names(node: CFGNode) -> set[str]:
    """Names whose value leaves the function's responsibility at this
    node: returned, yielded, passed as a call argument, aliased, or
    stored into a container/attribute."""
    escaped: set[str] = set()
    fragments = node_fragments(node)
    attr_bases: set[int] = set()
    for frag in fragments:
        for sub in ast.walk(frag):
            if (isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)):
                attr_bases.add(id(sub.value))

    def value_names(expr: ast.AST | None) -> None:
        if expr is None:
            return
        for sub in ast.walk(expr):
            if (isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
                    and id(sub) not in attr_bases):
                escaped.add(sub.id)

    for frag in fragments:
        for sub in ast.walk(frag):
            if isinstance(sub, ast.Call):
                for arg in list(sub.args) + [k.value for k in sub.keywords]:
                    value_names(arg)
            elif isinstance(sub, (ast.Yield, ast.YieldFrom, ast.Await)):
                value_names(sub.value)

    stmt = node.stmt
    if isinstance(stmt, ast.Return) and node.kind == "return":
        value_names(stmt.value)
    elif isinstance(stmt, ast.Assign) and node.kind == "stmt":
        if not isinstance(stmt.value, (ast.Call, ast.Attribute)):
            value_names(stmt.value)  # aliasing / packing into containers
        if any(not isinstance(t, ast.Name) for t in stmt.targets):
            value_names(stmt.value)  # stored into attribute / subscript
    return escaped


@register_checker
class ResourceLifecycleChecker(_FlowChecker):
    """Handles must be closed on every path (or managed by ``with``)."""

    name = "resource-lifecycle"
    codes = {"RPL320": "handle not closed on all paths"}

    def check_function(self, func: ast.AST, cfg: CFG) -> None:
        results = run_forward(cfg, _HandleAnalysis())
        normal_preds, _exc_preds = cfg.preds()
        # only *normal* exits count: an unhandled exception unwinding a
        # function leaks everything by definition, and flagging that
        # would damn every correct ``finally: fh.close()``, whose own
        # exceptional edge necessarily precedes the close.
        exit_facts = ForwardAnalysis.join(
            results[p.index][1] for p in normal_preds[cfg.exit.index])
        flagged: set[tuple[str, int]] = set()
        for fact in sorted(exit_facts):
            if fact[0] == "h" and (fact[1], fact[2]) not in flagged:
                flagged.add((fact[1], fact[2]))
                self.flag(fact[2], "RPL320",
                          f"handle '{fact[1]}' opened here is not closed "
                          f"on every path: wrap it in `with` or close it "
                          f"in a finally block")
