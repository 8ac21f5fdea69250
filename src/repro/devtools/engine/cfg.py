"""Intraprocedural control-flow graphs for the reprolint engine.

One :class:`CFGNode` per simple statement or compound-statement header,
a synthetic entry/exit pair, and two edge kinds:

- **normal** edges (``succs``) carry a statement's *out* facts;
- **exceptional** edges (``exc_succs``) model an exception escaping the
  statement and carry its *in* facts (the statement may not have
  completed).  They are wired from every node inside a ``try`` body to
  the handlers (and to the ``finally`` escape chain), and from explicit
  ``raise`` statements.

Abrupt exits (``return``/``break``/``continue``/``raise``) route
through fresh *copies* of every pending ``finally`` body, the same way
the bytecode compiler duplicates them — so a ``finally`` that closes a
handle is visible on the early-``return`` path, not just the normal
one.  ``with`` bodies end in a synthetic ``with_end`` node where
context managers release their resources.

Comprehensions are expressions and stay inside their statement's node;
their targets do not bind in the enclosing scope (Python 3 semantics),
which the checkers rely on when killing facts by assigned name.
"""

from __future__ import annotations

import ast
from typing import Iterator

__all__ = ["CFG", "CFGNode", "build_cfg", "iter_function_cfgs",
           "assigned_names", "node_fragments", "FunctionLike"]

#: AST types whose body makes a standalone CFG.
FunctionLike = (ast.FunctionDef, ast.AsyncFunctionDef)

_LOOPS = (ast.For, ast.AsyncFor, ast.While)


class CFGNode:
    """One control-flow node: a statement (or header) plus its edges."""

    __slots__ = ("index", "stmt", "kind", "succs", "exc_succs")

    def __init__(self, index: int, stmt: ast.AST | None, kind: str) -> None:
        self.index = index
        self.stmt = stmt
        self.kind = kind
        self.succs: list[CFGNode] = []
        self.exc_succs: list[CFGNode] = []

    @property
    def line(self) -> int:
        return getattr(self.stmt, "lineno", 0)

    def label(self) -> str:
        """Short description for tests and debug dumps."""
        if self.stmt is None:
            return self.kind
        text = ast.unparse(self.stmt).splitlines()[0]
        return f"{self.kind}:{text[:48]}"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CFGNode {self.index} {self.label()}>"


class CFG:
    """A built control-flow graph with entry/exit and pred maps."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.entry = self.new_node(None, "entry")
        self.exit = self.new_node(None, "exit")

    def new_node(self, stmt: ast.AST | None, kind: str) -> CFGNode:
        node = CFGNode(len(self.nodes), stmt, kind)
        self.nodes.append(node)
        return node

    def preds(self) -> tuple[dict[int, list[CFGNode]],
                             dict[int, list[CFGNode]]]:
        """``(normal_preds, exceptional_preds)`` keyed by node index."""
        normal: dict[int, list[CFGNode]] = {n.index: [] for n in self.nodes}
        exceptional: dict[int, list[CFGNode]] = {n.index: []
                                                 for n in self.nodes}
        for node in self.nodes:
            for succ in node.succs:
                normal[succ.index].append(node)
            for succ in node.exc_succs:
                exceptional[succ.index].append(node)
        return normal, exceptional


class _Loop:
    """Per-loop frame: break collectors and the continue target."""

    __slots__ = ("breaks", "head", "finally_depth")

    def __init__(self, head: CFGNode, finally_depth: int) -> None:
        self.breaks: list[CFGNode] = []
        self.head = head
        self.finally_depth = finally_depth


class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        self.loops: list[_Loop] = []
        #: Pending ``finally`` bodies, outermost first.
        self.finallys: list[list[ast.stmt]] = []
        #: Targets an escaping exception flows to at the current point.
        self.exc_targets: list[list[CFGNode]] = []

    # -- plumbing ------------------------------------------------------

    def _new(self, stmt: ast.AST | None, kind: str) -> CFGNode:
        node = self.cfg.new_node(stmt, kind)
        if self.exc_targets and kind not in ("except", "with_end",
                                             "finally"):
            for target in self.exc_targets[-1]:
                node.exc_succs.append(target)
        return node

    @staticmethod
    def _link(preds: list[CFGNode], node: CFGNode) -> None:
        for pred in preds:
            if node not in pred.succs:
                pred.succs.append(node)

    def _link_many(self, preds: list[CFGNode],
                   targets: list[CFGNode]) -> None:
        for target in targets:
            self._link(preds, target)

    # -- statement dispatch --------------------------------------------

    def build(self, body: list[ast.stmt]) -> CFG:
        exits = self._stmts(body, [self.cfg.entry])
        self._link(exits, self.cfg.exit)
        return self.cfg

    def _stmts(self, stmts: list[ast.stmt],
               preds: list[CFGNode]) -> list[CFGNode]:
        for stmt in stmts:
            preds = self._stmt(stmt, preds)
        return preds

    def _stmt(self, stmt: ast.stmt,
              preds: list[CFGNode]) -> list[CFGNode]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds)
        if isinstance(stmt, _LOOPS):
            return self._loop(stmt, preds)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds)
        if isinstance(stmt, ast.Return):
            node = self._new(stmt, "return")
            self._link(preds, node)
            tail = self._copy_finallys(node, stop_depth=0)
            self._link(tail, self.cfg.exit)
            return []
        if isinstance(stmt, ast.Raise):
            return self._raise(stmt, preds)
        if isinstance(stmt, ast.Break) and self.loops:
            loop = self.loops[-1]
            node = self._new(stmt, "break")
            self._link(preds, node)
            loop.breaks.extend(self._copy_finallys(node, loop.finally_depth))
            return []
        if isinstance(stmt, ast.Continue) and self.loops:
            loop = self.loops[-1]
            node = self._new(stmt, "continue")
            self._link(preds, node)
            tail = self._copy_finallys(node, loop.finally_depth)
            self._link(tail, loop.head)
            return []
        node = self._new(stmt, "stmt")
        self._link(preds, node)
        return [node]

    # -- compound forms ------------------------------------------------

    def _if(self, stmt: ast.If, preds: list[CFGNode]) -> list[CFGNode]:
        head = self._new(stmt, "branch")
        self._link(preds, head)
        then_exits = self._stmts(stmt.body, [head])
        if stmt.orelse:
            else_exits = self._stmts(stmt.orelse, [head])
            return then_exits + else_exits
        return then_exits + [head]

    def _loop(self, stmt: ast.For | ast.AsyncFor | ast.While,
              preds: list[CFGNode]) -> list[CFGNode]:
        head = self._new(stmt, "loop")
        self._link(preds, head)
        frame = _Loop(head, len(self.finallys))
        self.loops.append(frame)
        body_exits = self._stmts(stmt.body, [head])
        self._link(body_exits, head)
        self.loops.pop()
        # Exhaustion runs ``else``; ``break`` skips it.
        after = (self._stmts(stmt.orelse, [head]) if stmt.orelse
                 else [head])
        return after + frame.breaks

    def _with(self, stmt: ast.With | ast.AsyncWith,
              preds: list[CFGNode]) -> list[CFGNode]:
        head = self._new(stmt, "with")
        self._link(preds, head)
        body_exits = self._stmts(stmt.body, [head])
        end = self._new(stmt, "with_end")
        self._link(body_exits, end)
        return [end]

    def _match(self, stmt: ast.Match, preds: list[CFGNode]) -> list[CFGNode]:
        head = self._new(stmt, "branch")
        self._link(preds, head)
        exits: list[CFGNode] = []
        has_wildcard = False
        for case in stmt.cases:
            exits.extend(self._stmts(case.body, [head]))
            if (isinstance(case.pattern, ast.MatchAs)
                    and case.pattern.pattern is None and case.guard is None):
                has_wildcard = True
        if not has_wildcard:
            exits.append(head)
        return exits

    def _try(self, stmt: ast.Try, preds: list[CFGNode]) -> list[CFGNode]:
        head = self._new(stmt, "try")
        self._link(preds, head)
        outer = (self.exc_targets[-1] if self.exc_targets
                 else [self.cfg.exit])
        handler_heads = [self._new(h, "except") for h in stmt.handlers]

        # Escape chain: an exception no handler catches still runs the
        # finally body (a fresh copy, entered at a marker node) before
        # propagating outward.
        if stmt.finalbody:
            escape_head = self._new(stmt, "finally")
            self.exc_targets.append(list(outer))
            escape_exits = self._stmts(stmt.finalbody, [escape_head])
            self.exc_targets.pop()
            self._link_many(escape_exits, outer)
            uncaught = [escape_head]
        else:
            uncaught = list(outer)

        if stmt.finalbody:
            self.finallys.append(stmt.finalbody)
        self.exc_targets.append(handler_heads + uncaught)
        body_exits = self._stmts(stmt.body, [head])
        self.exc_targets.pop()

        # ``else`` and handler bodies: exceptions there are not caught by
        # this try's handlers; they escape through the finally chain.
        self.exc_targets.append(uncaught)
        if stmt.orelse:
            body_exits = self._stmts(stmt.orelse, body_exits)
        handler_exits: list[CFGNode] = []
        for handler_head in handler_heads:
            handler = handler_head.stmt
            assert isinstance(handler, ast.ExceptHandler)
            handler_exits.extend(self._stmts(handler.body, [handler_head]))
        self.exc_targets.pop()
        if stmt.finalbody:
            self.finallys.pop()

        joins = body_exits + handler_exits
        if stmt.finalbody:
            return self._stmts(stmt.finalbody, joins)
        return joins

    # -- abrupt exits --------------------------------------------------

    def _copy_finallys(self, node: CFGNode,
                       stop_depth: int) -> list[CFGNode]:
        """Chain fresh copies of pending finally bodies after ``node``,
        innermost first, down to (not including) ``stop_depth``; returns
        the chain's dangling tail."""
        preds = [node]
        for depth in range(len(self.finallys) - 1, stop_depth - 1, -1):
            saved = self.finallys
            self.finallys = saved[:depth]
            preds = self._stmts(saved[depth], preds)
            self.finallys = saved
        return preds

    def _raise(self, stmt: ast.Raise,
               preds: list[CFGNode]) -> list[CFGNode]:
        node = self._new(stmt, "raise")
        self._link(preds, node)
        if self.exc_targets:
            for target in self.exc_targets[-1]:
                if target not in node.exc_succs:
                    node.exc_succs.append(target)
        else:
            # Outside any try: run pending finally copies, then exit.
            tail = self._copy_finallys(node, stop_depth=0)
            for target in ([self.cfg.exit] if tail == [node] else []):
                node.exc_succs.append(target)
            if tail != [node]:
                self._link(tail, self.cfg.exit)
        if self.exc_targets and not node.exc_succs:
            node.exc_succs.append(self.cfg.exit)
        return []


def build_cfg(func: ast.AST | list[ast.stmt]) -> CFG:
    """Build the CFG for a function, module, or raw statement list."""
    if isinstance(func, FunctionLike):
        body = func.body
    elif isinstance(func, ast.Module):
        body = func.body
    elif isinstance(func, list):
        body = func
    else:
        raise TypeError(f"cannot build a CFG for {type(func).__name__}")
    return _Builder().build(body)


def iter_function_cfgs(tree: ast.Module) -> Iterator[tuple[ast.AST, CFG]]:
    """Yield ``(function_node, cfg)`` for every def in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, FunctionLike):
            yield node, build_cfg(node)


def node_fragments(node: CFGNode) -> list[ast.AST]:
    """The AST fragments a node actually *evaluates*.

    A compound statement's header node must not transfer over its whole
    subtree — ``ast.walk`` on an ``ast.Try`` would see the finally body
    at the try head, killing facts before the body even runs.  So a
    ``branch`` node evaluates only its test, a ``loop`` node its
    iterable/condition, a ``with`` node its context expressions, and
    structural nodes (``try``/``finally``/``with_end``/``except``
    headers) evaluate nothing beyond what the kind implies.
    """
    stmt = node.stmt
    if stmt is None:
        return []
    kind = node.kind
    if kind == "branch":
        if isinstance(stmt, ast.If):
            return [stmt.test]
        if isinstance(stmt, ast.Match):
            return [stmt.subject]
        return []
    if kind == "loop":
        if isinstance(stmt, ast.While):
            return [stmt.test]
        assert isinstance(stmt, (ast.For, ast.AsyncFor))
        return [stmt.iter, stmt.target]
    if kind == "with":
        assert isinstance(stmt, (ast.With, ast.AsyncWith))
        out: list[ast.AST] = [item.context_expr for item in stmt.items]
        out += [item.optional_vars for item in stmt.items
                if item.optional_vars is not None]
        return out
    if kind in ("try", "finally", "with_end"):
        return []
    if kind == "except":
        assert isinstance(stmt, ast.ExceptHandler)
        return [stmt.type] if stmt.type is not None else []
    return [stmt]


def assigned_names(stmt: ast.AST) -> set[str]:
    """Names (re)bound by a statement — assignment targets, loop
    targets, ``with ... as`` names, aug/ann assigns, imports, defs.

    Comprehension targets are deliberately excluded: they live in the
    comprehension's own scope and do not rebind the enclosing name.
    """
    names: set[str] = set()

    def targets_of(target: ast.AST) -> None:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Name):
                names.add(sub.id)

    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            targets_of(target)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets_of(stmt.target)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        targets_of(stmt.target)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                targets_of(item.optional_vars)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            names.add(alias.asname or alias.name.split(".")[0])
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                           ast.ClassDef)):
        names.add(stmt.name)
    return names
