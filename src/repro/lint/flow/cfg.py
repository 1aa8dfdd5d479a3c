"""Per-program control-flow graphs over the yield-op DSL.

A :class:`Cfg` has one node per *statement* of one program body (nested
function scopes are separate programs with their own graphs, matching
:class:`~repro.lint.programs.ProgramInfo` scoping).  Each node carries
the yield expressions evaluated *by that statement itself* — the test of
a ``while``, the value of an ``Assign`` — never those of its child
statements, so every yield belongs to exactly one node.

Edges follow Python's structured control flow: ``if``/``while``/``for``
branch, ``break``/``continue`` jump to the innermost loop's follow/
header, ``return``/``raise`` jump to the virtual exit, ``try`` bodies
conservatively may enter any handler.  ``while True:`` (any constant
truthy test) gets no fall-through edge, which is what lets the analyzer
prove "this loop has no exit".

Loops are first-class: a :class:`LoopInfo` records the header, the body
node set, the break/return exits observed inside, and whether the loop
test itself is falsifiable — everything rule TMF101 and the xcheck
harness read off.

The graph is deliberately an *over*-approximation of reachability (it
never prunes an edge it cannot prove dead); downstream facts inherit
that direction, which is the sound one for "may write" / "may reach"
claims checked against dynamic traces.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..programs import (
    DELAY_NAMES,
    MESSAGE_HELPERS,
    ProgramInfo,
    RMW_NAMES,
    terminal_name,
)

__all__ = [
    "OpSite",
    "CfgNode",
    "LoopInfo",
    "Cfg",
    "build_cfg",
    "classify_yield",
]

# Op kinds an OpSite may carry (mirrors repro.sim.ops / repro.net).
OP_READ = "read"
OP_WRITE = "write"
OP_RMW = "rmw"
OP_DELAY = "delay"
OP_LOCAL = "local"
OP_LABEL = "label"
OP_SEND = "send"
OP_RECV = "recv"
OP_BROADCAST = "broadcast"
OP_DELEGATE = "delegate"  # yield from
OP_UNKNOWN = "unknown"  # op-bound local or unrecognized construction

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)

# Python-version-dependent statement kinds (3.10 match, 3.11 try*).
_MATCH = getattr(ast, "Match", None)
_TRY_NODES = tuple(
    t for t in (ast.Try, getattr(ast, "TryStar", None)) if t is not None
)


@dataclass
class OpSite:
    """One yield (or ``yield from``) site, classified.

    ``register`` is the *handle expression* of a shared-memory op
    (``self.x`` in ``yield self.x.read()``) — resolution to a creation-
    site leaf name happens in :mod:`repro.lint.flow.facts`, which owns
    the module's register table.  ``index`` is the subscript expression
    for array-cell accesses, ``argument`` the duration of a delay /
    payload of a label, and ``bound_to`` the local name the yielded
    value was assigned to (``v = yield reg.read()``).
    """

    kind: str
    node: ast.AST  # the Yield / YieldFrom
    lineno: int
    col: int
    register: Optional[ast.expr] = None
    index: Optional[ast.expr] = None
    argument: Optional[ast.expr] = None
    call: Optional[ast.Call] = None  # delegation call, for arg substitution
    bound_to: Optional[str] = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        reg = f" {ast.unparse(self.register)}" if self.register is not None else ""
        return f"<OpSite {self.kind}{reg} @{self.lineno}>"


@dataclass
class CfgNode:
    """One statement of the program body."""

    index: int
    stmt: Optional[ast.stmt]  # None for the virtual entry/exit nodes
    succs: List[int] = field(default_factory=list)
    ops: List[OpSite] = field(default_factory=list)

    @property
    def lineno(self) -> int:
        return self.stmt.lineno if self.stmt is not None else 0

    def link(self, other: int) -> None:
        if other not in self.succs:
            self.succs.append(other)


@dataclass
class LoopInfo:
    """One ``while``/``for`` loop of the program, with its exit anatomy."""

    stmt: ast.stmt
    header: int
    body: Set[int] = field(default_factory=set)
    #: Conditions guarding each break/return exit: the tests of the
    #: ``if`` statements (innermost-out, within the loop) enclosing it.
    exit_guards: List[List[ast.expr]] = field(default_factory=list)
    has_break: bool = False
    has_return: bool = False

    @property
    def lineno(self) -> int:
        return self.stmt.lineno

    @property
    def is_for(self) -> bool:
        return isinstance(self.stmt, (ast.For, ast.AsyncFor))

    @property
    def test(self) -> Optional[ast.expr]:
        return self.stmt.test if isinstance(self.stmt, ast.While) else None

    @property
    def test_falsifiable(self) -> bool:
        """True when the loop's own test can terminate it.

        ``for`` loops always exhaust their iterator; a ``while`` test
        terminates unless it is a constant truthy value.
        """
        if self.is_for:
            return True
        test = self.test
        if isinstance(test, ast.Constant):
            return not bool(test.value)
        return True

    @property
    def has_exit(self) -> bool:
        return self.has_break or self.has_return or self.test_falsifiable


class Cfg:
    """The control-flow graph of one program body."""

    def __init__(self, program: ProgramInfo) -> None:
        self.program = program
        self.nodes: List[CfgNode] = []
        self.entry = self._new(None)
        self.exit = self._new(None)
        self.loops: List[LoopInfo] = []
        self._build()

    # -- construction -------------------------------------------------------

    def _new(self, stmt: Optional[ast.stmt]) -> CfgNode:
        node = CfgNode(index=len(self.nodes), stmt=stmt)
        self.nodes.append(node)
        return node

    def _build(self) -> None:
        first = self._block(
            self.program.node.body, follow=self.exit.index, loops=[], guards=[]
        )
        self.entry.link(first)

    def _block(
        self,
        stmts: Sequence[ast.stmt],
        follow: int,
        loops: List[Tuple[LoopInfo, int]],
        guards: List[ast.expr],
    ) -> int:
        """Wire ``stmts`` in sequence, returning the entry node index.

        ``loops`` stacks (loop-info, loop-follow) for break/continue
        resolution; ``guards`` stacks the enclosing ``if`` tests inside
        the innermost loop, so exit sites know what condition released
        them.
        """
        if not stmts:
            return follow
        entry: Optional[int] = None
        nodes = [self._new(stmt) for stmt in stmts]
        for node, nxt in zip(nodes, nodes[1:] + [None]):
            after = nxt.index if nxt is not None else follow
            self._wire(node, after, loops, guards)
            if entry is None:
                entry = node.index
        return entry if entry is not None else follow

    def _wire(
        self,
        node: CfgNode,
        after: int,
        loops: List[Tuple[LoopInfo, int]],
        guards: List[ast.expr],
    ) -> None:
        stmt = node.stmt
        assert stmt is not None
        node.ops.extend(_own_op_sites(stmt))
        current_loop = loops[-1][0] if loops else None
        if current_loop is not None:
            current_loop.body.add(node.index)

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            info = LoopInfo(stmt=stmt, header=node.index)
            self.loops.append(info)
            body_entry = self._block(
                stmt.body, follow=node.index, loops=loops + [(info, after)], guards=[]
            )
            node.link(body_entry)
            # The else: block runs on normal exhaustion; both it and the
            # direct fall-through only exist when the test can fail.
            if info.test_falsifiable:
                if stmt.orelse:
                    node.link(self._block(stmt.orelse, after, loops, guards))
                else:
                    node.link(after)
        elif isinstance(stmt, ast.If):
            node.link(self._block(stmt.body, after, loops, guards + [stmt.test]))
            if stmt.orelse:
                node.link(
                    self._block(stmt.orelse, after, loops, guards + [stmt.test])
                )
            else:
                node.link(after)
        elif isinstance(stmt, _TRY_NODES):
            handler_entries = [
                self._block(h.body, after, loops, guards) for h in stmt.handlers
            ]
            final_follow = after
            if stmt.finalbody:
                final_follow = self._block(stmt.finalbody, after, loops, guards)
            else_follow = final_follow
            if stmt.orelse:
                else_follow = self._block(stmt.orelse, final_follow, loops, guards)
            body_entry = self._block(stmt.body, else_follow, loops, guards)
            node.link(body_entry)
            # Any statement of the body may raise into any handler; the
            # node-level approximation links the try itself to each.
            for entry in handler_entries:
                node.link(entry)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            node.link(self._block(stmt.body, after, loops, guards))
        elif _MATCH is not None and isinstance(stmt, _MATCH):
            for case in stmt.cases:
                node.link(self._block(case.body, after, loops, guards))
            node.link(after)  # no case may match
        elif isinstance(stmt, (ast.Return, ast.Raise)):
            node.link(self.exit.index)
            if current_loop is not None and isinstance(stmt, ast.Return):
                current_loop.has_return = True
                current_loop.exit_guards.append(list(guards))
        elif isinstance(stmt, ast.Break):
            if loops:
                info, loop_follow = loops[-1]
                info.has_break = True
                info.exit_guards.append(list(guards))
                node.link(loop_follow)
            else:  # pragma: no cover - break outside loop is a SyntaxError
                node.link(after)
        elif isinstance(stmt, ast.Continue):
            if loops:
                node.link(loops[-1][0].header)
            else:  # pragma: no cover - continue outside loop
                node.link(after)
        else:
            node.link(after)

    # -- queries ------------------------------------------------------------

    def reachable(self) -> Set[int]:
        """Node indices reachable from the entry."""
        seen: Set[int] = set()
        stack = [self.entry.index]
        while stack:
            idx = stack.pop()
            if idx in seen:
                continue
            seen.add(idx)
            stack.extend(self.nodes[idx].succs)
        return seen

    def op_sites(self, reachable_only: bool = True) -> List[OpSite]:
        """Every op site, in node order (optionally reachable ones only)."""
        keep = self.reachable() if reachable_only else None
        out: List[OpSite] = []
        for node in self.nodes:
            if keep is None or node.index in keep:
                out.extend(node.ops)
        return out

    def __len__(self) -> int:
        return len(self.nodes)


def build_cfg(program: ProgramInfo) -> Cfg:
    """Compile one program body to its control-flow graph."""
    return Cfg(program)


# ---------------------------------------------------------------------------
# Yield classification
# ---------------------------------------------------------------------------


def classify_yield(
    value: Optional[ast.AST],
    node: ast.AST,
    bound_to: Optional[str] = None,
) -> List[OpSite]:
    """Classify one yield value into op sites (IfExp yields produce two)."""
    lineno = getattr(node, "lineno", 0)
    col = getattr(node, "col_offset", 0)
    if value is None:
        return [OpSite(OP_UNKNOWN, node, lineno, col, bound_to=bound_to)]
    if isinstance(value, ast.IfExp):
        return classify_yield(value.body, node, bound_to) + classify_yield(
            value.orelse, node, bound_to
        )
    if not isinstance(value, ast.Call):
        return [OpSite(OP_UNKNOWN, node, lineno, col, bound_to=bound_to)]
    name = terminal_name(value.func)
    site = OpSite(
        OP_UNKNOWN, node, lineno, col, call=value, bound_to=bound_to
    )
    if name in ("read", "Read"):
        site.kind = OP_READ
        site.register, site.index = _handle_of(value, arg_pos=0, name=name)
    elif name in ("write", "Write"):
        site.kind = OP_WRITE
        site.register, site.index = _handle_of(value, arg_pos=0, name=name)
        site.argument = value.args[-1] if value.args else None
    elif name in RMW_NAMES:
        site.kind = OP_RMW
        site.register, site.index = _handle_of(value, arg_pos=0, name=name)
    elif name in DELAY_NAMES:
        site.kind = OP_DELAY
        site.argument = value.args[0] if value.args else None
    elif name in ("local_work", "LocalWork"):
        site.kind = OP_LOCAL
        site.argument = value.args[0] if value.args else None
    elif name in ("label", "Label"):
        site.kind = OP_LABEL
        site.argument = value.args[0] if value.args else None
    elif name in MESSAGE_HELPERS or name in ("Send", "Recv", "Broadcast"):
        site.kind = {
            "send": OP_SEND, "Send": OP_SEND,
            "recv": OP_RECV, "Recv": OP_RECV,
            "broadcast": OP_BROADCAST, "Broadcast": OP_BROADCAST,
        }[name]
    return [site]


def _handle_of(
    call: ast.Call, arg_pos: int, name: str
) -> Tuple[Optional[ast.expr], Optional[ast.expr]]:
    """The register handle (and array index) of a shared-memory op call.

    Method form ``self.x.read()`` / ``self.b[i].write(v)``: the handle is
    the attribute's value.  Constructor/helper form ``Write(reg, v)`` /
    ``compare_and_swap(reg, a, b)``: the handle is the first argument.
    """
    handle: Optional[ast.expr]
    if isinstance(call.func, ast.Attribute) and name[0].islower() and name in (
        "read",
        "write",
    ):
        handle = call.func.value
    elif call.args and len(call.args) > arg_pos:
        handle = call.args[arg_pos]
    else:
        return None, None
    if isinstance(handle, ast.Subscript):
        return handle, handle.slice
    return handle, None


def _own_op_sites(stmt: ast.stmt) -> List[OpSite]:
    """Op sites for the yields evaluated by ``stmt`` itself.

    Walks the statement's expression children only — child statements
    (and nested scopes) own their yields — so every yield in a program
    body lands on exactly one CFG node.
    """
    sites: List[OpSite] = []
    bound = _bound_name(stmt)
    for expr in _own_expressions(stmt):
        for sub in _walk_expr(expr):
            if isinstance(sub, ast.Yield):
                sites.extend(classify_yield(sub.value, sub, bound_to=bound))
            elif isinstance(sub, ast.YieldFrom):
                site = OpSite(
                    OP_DELEGATE,
                    sub,
                    sub.lineno,
                    sub.col_offset,
                    bound_to=bound,
                )
                if isinstance(sub.value, ast.Call):
                    site.call = sub.value
                    site.register = sub.value.func
                else:
                    site.register = sub.value if isinstance(
                        sub.value, (ast.Name, ast.Attribute)
                    ) else None
                sites.append(site)
    return sites


def _bound_name(stmt: ast.stmt) -> Optional[str]:
    """The simple name a statement assigns its value to, if any."""
    if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        target = stmt.targets[0]
        if isinstance(target, ast.Name):
            return target.id
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    return None


def _own_expressions(stmt: ast.stmt) -> List[ast.expr]:
    """The expression children evaluated by ``stmt`` itself."""
    out: List[ast.expr] = []
    for fname, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list) and value and isinstance(value[0], ast.expr):
            out.extend(value)
    return out


def _walk_expr(expr: ast.expr) -> List[ast.AST]:
    """Walk an expression without descending into nested scopes."""
    out: List[ast.AST] = []
    stack: List[ast.AST] = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        out.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return out
