"""Recognizing algorithm *programs* and the paper's op vocabulary in source.

A program, throughout this repo, is a Python generator that yields
:class:`repro.sim.ops.Op` objects — the only channel through which an
algorithm may touch shared memory or consume time.  The analyzer must
decide, from syntax alone, (a) which generator functions are programs
(``mutex_session``, ``entry``, ``propose``, …) as opposed to ordinary
Python generators (``registers_in`` yields register names, not ops), and
(b) which yielded expressions construct ops.

A generator counts as a program when either

* its return annotation mentions ``Program`` (the repo-wide convention,
  :data:`repro.sim.process.Program`), or
* at least one of its own ``yield`` values is a recognizable op
  construction (see :func:`is_op_expression`).

Recognized op constructions mirror the idioms the codebase actually
uses::

    yield self.x.read()                  # Register.read / Register.write
    yield self.x[r, v].write(1)          # Array cells
    yield ops.delay(self.delta)          # module helpers
    yield ops.label(ops.DECIDED, d)
    yield compare_and_swap(reg, a, b)    # RMW helpers (TMF002 polices where)
    yield Write(reg, v)                  # raw Op constructors
    op = reg.read(); yield op            # op bound to a local first
    yield a.read() if fast else b.read() # conditional between ops

``yield from`` always delegates to a sub-program and is accepted
whenever its operand is a call or a name.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import List, Optional, Set, Union

__all__ = [
    "OP_HELPERS",
    "OP_CLASSES",
    "RMW_NAMES",
    "DELAY_NAMES",
    "MESSAGE_HELPERS",
    "MESSAGE_CLASSES",
    "MESSAGE_NAMES",
    "ProgramInfo",
    "find_programs",
    "terminal_name",
    "is_op_expression",
]

#: Message-op constructor helpers from :mod:`repro.sim.ops` (the
#: :mod:`repro.net` substrate's vocabulary; TMF002 polices where they
#: may appear).
MESSAGE_HELPERS: Set[str] = {
    "send",
    "recv",
    "broadcast",
}

#: The raw message Op dataclasses.
MESSAGE_CLASSES: Set[str] = {
    "Send",
    "Recv",
    "Broadcast",
}

#: Every message-primitive name, helper or class.
MESSAGE_NAMES: Set[str] = MESSAGE_HELPERS | MESSAGE_CLASSES

#: Lower-case op constructor helpers from :mod:`repro.sim.ops` (plus the
#: ``Register.read`` / ``Register.write`` handle methods, matched by the
#: same names as attribute calls).
OP_HELPERS: Set[str] = {
    "read",
    "write",
    "delay",
    "nap",
    "local_work",
    "label",
    "compare_and_swap",
    "fetch_and_add",
    "get_and_set",
} | MESSAGE_HELPERS

#: The raw Op dataclasses, accepted when constructed directly.
OP_CLASSES: Set[str] = {
    "Read",
    "Write",
    "Delay",
    "Nap",
    "LocalWork",
    "Label",
    "ReadModifyWrite",
} | MESSAGE_CLASSES

#: Names whose presence TMF002 flags in registers-only modules.
RMW_NAMES: Set[str] = {
    "ReadModifyWrite",
    "compare_and_swap",
    "fetch_and_add",
    "get_and_set",
}

#: The ``delay(d)`` statement under all its names: a ``nap`` is a
#: ``Delay`` (the polling pause), so the flow analysis and TMF005 treat
#: the two alike.
DELAY_NAMES: Set[str] = {"delay", "Delay", "nap", "Nap"}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def terminal_name(node: ast.AST) -> Optional[str]:
    """The rightmost identifier of a name/attribute chain.

    ``ops.delay`` -> ``"delay"``; ``self.x.read`` -> ``"read"``;
    ``delay`` -> ``"delay"``; anything else -> ``None``.
    """
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost identifier of a name/attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.value if not isinstance(node, ast.Call) else node.func
    if isinstance(node, ast.Name):
        return node.id
    return None


def is_op_expression(node: ast.AST, local_op_names: Optional[Set[str]] = None) -> bool:
    """True when ``node`` syntactically constructs an op (see module doc)."""
    if isinstance(node, ast.IfExp):
        return is_op_expression(node.body, local_op_names) and is_op_expression(
            node.orelse, local_op_names
        )
    if isinstance(node, ast.Name):
        return local_op_names is not None and node.id in local_op_names
    if not isinstance(node, ast.Call):
        return False
    name = terminal_name(node.func)
    if name is None:
        return False
    return name in OP_HELPERS or name in OP_CLASSES


@dataclass
class ProgramInfo:
    """One generator function, with its own-scope yields precollected.

    ``yields``/``yield_froms`` exclude anything inside nested functions or
    lambdas — those are separate scopes with their own classification.
    ``op_locals`` holds local names bound directly to op constructions
    (``op = reg.read()``), which yield-discipline accepts when yielded.
    """

    node: FunctionNode
    qualname: str
    is_program: bool = False
    yields: List[ast.Yield] = field(default_factory=list)
    yield_froms: List[ast.YieldFrom] = field(default_factory=list)
    op_locals: Set[str] = field(default_factory=set)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def pid_param(self) -> Optional[str]:
        """The parameter naming the process id, when the convention holds.

        Programs in this repo pass the process id as a parameter literally
        named ``pid`` (``entry(self, pid)``, ``propose(self, pid, value)``);
        the single-writer rules key on it.
        """
        for arg in self.node.args.args:
            if arg.arg == "pid":
                return arg.arg
        return None

    def is_own_pid(self, expr: ast.expr) -> bool:
        """True when ``expr`` is this program's own process id.

        That is its ``pid`` parameter or the conventional ``self.pid``.
        """
        if isinstance(expr, ast.Name):
            return expr.id == self.pid_param
        return (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
            and expr.attr == "pid"
        )

    def own_statements(self) -> List[ast.stmt]:
        """Every statement in this function, excluding nested scopes."""
        out: List[ast.stmt] = []
        stack: List[ast.stmt] = list(self.node.body)
        while stack:
            stmt = stack.pop()
            out.append(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            stack.extend(_child_statements(stmt))
        return out

    def own_nodes(self) -> List[ast.AST]:
        """Every AST node in this function, excluding nested scopes.

        Unlike iterating :meth:`own_statements` and ``ast.walk``-ing each
        (which would visit a nested statement's expressions twice — once
        under its parent, once under itself), each node appears exactly
        once.
        """
        out: List[ast.AST] = []
        stack: List[ast.AST] = list(self.node.body)
        while stack:
            node = stack.pop()
            out.append(node)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))
        return out


def _child_statements(stmt: ast.stmt) -> List[ast.stmt]:
    """Direct child statements of ``stmt``, crossing handler/case wrappers.

    ``ExceptHandler`` and ``match_case`` are not themselves statements, so
    a plain ``iter_child_nodes`` filter would skip the statements inside
    ``except:`` blocks and ``case:`` arms; expressions can never contain
    statements, so nothing else needs unwrapping.
    """
    out: List[ast.stmt] = []
    for child in ast.iter_child_nodes(stmt):
        if isinstance(child, ast.stmt):
            out.append(child)
        elif isinstance(child, ast.excepthandler):
            out.extend(child.body)
        elif child.__class__.__name__ == "match_case":  # Python >= 3.10
            out.extend(child.body)  # type: ignore[attr-defined]
    return out


class _YieldCollector(ast.NodeVisitor):
    """Collects yields belonging to one function scope only."""

    def __init__(self) -> None:
        self.yields: List[ast.Yield] = []
        self.yield_froms: List[ast.YieldFrom] = []
        self.op_locals: Set[str] = set()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope: do not descend

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Lambda(self, node: ast.Lambda) -> None:
        pass

    def visit_Yield(self, node: ast.Yield) -> None:
        self.yields.append(node)
        self.generic_visit(node)

    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        self.yield_froms.append(node)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._bind(target, node.value)
        self.generic_visit(node)

    def _bind(self, target: ast.expr, value: ast.expr) -> None:
        """Record op-valued bindings, through tuple unpacking too.

        ``a, b = reg.read(), reg.write(1)`` binds both names to ops when
        target and value are same-length tuples, matched pairwise.
        """
        if isinstance(target, ast.Name):
            if is_op_expression(value):
                self.op_locals.add(target.id)
        elif (
            isinstance(target, (ast.Tuple, ast.List))
            and isinstance(value, (ast.Tuple, ast.List))
            and len(target.elts) == len(value.elts)
        ):
            for sub_target, sub_value in zip(target.elts, value.elts):
                self._bind(sub_target, sub_value)


def _annotation_mentions_program(node: FunctionNode) -> bool:
    returns = node.returns
    if returns is None:
        return False
    if isinstance(returns, ast.Constant) and isinstance(returns.value, str):
        return "Program" in returns.value
    for sub in ast.walk(returns):
        if terminal_name(sub) == "Program":
            return True
    return False


def find_programs(tree: ast.Module) -> List[ProgramInfo]:
    """Every generator function in ``tree``, classified program-or-not.

    The result covers *all* generators (the dead-code rule applies to any
    generator); rules that only make sense for model programs filter on
    :attr:`ProgramInfo.is_program`.
    """
    programs: List[ProgramInfo] = []
    parents: List[str] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                collector = _YieldCollector()
                for stmt in child.body:
                    collector.visit(stmt)
                qualname = ".".join(parents + [child.name])
                if collector.yields or collector.yield_froms:
                    info = ProgramInfo(
                        node=child,
                        qualname=qualname,
                        yields=collector.yields,
                        yield_froms=collector.yield_froms,
                        op_locals=collector.op_locals,
                    )
                    info.is_program = _annotation_mentions_program(child) or any(
                        y.value is not None and is_op_expression(y.value)
                        for y in collector.yields
                    )
                    programs.append(info)
                parents.append(child.name)
                visit(child)
                parents.pop()
            elif isinstance(child, ast.ClassDef):
                parents.append(child.name)
                visit(child)
                parents.pop()
            else:
                visit(child)

    visit(tree)
    return programs
