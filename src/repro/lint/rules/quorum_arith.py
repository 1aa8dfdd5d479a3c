"""TMF103 — quorum arithmetic: reply thresholds that can miss majority.

The message-passing substrate (:mod:`repro.net`) emulates atomic
registers the ABD way: every operation waits for acknowledgements from a
*majority* of replicas, ``n // 2 + 1``, so any two quorums intersect.
The classic off-by-one — waiting for ``n // 2`` replies — silently
breaks the intersection property for every even ``n``, and nothing at
runtime notices: the protocol still terminates, still returns values,
and only loses linearizability under the right interleaving.

In ``# repro-lint: messages-only`` modules this rule flags:

1. assignments to quorum-ish names (containing ``majority``, ``quorum``
   or ``threshold``) whose value is a bare floor-half (``E // 2`` or
   ``E / 2``) with no ``+ 1``;
2. reply-count waits — a ``while len(acks) < T`` loop whose body yields
   a ``recv`` — where ``T`` is inline bare floor-half arithmetic;
3. with a declared replica count (``# repro-lint: quorum-n=K``), waits
   whose constant threshold is below ``K // 2 + 1``.

Suppress with ``# repro-lint: disable=TMF103`` (e.g. a deliberate
sub-majority read in a protocol that compensates elsewhere), keeping
the deviation greppable.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..programs import terminal_name
from ..registry import Rule, register
from ..flow import cfg as cfg_mod
from ..flow.facts import module_flow

__all__ = ["QuorumArithmeticRule"]

_QUORUM_NAMES = ("majority", "quorum", "threshold")


def _is_quorum_name(name: Optional[str]) -> bool:
    return name is not None and any(q in name.lower() for q in _QUORUM_NAMES)


def _is_floor_half(expr: ast.expr) -> bool:
    """``E // 2`` (or ``E / 2``) — half with no majority correction."""
    return (
        isinstance(expr, ast.BinOp)
        and isinstance(expr.op, (ast.FloorDiv, ast.Div))
        and isinstance(expr.right, ast.Constant)
        and expr.right.value == 2
    )


@register
class QuorumArithmeticRule(Rule):
    code = "TMF103"
    name = "quorum-arithmetic"
    severity = Severity.ERROR
    description = (
        "In messages-only modules, quorum thresholds must be proper "
        "majorities: `n // 2` waits miss quorum intersection for even n. "
        "Declare n with `# repro-lint: quorum-n=K` to check constants."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.messages_only:
            return
        yield from self._check_assignments(ctx)
        yield from self._check_waits(ctx)

    def _check_assignments(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if value is None or not _is_floor_half(value):
                continue
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                name = terminal_name(target)
                if _is_quorum_name(name):
                    yield self.finding(
                        ctx,
                        node.lineno,
                        node.col_offset,
                        f"quorum threshold {name!r} is a bare floor-half "
                        f"(`{ast.unparse(value)}`): below majority for "
                        "every even replica count — use `// 2 + 1`",
                    )
                    break

    def _check_waits(self, ctx: ModuleContext) -> Iterable[Finding]:
        declared_n = ctx.quorum_n
        flow = module_flow(ctx)
        for facts in flow.programs.values():
            for loop in facts.loops:
                if not any(op.kind == cfg_mod.OP_RECV for op in loop.ops):
                    continue
                threshold = self._wait_threshold(loop.info.test)
                if threshold is None:
                    continue
                op, bound = threshold
                if _is_floor_half(bound):
                    yield self.finding(
                        ctx,
                        loop.info.lineno,
                        loop.info.stmt.col_offset,
                        "reply-count wait exits at a bare floor-half "
                        f"threshold (`{ast.unparse(bound)}`): below "
                        "majority for every even replica count",
                    )
                elif (
                    declared_n is not None
                    and isinstance(bound, ast.Constant)
                    and isinstance(bound.value, int)
                ):
                    # `< c` waits for c replies; `<= c` waits for c + 1.
                    waits_for = bound.value + (1 if isinstance(op, ast.LtE) else 0)
                    majority = declared_n // 2 + 1
                    if waits_for < majority:
                        yield self.finding(
                            ctx,
                            loop.info.lineno,
                            loop.info.stmt.col_offset,
                            f"reply-count wait collects {waits_for} "
                            f"replies but majority for declared n="
                            f"{declared_n} is {majority}",
                        )

    @staticmethod
    def _wait_threshold(test: Optional[ast.expr]):
        """Match ``len(X) < T`` / ``len(X) <= T``; return (op, T)."""
        if (
            not isinstance(test, ast.Compare)
            or len(test.ops) != 1
            or not isinstance(test.ops[0], (ast.Lt, ast.LtE))
            or not isinstance(test.left, ast.Call)
            or terminal_name(test.left.func) != "len"
        ):
            return None
        return test.ops[0], test.comparators[0]
