"""TMF005 — ``delay(...)`` takes an expression in Δ, not a magic number.

Every ``delay`` in the paper is written in terms of the timing bound
(``delay(Δ)``, and derived bounds like ``delay(2Δ)`` in related work);
the reproduction keeps that parameterization by threading ``delta``
through algorithm constructors.  A numeric literal (``delay(1.0)``)
hard-wires one timing regime: the algorithm silently stops scaling when
an experiment sweeps Δ, which is precisely the knob the paper's
experiments turn.  A polling pause (``nap(...)``) is a fraction of the
delivery bound for the same reason and is held to the same rule.

``local_work`` and ``Label`` durations are workload modelling, not model
parameters, and may be literal.  ``Delay(0)`` is also flagged — a
zero-duration delay is a no-op the engine still schedules; drop it or
write it in Δ.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..programs import DELAY_NAMES, terminal_name
from ..registry import Rule, register

__all__ = ["DelayLiteralRule"]


@register
class DelayLiteralRule(Rule):
    code = "TMF005"
    name = "delay-literal"
    severity = Severity.WARNING
    description = (
        "delay(...) must be parameterized by the model's Δ (an expression "
        "such as self.delta or 2 * delta), never a bare numeric literal."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if (name := terminal_name(node.func)) not in DELAY_NAMES:
                continue
            if not node.args:
                continue
            duration = node.args[0]
            if isinstance(duration, ast.Constant) and isinstance(
                duration.value, (int, float)
            ):
                yield self.finding(
                    ctx,
                    duration.lineno,
                    duration.col_offset,
                    f"literal duration {duration.value!r} passed to {name}(); "
                    "express the bound in the model's Δ parameter (e.g. "
                    "self.delta) so experiments can sweep it",
                )
            elif isinstance(duration, ast.UnaryOp) and isinstance(
                duration.operand, ast.Constant
            ):
                yield self.finding(
                    ctx,
                    duration.lineno,
                    duration.col_offset,
                    f"literal duration passed to {name}(); express the bound "
                    "in the model's Δ parameter (e.g. self.delta)",
                )
