"""TMF004 — no wall-clock or entropy sources inside program bodies.

The engine replays programs deterministically: the model checker
re-executes a program many times along different interleavings, traces
are expected to be bit-for-bit reproducible from a seed, and the paper's
``delay(d)`` is *simulated* time, never wall time.  A program body that
consults ``time``, ``random``, ``datetime``, ``os.urandom``, ``secrets``
or ``uuid`` produces runs that cannot be replayed or minimized.

Randomized *workloads* remain fine: seeding happens outside program
bodies (:func:`repro.analysis.experiments.consensus_inputs` draws from
``random.Random(seed)`` at build time and bakes the choices into the
program's arguments), which is exactly the discipline this rule enforces.

Detection tracks both module references (``import time`` … ``time.time()``)
and direct imports (``from random import random``), including aliases.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register

__all__ = ["NondeterminismRule"]

#: Modules any reference to which is nondeterministic inside a program.
_BANNED_MODULES: Set[str] = {"time", "random", "datetime", "secrets", "uuid"}

#: Per-module function names that are banned when imported directly
#: (``from os import urandom``); for the modules above every attribute
#: is banned, for ``os`` only ``urandom`` is.
_BANNED_FROM_IMPORTS: Dict[str, Set[str]] = {
    "time": {"time", "monotonic", "perf_counter", "sleep", "time_ns", "monotonic_ns"},
    "random": {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "expovariate",
        "gauss",
        "Random",
    },
    "datetime": {"datetime", "date", "time"},
    "os": {"urandom", "getrandom"},
    "secrets": {"token_bytes", "token_hex", "token_urlsafe", "randbelow", "choice"},
    "uuid": {"uuid1", "uuid4"},
}


def _banned_names(tree: ast.Module) -> Dict[str, str]:
    """Map local name -> reason, from the module's imports.

    ``import random as rnd`` maps ``rnd``; ``from time import monotonic
    as clock`` maps ``clock``.  ``import os`` maps ``os`` with the
    attribute restriction handled at the use site.
    """
    banned: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                if top in _BANNED_MODULES:
                    banned[alias.asname or top] = f"module {top!r}"
                elif top == "os":
                    banned[alias.asname or "os"] = "module 'os' (urandom)"
        elif isinstance(node, ast.ImportFrom) and node.module:
            top = node.module.split(".")[0]
            names = _BANNED_FROM_IMPORTS.get(top)
            if names is None:
                continue
            for alias in node.names:
                if alias.name in names or top in _BANNED_MODULES:
                    banned[alias.asname or alias.name] = (
                        f"{top}.{alias.name}"
                    )
    return banned


@register
class NondeterminismRule(Rule):
    code = "TMF004"
    name = "nondeterminism"
    severity = Severity.ERROR
    description = (
        "Program bodies must not consult wall clocks or entropy (time, "
        "random, datetime, os.urandom, secrets, uuid); runs must replay "
        "bit-for-bit from a seed."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        banned = _banned_names(ctx.tree)
        if not banned:
            return
        for program in ctx.programs:
            if not program.is_program:
                continue
            nodes = program.own_nodes()
            for node in nodes:
                if not isinstance(node, ast.Name) or node.id not in banned:
                    continue
                if not isinstance(node.ctx, ast.Load):
                    continue  # a local rebinding shadows the import
                reason = banned[node.id]
                if reason == "module 'os' (urandom)" and not self._is_urandom(
                    node, nodes
                ):
                    continue
                yield self.finding(
                    ctx,
                    node.lineno,
                    node.col_offset,
                    f"program {program.qualname!r} references "
                    f"nondeterministic source {reason} (via "
                    f"`{node.id}`): breaks seeded bit-for-bit replay",
                )

    @staticmethod
    def _is_urandom(name: ast.Name, nodes: Iterable[ast.AST]) -> bool:
        """True when this ``os`` reference is an ``os.urandom`` access."""
        for node in nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _BANNED_FROM_IMPORTS["os"]
                and node.value is name
            ):
                return True
        return False
