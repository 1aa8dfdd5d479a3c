"""TMF101 — unbounded busy-wait: a spin loop no other process can release.

The paper's timing-based algorithms spin: Fischer's lock reads ``x``
until it is FREE, the filter lock reads ``victim`` until it moves.  Such
loops are fine *because some program in the module writes the register
being watched* — another process's step is what releases the spinner.
The pathological shape is a yield-bearing loop that reads a register and
exits **only** on conditions derived from that read, when the flow facts
prove no program anywhere in the module ever writes it.  Under a timing
failure (or at all), the read can never change: the loop is a wedge, the
exact pattern Δ-violation windows turn into livelock.

Two shapes are flagged, per program, per reachable loop containing a
shared read:

1. the loop has **no exit at all** (``while True`` with no break or
   return), or
2. every exit is *register-gated* — each break/return guard chain (and a
   falsifiable ``while`` test) references a read-bound local and no
   body-mutated one — and every register those locals were read from
   resolves to a creation-site leaf that **no** program in the module
   writes (interprocedural closure, delegation included).

Anything the analysis cannot prove stays silent: unresolved handles,
incomplete writer sets, exits through locally-mutated counters, and
``for`` loops (their iterator exhausts) all disqualify the loop.

Suppress with ``# repro-lint: disable=TMF101`` on the loop's header
line.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Set

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..flow import cfg as cfg_mod
from ..flow.facts import LEAF, LoopFacts, module_flow

__all__ = ["BusyWaitRule"]


def _names_in(expr: ast.expr) -> Set[str]:
    return {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}


@register
class BusyWaitRule(Rule):
    code = "TMF101"
    name = "unbounded-busy-wait"
    severity = Severity.ERROR
    description = (
        "A yield-bearing read loop must have an exit some process can "
        "trigger: either a register-independent escape, or an exit "
        "condition over a register that some program in the module "
        "writes.  A spin on a never-written register can never change."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        flow = module_flow(ctx)
        written, written_complete = flow.written_leafs()
        for facts in flow.programs.values():
            if not facts.program.is_program:
                continue
            for loop in facts.loops:
                finding = self._check_loop(
                    ctx, loop, written, written_complete
                )
                if finding is not None:
                    yield finding

    def _check_loop(
        self,
        ctx: ModuleContext,
        loop: LoopFacts,
        written: Set[str],
        written_complete: bool,
    ) -> Finding | None:
        reads = [op for op in loop.ops if op.kind == cfg_mod.OP_READ]
        if not reads:
            return None
        info = loop.info
        if info.is_for:
            return None
        if not info.has_exit:
            return self.finding(
                ctx,
                info.lineno,
                info.stmt.col_offset,
                "busy-wait loop has no exit: it yields shared reads "
                "forever with no break, return, or falsifiable test",
            )
        # Per-exit analysis: one free escape clears the loop.
        chains: List[List[ast.expr]] = list(info.exit_guards)
        if info.test_falsifiable and info.test is not None:
            chains.append([info.test])
        if not chains:
            # has_exit without recorded guard chains (e.g. unreachable
            # break pruned) — not provably wedged, stay silent.
            return None
        spin_leafs: Set[str] = set()
        for chain in chains:
            if not chain:
                return None  # unconditional break: free escape
            names = set()
            for cond in chain:
                names |= _names_in(cond)
            if names & loop.mutated:
                return None  # exit via a locally-advanced value
            bound = names & set(loop.read_bound)
            if not bound:
                return None  # exit independent of in-loop reads
            for var in bound:
                for target in loop.read_bound[var]:
                    if target.cls != LEAF:
                        return None  # unresolvable source: no claim
                    spin_leafs.add(target.name)
        if not spin_leafs or not written_complete:
            return None
        if spin_leafs & written:
            return None
        leafs = ", ".join(repr(l) for l in sorted(spin_leafs))
        return self.finding(
            ctx,
            info.lineno,
            info.stmt.col_offset,
            f"busy-wait loop spins on register(s) {leafs} that no "
            "program in this module ever writes: every exit condition "
            "is gated on a read that can never change",
        )
