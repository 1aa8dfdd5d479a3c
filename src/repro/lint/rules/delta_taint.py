"""TMF102 — Δ-taint leak: timing-derived control flow in tolerant code.

The paper's central divide is between constructions that *consume* the
known step-time bound Δ (Fischer's lock delays for it; the timed
consensus protocols count it) and constructions whose correctness is
claimed **independent** of timing — the failure-tolerant results.  A
module declares itself on the tolerant side of that line with::

    # repro-lint: failure-tolerant

inside which *no* value derived from a timing parameter may control a
branch or feed a delay.  The flow facts track a two-point may-taint
lattice per program: any identifier matching the timing-parameter
naming convention (``delta`` in the name, any case) is a source, taint
propagates through assignments to a fixpoint, and the sinks are branch
tests (``if``/``while``) and ``delay`` durations.  A tainted sink in a
failure-tolerant module means the tolerance claim silently depends on
Δ after all — exactly the dependency the annotation promises away.

Suppress with ``# repro-lint: disable=TMF102`` on the sink's line
(e.g. a delay that is a pure performance hint, not a correctness
condition).
"""

from __future__ import annotations

from typing import Iterable

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..flow.facts import module_flow

__all__ = ["DeltaTaintRule"]


@register
class DeltaTaintRule(Rule):
    code = "TMF102"
    name = "delta-taint-leak"
    severity = Severity.ERROR
    description = (
        "In a `# repro-lint: failure-tolerant` module, no branch test or "
        "delay duration may derive from a timing parameter (Δ): the "
        "module's tolerance claim is exactly that it never relies on one."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.failure_tolerant:
            return
        flow = module_flow(ctx)
        for facts in flow.programs.values():
            for site in facts.taint_sites:
                what = (
                    "controls a branch"
                    if site.kind == "branch"
                    else "feeds a delay duration"
                )
                yield self.finding(
                    ctx,
                    site.lineno,
                    site.col,
                    f"Δ-derived value {what} (`{site.detail}`) in a "
                    "module declared failure-tolerant: the claim is that "
                    "correctness never depends on timing parameters",
                )
