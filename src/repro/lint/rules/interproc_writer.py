"""TMF104 — interprocedural single-writer: delegation-aware ownership.

TMF006 checks the single-writer annotation per program *body*: annotated
array cells must be indexed by the writing program's own pid, annotated
scalars written from at most one body.  Both checks go blind the moment
a write moves behind ``yield from``: a helper that writes ``A[i]`` for
its parameter ``i`` is innocent in isolation, and a caller that passes
``j`` (someone else's pid) into it never touches the array syntactically.

The flow facts close that hole.  Over the module's resolved delegation
graph:

1. **pid-sensitive parameters** are computed to a fixpoint — a parameter
   is pid-sensitive when the callee writes an annotated array indexed by
   it, or forwards it into another pid-sensitive parameter.  Every
   delegation site must then bind each pid-sensitive parameter to the
   caller's *own* pid (its ``pid`` parameter, ``self.pid``, or a
   parameter it forwards, which propagates the obligation outward).
   Anything else — a constant, an arithmetic expression, another
   process's id — is a delegated write outside the owner's cell.
2. **scalar reach**: an annotated scalar written by more than one root
   program (entry points of the resolved delegation graph) is flagged at
   the delegation sites that smuggle in the extra writers — the
   configurations TMF006's per-body count cannot see.

Suppress with ``# repro-lint: disable=TMF104`` on the delegation line.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Set, Tuple

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..registry import Rule, register
from ..flow import cfg as cfg_mod
from ..flow.facts import (
    LEAF,
    PARAM,
    ModuleFlow,
    ProgramFacts,
    _argument_for,
    _substitute_param,
    module_flow,
)

__all__ = ["InterprocSingleWriterRule"]


@register
class InterprocSingleWriterRule(Rule):
    code = "TMF104"
    name = "interprocedural-single-writer"
    severity = Severity.ERROR
    description = (
        "Single-writer discipline must survive `yield from`: delegation "
        "sites must bind pid-sensitive helper parameters to the caller's "
        "own pid, and annotated scalars must not gain extra writing "
        "programs through delegation."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        flow = module_flow(ctx)
        annotated_scalars = {
            decl.leaf
            for decl in flow.registers.values()
            if decl.annotated and decl.kind == "register"
        }
        sensitive, param_indexed = self._pid_sensitive_params(flow)
        yield from self._check_delegation_args(
            ctx, flow, sensitive, param_indexed
        )
        if annotated_scalars:
            yield from self._check_scalar_reach(ctx, flow, annotated_scalars)

    # -- part 1: pid-sensitive parameter binding ---------------------------

    @staticmethod
    def _annotated_array_arg(
        flow: ModuleFlow, facts: ProgramFacts, arg: ast.expr
    ) -> bool:
        """True when ``arg`` is a handle to an annotated array."""
        from ..programs import terminal_name

        name = terminal_name(arg)
        if name is None:
            return False
        names = {name} | facts.aliases.get(name, set())
        for candidate in names:
            decl = flow.registers.get(candidate)
            if decl is not None and decl.annotated and decl.kind == "array":
                return True
        return False

    def _pid_sensitive_params(
        self, flow: ModuleFlow
    ) -> Tuple[Dict[str, Set[str]], Dict[str, Set[Tuple[str, str]]]]:
        """Fixpoint over the delegation graph.

        Returns ``(sensitive, param_indexed)``: per qualname, the
        parameters that must receive the caller's own pid, and the
        (array-param, index-param) pairs whose obligation depends on
        what the call site binds to the array parameter.
        """
        sensitive: Dict[str, Set[str]] = {
            q: {param for _attr, param in f.pid_indexed_writes}
            for q, f in flow.programs.items()
        }
        param_indexed: Dict[str, Set[Tuple[str, str]]] = {
            q: set(f.param_indexed_writes) for q, f in flow.programs.items()
        }
        changed = True
        while changed:
            changed = False
            for qualname, facts in flow.programs.items():
                for site in facts.delegations:
                    resolved = flow.resolve_callee(facts, site)
                    if resolved is None or site.call is None:
                        continue
                    _cflow, callee = resolved
                    for param in sorted(sensitive.get(callee.qualname, ())):
                        arg = _argument_for(site.call, callee, param)
                        if (
                            isinstance(arg, ast.Name)
                            and arg.id in facts.params
                            and arg.id not in sensitive[qualname]
                        ):
                            sensitive[qualname].add(arg.id)
                            changed = True
                    for pa, pi in sorted(
                        param_indexed.get(callee.qualname, ())
                    ):
                        arg_a = _argument_for(site.call, callee, pa)
                        arg_i = _argument_for(site.call, callee, pi)
                        if arg_a is None or arg_i is None:
                            continue
                        both_params = (
                            isinstance(arg_a, ast.Name)
                            and arg_a.id in facts.params
                            and isinstance(arg_i, ast.Name)
                            and arg_i.id in facts.params
                        )
                        if both_params:
                            pair = (arg_a.id, arg_i.id)
                            if pair not in param_indexed[qualname]:
                                param_indexed[qualname].add(pair)
                                changed = True
                        elif self._annotated_array_arg(flow, facts, arg_a):
                            # The helper writes an annotated array here;
                            # a param-bound index passes the obligation
                            # to our own callers.
                            if (
                                isinstance(arg_i, ast.Name)
                                and arg_i.id in facts.params
                                and arg_i.id not in sensitive[qualname]
                            ):
                                sensitive[qualname].add(arg_i.id)
                                changed = True
        return sensitive, param_indexed

    def _check_delegation_args(
        self,
        ctx: ModuleContext,
        flow: ModuleFlow,
        sensitive: Dict[str, Set[str]],
        param_indexed: Dict[str, Set[Tuple[str, str]]],
    ) -> Iterable[Finding]:
        for facts in flow.programs.values():
            for site in facts.delegations:
                resolved = flow.resolve_callee(facts, site)
                if resolved is None or site.call is None:
                    continue
                _cflow, callee = resolved
                for param in sorted(sensitive.get(callee.qualname, ())):
                    arg = _argument_for(site.call, callee, param)
                    if arg is None:
                        continue
                    if facts.program.is_own_pid(arg):
                        continue
                    if isinstance(arg, ast.Name) and arg.id in facts.params:
                        continue  # obligation propagated to our callers
                    yield self.finding(
                        ctx,
                        site.lineno,
                        site.col,
                        f"delegation binds pid-sensitive parameter "
                        f"{param!r} of {callee.qualname!r} to "
                        f"`{ast.unparse(arg)}`, which is not the "
                        "caller's own pid: the helper will write an "
                        "annotated single-writer cell it does not own",
                    )
                for pa, pi in sorted(param_indexed.get(callee.qualname, ())):
                    arg_a = _argument_for(site.call, callee, pa)
                    arg_i = _argument_for(site.call, callee, pi)
                    if arg_a is None or arg_i is None:
                        continue
                    if not self._annotated_array_arg(flow, facts, arg_a):
                        continue
                    if facts.program.is_own_pid(arg_i):
                        continue
                    if isinstance(arg_i, ast.Name) and arg_i.id in facts.params:
                        continue  # propagated via the sensitivity fixpoint
                    yield self.finding(
                        ctx,
                        site.lineno,
                        site.col,
                        f"delegation passes annotated single-writer array "
                        f"`{ast.unparse(arg_a)}` into {callee.qualname!r}, "
                        f"which writes the cell indexed by its parameter "
                        f"{pi!r}, bound here to `{ast.unparse(arg_i)}` — "
                        "not the caller's own pid",
                    )

    # -- part 2: scalar writers gained through delegation ------------------

    def _check_scalar_reach(
        self,
        ctx: ModuleContext,
        flow: ModuleFlow,
        annotated_scalars: Set[str],
    ) -> Iterable[Finding]:
        delegated_to = {
            callee.qualname
            for facts in flow.programs.values()
            for site in facts.delegations
            for resolved in [flow.resolve_callee(facts, site)]
            if resolved is not None and resolved[0] is flow
            for callee in [resolved[1]]
        }
        roots = [
            f
            for q, f in flow.programs.items()
            if f.program.is_program and q not in delegated_to
        ]
        for leaf in sorted(annotated_scalars):
            direct: Set[str] = set()
            via_delegation: List[Tuple[ProgramFacts, object]] = []
            for facts in roots:
                if self._writes_directly(facts, leaf):
                    direct.add(facts.qualname)
                for site in facts.delegations:
                    resolved = flow.resolve_callee(facts, site)
                    if resolved is None:
                        continue
                    cflow, callee = resolved
                    targets, _ok = cflow.closure_accesses(callee.qualname)
                    substituted = (
                        _substitute_param(flow, facts, site, callee, t)
                        if t.cls == PARAM
                        else t
                        for t in targets
                    )
                    if any(
                        t.cls == LEAF
                        and t.name == leaf
                        and t.kind in (cfg_mod.OP_WRITE, cfg_mod.OP_RMW)
                        for t in substituted
                    ):
                        via_delegation.append((facts, site))
            writers = direct | {f.qualname for f, _ in via_delegation}
            if len(writers) <= 1:
                continue
            for facts, site in via_delegation:
                others = sorted(writers - {facts.qualname})
                yield self.finding(
                    ctx,
                    site.lineno,
                    site.col,
                    f"single-writer register {leaf!r} is written by "
                    f"multiple root programs once delegation is "
                    f"followed ({facts.qualname!r} and "
                    f"{', '.join(repr(o) for o in others)})",
                )

    @staticmethod
    def _writes_directly(facts: ProgramFacts, leaf: str) -> bool:
        return any(
            target.cls == LEAF
            and target.name == leaf
            and target.kind in (cfg_mod.OP_WRITE, cfg_mod.OP_RMW)
            for _site, target in facts.accesses
        )
