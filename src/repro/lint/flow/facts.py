"""Op-level facts derived from program CFGs (abstract interpretation).

The pass is a small may-analysis over each program's
:class:`~repro.lint.flow.cfg.Cfg`:

* **register table** — creation sites (``self.x = ns.register("x", 0)``)
  map attribute/variable names to their *leaf* names, the trailing
  string the runtime embeds in every namespaced register name (see
  :class:`repro.sim.registers.RegisterNamespace`), which is what dynamic
  traces report;
* **access sets** — every shared-memory op site resolved to a leaf, a
  *parameter* (register handles threaded through helper arguments), or
  an *opaque* target the analysis cannot name;
* **delegation graph** — ``yield from`` edges, resolved by callee name
  within the module (or across modules via an external resolver), with
  call-site argument substitution so parameter-relative accesses become
  concrete at each caller;
* **loop facts** — which loops contain yields, how they exit, and which
  read-bound locals their exit conditions test (rule TMF101);
* **Δ-taint lattice** — the two-point may-taint lattice over locals
  (⊥ untainted / ⊤ timing-derived), seeded by every identifier matching
  the timing-parameter convention (``delta`` in the name), propagated
  through assignments to a fixpoint, and observed at branch tests and
  delay durations (rule TMF102).

Everything here over-approximates: "may write", "may reach", "may be
tainted".  That is the direction the xcheck harness can falsify — a
dynamic observation outside a *complete* static may-set is a
contradiction, never a tolerated gap.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from ..context import ModuleContext
from ..programs import ProgramInfo, terminal_name
from . import cfg as cfg_mod
from .cfg import Cfg, LoopInfo, OpSite, build_cfg

__all__ = [
    "AccessTarget",
    "RegisterDecl",
    "LoopFacts",
    "TaintSite",
    "ProgramFacts",
    "ModuleFlow",
    "module_flow",
]

#: Shared-memory op kinds the access sets track.
_SHARED_KINDS = (cfg_mod.OP_READ, cfg_mod.OP_WRITE, cfg_mod.OP_RMW)

_CREATOR_NAMES = {"register", "array", "Register", "Array"}

_DELTA_NAME = re.compile(r"delta|Δ", re.IGNORECASE)

#: Access target resolution classes.
LEAF = "leaf"  # resolved to a creation-site leaf name
PARAM = "param"  # a register handle received as a parameter
OPAQUE = "opaque"  # unresolvable (dynamic dispatch, computed handles)


@dataclass(frozen=True)
class AccessTarget:
    """One (op kind, register) element of a program's access set."""

    kind: str  # read / write / rmw
    cls: str  # LEAF, PARAM or OPAQUE
    name: str  # leaf name, parameter name, or best-effort identifier

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{self.kind} {self.cls}:{self.name}>"


@dataclass(frozen=True)
class RegisterDecl:
    """One register/array creation site in the module."""

    attr: str  # the attribute/variable the handle is bound to
    leaf: str  # the runtime leaf name (first creation argument)
    kind: str  # "register" | "array"
    lineno: int
    annotated: bool  # carries `# repro-lint: single-writer`


@dataclass
class LoopFacts:
    """TMF101's view of one yield-bearing loop."""

    info: LoopInfo
    ops: List[OpSite]
    #: Exit condition expressions (break/return guards + falsifiable test).
    exit_conditions: List[ast.expr]
    #: Local name -> register targets it was bound from by an in-loop read.
    read_bound: Dict[str, Set[AccessTarget]]
    #: Locals the body mutates through non-read channels (counters,
    #: accumulators, method-mutated containers) — any of these in an exit
    #: condition gives the loop a register-independent escape.
    mutated: Set[str]

    @property
    def lineno(self) -> int:
        return self.info.lineno


@dataclass(frozen=True)
class TaintSite:
    """One Δ-tainted sink: a branch test or a delay duration."""

    kind: str  # "branch" | "delay"
    lineno: int
    col: int
    detail: str  # the offending expression, unparsed


@dataclass
class ProgramFacts:
    """Everything the flow rules know about one program body."""

    program: ProgramInfo
    cfg: Cfg
    params: Tuple[str, ...] = ()
    accesses: List[Tuple[OpSite, AccessTarget]] = field(default_factory=list)
    delegations: List[OpSite] = field(default_factory=list)
    loops: List[LoopFacts] = field(default_factory=list)
    taint_sites: List[TaintSite] = field(default_factory=list)
    tainted_locals: Set[str] = field(default_factory=set)
    #: local name -> the parameter/attribute base names it may alias
    aliases: Dict[str, Set[str]] = field(default_factory=dict)
    #: Annotated arrays written indexed by one of this program's own
    #: parameters: (register attr, parameter name) — the seed of the
    #: interprocedural pid-sensitivity analysis (TMF104).
    pid_indexed_writes: List[Tuple[str, str]] = field(default_factory=list)
    #: Writes through a *parameter-bound* array handle, indexed by
    #: another parameter: (array param, index param).  Whether the cell
    #: is single-writer depends on what each call site binds to the
    #: array parameter — TMF104 joins these against the annotations.
    param_indexed_writes: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def qualname(self) -> str:
        return self.program.qualname

    @property
    def name(self) -> str:
        return self.program.name


class ModuleFlow:
    """The per-module fact base, with interprocedural closure on top."""

    def __init__(
        self,
        ctx: ModuleContext,
        external_resolver: Optional[
            Callable[[str], Optional[Tuple["ModuleFlow", str]]]
        ] = None,
    ) -> None:
        self.ctx = ctx
        self.external_resolver = external_resolver
        self.registers: Dict[str, RegisterDecl] = _register_table(ctx)
        self.programs: Dict[str, ProgramFacts] = {}
        for program in ctx.programs:
            self.programs[program.qualname] = _analyze_program(
                program, self.registers
            )
        self._closure_cache: Dict[str, Tuple[FrozenSet[AccessTarget], bool]] = {}

    # -- lookup -------------------------------------------------------------

    def facts_for(self, qualname: str) -> Optional[ProgramFacts]:
        return self.programs.get(qualname)

    def resolve_callee(
        self, facts: ProgramFacts, site: OpSite
    ) -> Optional[Tuple["ModuleFlow", ProgramFacts]]:
        """The program a ``yield from`` site delegates to, if nameable.

        Resolution is by the callee expression's terminal identifier:
        ``self._helper(...)`` and bare ``helper(...)`` match a program of
        the same name in this module (same-class methods first), then the
        external resolver (cross-module imports).  Anything else —
        ``self.inner.entry(...)`` through an object-valued attribute,
        a parameter-bound program — is dynamic dispatch: unresolvable.
        """
        callee = site.register
        if callee is None:
            return None
        name = terminal_name(callee)
        if name is None:
            return None
        # Dynamic dispatch guard: `self.x.entry` has a non-self base.
        if isinstance(callee, ast.Attribute):
            base = callee.value
            if not (isinstance(base, ast.Name) and base.id == "self"):
                return None
        candidates = [
            f for q, f in self.programs.items() if f.name == name
        ]
        if candidates:
            # Prefer a program in the caller's own class scope.
            prefix = facts.qualname.rsplit(".", 1)[0]
            for cand in candidates:
                if cand.qualname == f"{prefix}.{name}":
                    return self, cand
            return self, candidates[0]
        if self.external_resolver is not None:
            resolved = self.external_resolver(name)
            if resolved is not None:
                flow, qualname = resolved
                target = flow.facts_for(qualname)
                if target is not None:
                    return flow, target
        return None

    # -- interprocedural closure -------------------------------------------

    def closure_accesses(
        self, qualname: str, _stack: Optional[Set[str]] = None
    ) -> Tuple[FrozenSet[AccessTarget], bool]:
        """All shared-memory accesses reachable from ``qualname``.

        Returns ``(targets, complete)``: parameter-relative accesses of
        callees are substituted through each call site's arguments, so a
        helper writing ``my_flag`` (aliasing its ``flag0``/``flag1``
        parameters) contributes the *caller's* concrete leafs.
        ``complete`` is False when any reachable delegation could not be
        resolved or any access stayed opaque — the signal xcheck uses to
        demand containment only where the analysis actually claims it.
        """
        if _stack is None:
            if qualname in self._closure_cache:
                return self._closure_cache[qualname]
            _stack = set()
        if qualname in _stack:
            return frozenset(), True  # recursive delegation: already counted
        facts = self.programs.get(qualname)
        if facts is None:
            return frozenset(), False
        _stack = _stack | {qualname}
        out: Set[AccessTarget] = set()
        complete = True
        for _site, target in facts.accesses:
            out.add(target)
            if target.cls == OPAQUE:
                complete = False
        for site in facts.delegations:
            resolved = self.resolve_callee(facts, site)
            if resolved is None:
                complete = False
                continue
            flow, callee = resolved
            sub, sub_complete = flow.closure_accesses(callee.qualname, _stack)
            complete = complete and sub_complete
            for target in sub:
                if target.cls != PARAM:
                    out.add(target)
                    continue
                mapped = _substitute_param(
                    self, facts, site, callee, target
                )
                out.add(mapped)
                if mapped.cls == OPAQUE:
                    complete = False
        result = (frozenset(out), complete)
        if len(_stack) == 1:
            self._closure_cache[qualname] = result
        return result

    # -- module-wide aggregates --------------------------------------------

    def module_accesses(self) -> Tuple[FrozenSet[AccessTarget], bool]:
        """Union of every program's closure accesses, with completeness."""
        out: Set[AccessTarget] = set()
        complete = True
        for qualname in self.programs:
            targets, ok = self.closure_accesses(qualname)
            out |= targets
            complete = complete and ok
        return frozenset(out), complete

    def written_leafs(self) -> Tuple[Set[str], bool]:
        """Leaf names some program may write, plus whether that's all.

        ``complete`` is False when any write in the module stayed
        parameter-relative or opaque at the top level — an unaccounted
        write channel that could alias any leaf.
        """
        targets, complete = self.module_accesses()
        leafs: Set[str] = set()
        for t in targets:
            if t.kind not in (cfg_mod.OP_WRITE, cfg_mod.OP_RMW):
                continue
            if t.cls == LEAF:
                leafs.add(t.name)
            else:
                complete = False
        return leafs, complete


def module_flow(ctx: ModuleContext) -> ModuleFlow:
    """The (cached) flow fact base for one module context."""
    cached = getattr(ctx, "_flow", None)
    if cached is None:
        cached = ModuleFlow(ctx)
        ctx._flow = cached  # type: ignore[attr-defined]
    return cached


# ---------------------------------------------------------------------------
# Register table
# ---------------------------------------------------------------------------


def _register_table(ctx: ModuleContext) -> Dict[str, RegisterDecl]:
    """Creation sites: attribute/variable name -> leaf name declaration."""
    annotated_lines = ctx.single_writer_lines
    table: Dict[str, RegisterDecl] = {}
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Assign) or not isinstance(node.value, ast.Call):
            continue
        creator = terminal_name(node.value.func)
        if creator not in _CREATOR_NAMES:
            continue
        kind = "array" if creator.lower() == "array" else "register"
        leaf: Optional[str] = None
        if node.value.args:
            first = node.value.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                leaf = first.value
        for target in node.targets:
            attr = terminal_name(target)
            if attr is None:
                continue
            table[attr] = RegisterDecl(
                attr=attr,
                leaf=leaf if leaf is not None else attr,
                kind=kind,
                lineno=node.lineno,
                annotated=node.lineno in annotated_lines,
            )
    return table


# ---------------------------------------------------------------------------
# Per-program analysis
# ---------------------------------------------------------------------------


def _analyze_program(
    program: ProgramInfo, registers: Dict[str, RegisterDecl]
) -> ProgramFacts:
    cfg = build_cfg(program)
    params = tuple(
        a.arg for a in program.node.args.args if a.arg not in ("self", "cls")
    )
    facts = ProgramFacts(program=program, cfg=cfg, params=params)
    facts.aliases = _alias_map(program, set(params), registers)
    reachable_sites = cfg.op_sites(reachable_only=True)
    for site in reachable_sites:
        if site.kind == cfg_mod.OP_DELEGATE:
            facts.delegations.append(site)
        elif site.kind in _SHARED_KINDS:
            for target in _resolve_targets(site, facts, registers):
                facts.accesses.append((site, target))
            _note_pid_indexed_write(site, facts, registers)
    facts.loops = _loop_facts(cfg, facts, registers)
    _taint(program, cfg, facts, reachable_sites)
    return facts


def _alias_map(
    program: ProgramInfo,
    params: Set[str],
    registers: Dict[str, RegisterDecl],
) -> Dict[str, Set[str]]:
    """Local name -> parameter/register-attr base names it may alias.

    Tracks the handle-threading idiom (``my_flag = flag0 if side == 0
    else flag1``) one level deep, to a fixpoint so alias-of-alias chains
    resolve too.
    """
    seeds: Dict[str, Set[str]] = {}
    for stmt in program.own_statements():
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        bases = _handle_bases(stmt.value, params, registers)
        if bases:
            seeds.setdefault(target.id, set()).update(bases)
    # Fixpoint: replace alias references by their own bases.
    changed = True
    while changed:
        changed = False
        for name, bases in seeds.items():
            extra: Set[str] = set()
            for base in bases:
                if base in seeds and base != name:
                    extra |= seeds[base] - bases
            if extra:
                bases |= extra
                changed = True
    return seeds


def _handle_bases(
    expr: ast.expr, params: Set[str], registers: Dict[str, RegisterDecl]
) -> Set[str]:
    """Parameter/register-attr names a handle-valued expression refers to."""
    if isinstance(expr, ast.IfExp):
        return _handle_bases(expr.body, params, registers) | _handle_bases(
            expr.orelse, params, registers
        )
    if isinstance(expr, ast.Subscript):
        return _handle_bases(expr.value, params, registers)
    if isinstance(expr, ast.Name):
        if expr.id in params or expr.id in registers:
            return {expr.id}
        return set()
    if isinstance(expr, ast.Attribute):
        if expr.attr in registers:
            return {expr.attr}
        return set()
    return set()


def _resolve_targets(
    site: OpSite, facts: ProgramFacts, registers: Dict[str, RegisterDecl]
) -> List[AccessTarget]:
    """Resolve one shared-memory op site to access targets."""
    handle = site.register
    if handle is None:
        return [AccessTarget(site.kind, OPAQUE, "?")]
    base = handle.value if isinstance(handle, ast.Subscript) else handle
    name = terminal_name(base)
    if name is None:
        return [AccessTarget(site.kind, OPAQUE, "?")]
    if name in registers:
        return [AccessTarget(site.kind, LEAF, registers[name].leaf)]
    if name in facts.params:
        return [AccessTarget(site.kind, PARAM, name)]
    if name in facts.aliases:
        out: List[AccessTarget] = []
        for alias in sorted(facts.aliases[name]):
            if alias in registers:
                out.append(AccessTarget(site.kind, LEAF, registers[alias].leaf))
            elif alias in facts.params:
                out.append(AccessTarget(site.kind, PARAM, alias))
        if out:
            return out
    return [AccessTarget(site.kind, OPAQUE, name)]


def _note_pid_indexed_write(
    site: OpSite, facts: ProgramFacts, registers: Dict[str, RegisterDecl]
) -> None:
    """Record param-indexed array writes (annotated attrs and param handles)."""
    if site.kind not in (cfg_mod.OP_WRITE, cfg_mod.OP_RMW):
        return
    handle = site.register
    if not isinstance(handle, ast.Subscript):
        return
    attr = terminal_name(handle.value)
    if attr is None:
        return
    if not (isinstance(site.index, ast.Name) and site.index.id in facts.params):
        return
    decl = registers.get(attr)
    if decl is not None and decl.annotated and decl.kind == "array":
        facts.pid_indexed_writes.append((attr, site.index.id))
    elif attr in facts.params:
        facts.param_indexed_writes.append((attr, site.index.id))


# ---------------------------------------------------------------------------
# Loop facts
# ---------------------------------------------------------------------------

_MUTATOR_METHODS = {
    "add", "append", "extend", "update", "pop", "remove", "discard",
    "insert", "clear", "setdefault",
}


def _loop_facts(
    cfg: Cfg, facts: ProgramFacts, registers: Dict[str, RegisterDecl]
) -> List[LoopFacts]:
    out: List[LoopFacts] = []
    reachable = cfg.reachable()
    for info in cfg.loops:
        if info.header not in reachable:
            continue
        body_nodes = [cfg.nodes[i] for i in sorted(info.body | {info.header})]
        ops = [op for node in body_nodes for op in node.ops]
        if not any(
            op.kind != cfg_mod.OP_UNKNOWN or op.node is not None for op in ops
        ) and not ops:
            continue
        exit_conditions: List[ast.expr] = []
        for guard_chain in info.exit_guards:
            exit_conditions.extend(guard_chain)
        if info.test_falsifiable and info.test is not None:
            exit_conditions.append(info.test)
        read_bound: Dict[str, Set[AccessTarget]] = {}
        mutated: Set[str] = set()
        for node in body_nodes:
            stmt = node.stmt
            if stmt is not None:
                _collect_mutations(stmt, mutated)
            for op in node.ops:
                if op.kind == cfg_mod.OP_READ and op.bound_to:
                    targets = {
                        t
                        for t in _resolve_targets(op, facts, registers)
                    }
                    read_bound.setdefault(op.bound_to, set()).update(targets)
        mutated -= set(read_bound)
        out.append(
            LoopFacts(
                info=info,
                ops=ops,
                exit_conditions=exit_conditions,
                read_bound=read_bound,
                mutated=mutated,
            )
        )
    return out


def _collect_mutations(stmt: ast.stmt, mutated: Set[str]) -> None:
    """Names ``stmt`` may rebind or mutate through non-read channels."""
    if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
        targets = (
            stmt.targets
            if isinstance(stmt, ast.Assign)
            else [stmt.target]
        )
        for target in targets:
            for sub in ast.walk(target):
                if isinstance(sub, ast.Name):
                    mutated.add(sub.id)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        for sub in ast.walk(stmt.target):
            if isinstance(sub, ast.Name):
                mutated.add(sub.id)
    # Receiver of a mutating method call: `acks.add(...)`, `out.append(...)`.
    for expr in _expr_children(stmt):
        for sub in ast.walk(expr):
            if (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATOR_METHODS
                and isinstance(sub.func.value, ast.Name)
            ):
                mutated.add(sub.func.value.id)


def _expr_children(stmt: ast.stmt) -> List[ast.expr]:
    out: List[ast.expr] = []
    for _name, value in ast.iter_fields(stmt):
        if isinstance(value, ast.expr):
            out.append(value)
        elif isinstance(value, list) and value and isinstance(value[0], ast.expr):
            out.extend(value)
    return out


# ---------------------------------------------------------------------------
# Δ-taint
# ---------------------------------------------------------------------------


def _is_delta_name(name: str) -> bool:
    return bool(_DELTA_NAME.search(name))


def _expr_tainted(expr: ast.expr, tainted: Set[str]) -> bool:
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and (
            sub.id in tainted or _is_delta_name(sub.id)
        ):
            return True
        if isinstance(sub, ast.Attribute) and _is_delta_name(sub.attr):
            return True
    return False


def _taint(
    program: ProgramInfo,
    cfg: Cfg,
    facts: ProgramFacts,
    reachable_sites: List[OpSite],
) -> None:
    """Propagate Δ-taint to a fixpoint, then record sink sites."""
    tainted: Set[str] = {p for p in facts.params if _is_delta_name(p)}
    statements = program.own_statements()
    changed = True
    while changed:
        changed = False
        for stmt in statements:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = stmt.value
                if value is None or not _expr_tainted(value, tainted):
                    continue
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name) and sub.id not in tainted:
                            tainted.add(sub.id)
                            changed = True
    facts.tainted_locals = tainted
    sites: List[TaintSite] = []
    for stmt in statements:
        test = getattr(stmt, "test", None)
        if (
            isinstance(stmt, (ast.If, ast.While))
            and test is not None
            and _expr_tainted(test, tainted)
        ):
            sites.append(
                TaintSite(
                    "branch", stmt.lineno, stmt.col_offset, ast.unparse(test)
                )
            )
    for site in reachable_sites:
        if site.kind != cfg_mod.OP_DELAY or site.argument is None:
            continue
        if _expr_tainted(site.argument, facts.tainted_locals):
            sites.append(
                TaintSite(
                    "delay",
                    site.lineno,
                    site.col,
                    ast.unparse(site.argument),
                )
            )
    facts.taint_sites = sites


# ---------------------------------------------------------------------------
# Call-site parameter substitution
# ---------------------------------------------------------------------------


def _substitute_param(
    flow: ModuleFlow,
    caller: ProgramFacts,
    site: OpSite,
    callee: ProgramFacts,
    target: AccessTarget,
) -> AccessTarget:
    """Map a callee's parameter-relative access through one call site."""
    call = site.call
    if call is None:
        return AccessTarget(target.kind, OPAQUE, target.name)
    arg = _argument_for(call, callee, target.name)
    if arg is None:
        return AccessTarget(target.kind, OPAQUE, target.name)
    base = arg.value if isinstance(arg, ast.Subscript) else arg
    name = terminal_name(base)
    if name is None:
        return AccessTarget(target.kind, OPAQUE, target.name)
    if name in flow.registers:
        return AccessTarget(target.kind, LEAF, flow.registers[name].leaf)
    if name in caller.params:
        return AccessTarget(target.kind, PARAM, name)
    if name in caller.aliases:
        for alias in sorted(caller.aliases[name]):
            if alias in flow.registers:
                return AccessTarget(
                    target.kind, LEAF, flow.registers[alias].leaf
                )
    return AccessTarget(target.kind, OPAQUE, name)


def _argument_for(
    call: ast.Call, callee: ProgramFacts, param: str
) -> Optional[ast.expr]:
    """The argument expression bound to ``param`` at ``call``."""
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    arg_names = [a.arg for a in callee.program.node.args.args]
    if arg_names and arg_names[0] in ("self", "cls"):
        arg_names = arg_names[1:]
    try:
        pos = arg_names.index(param)
    except ValueError:
        return None
    if pos < len(call.args):
        candidate = call.args[pos]
        if isinstance(candidate, ast.Starred):
            return None
        return candidate
    return None
