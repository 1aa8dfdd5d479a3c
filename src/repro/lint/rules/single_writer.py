"""TMF006 — single-writer registers are written only by their owner.

Several algorithms' proofs lean on registers being *single-writer*: in
Lamport's fast lock, ``b[i]`` is written by process ``i`` alone, which is
what makes its reads by others meaningful.  The codebase annotates such
registers at their creation site::

    self.b = ns.array("b", False)  # repro-lint: single-writer

For an annotated **array**, every ``.write(...)`` on a cell must index
the cell with the writing program's own process id — the parameter named
``pid`` or the conventional ``self.pid`` — so ``self.b[j].write(...)``
(writing someone else's cell) is flagged.  For an annotated **scalar**
register, writes may appear in at most one program body in the module;
a second writing program is reported at its write site.  Reads are
always free.

In a ``# repro-lint: messages-only`` module (the :mod:`repro.net`
substrate) no register creation can exist, so any ``single-writer``
annotation is dead text — it claims an ownership discipline the module
has nothing to apply it to.  Such dangling annotations are flagged at
the directive's line.

The analysis is per-module: register names are namespaced per algorithm
instance (:class:`~repro.sim.registers.RegisterNamespace`), so cross-
module aliasing cannot occur without also being visible here.  The
annotated registers are read from the flow fact base's register table
(:class:`~repro.lint.flow.facts.RegisterDecl`), which TMF104 reads too.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..context import ModuleContext
from ..findings import Finding, Severity
from ..flow.facts import RegisterDecl, module_flow
from ..programs import ProgramInfo, terminal_name
from ..registry import Rule, register

__all__ = ["SingleWriterRule"]


def _annotated_decl(
    target: ast.expr, registers: Dict[str, RegisterDecl]
) -> Optional[RegisterDecl]:
    """The annotated register a written handle names, if any.

    ``self.b[pid].write`` -> handle ``self.b[pid]``, matched by the
    subscripted value's terminal name ``b``; ``self.turn.write`` ->
    matched by ``turn`` directly.
    """
    base = target.value if isinstance(target, ast.Subscript) else target
    decl = registers.get(terminal_name(base))
    return decl if decl is not None and decl.annotated else None


def _write_calls(
    program: ProgramInfo,
) -> Iterable[ast.Call]:
    for node in program.own_nodes():
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "write"
        ):
            yield node


@register
class SingleWriterRule(Rule):
    code = "TMF006"
    name = "single-writer-discipline"
    severity = Severity.ERROR
    description = (
        "Registers annotated `# repro-lint: single-writer` may only be "
        "written by their owning process: array cells indexed by the "
        "writer's own pid, scalars written from a single program body; in "
        "messages-only modules every single-writer annotation is dangling."
    )

    def check(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.messages_only:
            for line in sorted(ctx.single_writer_lines):
                yield self.finding(
                    ctx,
                    line,
                    0,
                    "dangling `single-writer` annotation in a messages-only "
                    "module: the net substrate owns no registers, so there "
                    "is nothing for the annotation to protect",
                )
            return
        registers = module_flow(ctx).registers
        if not any(decl.annotated for decl in registers.values()):
            return
        scalar_writers: Dict[str, Set[str]] = {}
        ordered: List[Tuple[ProgramInfo, ast.Call, str]] = []
        for program in ctx.programs:
            if not program.is_program:
                continue
            for call in _write_calls(program):
                target = call.func.value  # the handle expression
                decl = _annotated_decl(target, registers)
                if decl is None:
                    continue
                if decl.kind == "array":
                    index = target.slice if isinstance(target, ast.Subscript) else None
                    if index is None or not program.is_own_pid(index):
                        yield self.finding(
                            ctx,
                            call.lineno,
                            call.col_offset,
                            f"single-writer array {decl.attr!r} written at "
                            f"index `{ast.unparse(index) if index else '?'}` "
                            f"in {program.qualname!r}; only the owning "
                            "process may write its own cell (index by pid)",
                        )
                else:
                    scalar_writers.setdefault(decl.attr, set()).add(
                        program.qualname
                    )
                    ordered.append((program, call, decl.attr))
        for program, call, reg_name in ordered:
            writers = scalar_writers[reg_name]
            if len(writers) > 1:
                others = sorted(writers - {program.qualname})
                yield self.finding(
                    ctx,
                    call.lineno,
                    call.col_offset,
                    f"single-writer register {reg_name!r} written from "
                    f"multiple program bodies ({program.qualname!r} and "
                    f"{', '.join(repr(o) for o in others)})",
                )
