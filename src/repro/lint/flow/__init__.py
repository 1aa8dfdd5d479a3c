"""``repro.lint.flow`` — CFG-based semantic analysis of algorithm programs.

The syntactic rules of :mod:`repro.lint.rules` (TMF001–TMF007)
pattern-match AST shapes in isolation.  This subpackage adds a
*semantic* layer: every program is compiled to a control-flow graph over
the yield-op DSL (:mod:`repro.lint.flow.cfg`), and a small abstract-
interpretation pass (:mod:`repro.lint.flow.facts`) derives op-level
facts from it —

* the **register table** (creation sites, their runtime leaf names and
  ``single-writer`` annotations — TMF006 and TMF104 both read it),
* per-program **access sets** (which registers each program may read or
  write, with array-index classification),
* **loop structure** (which loops contain yields, how they exit, which
  read-bound values their exits test),
* a **Δ-taint lattice** tracking which locals/branches/delays derive
  from timing parameters,
* the **delegation graph** over ``yield from`` edges, which makes the
  access sets interprocedural (with call-site argument substitution, so
  register handles threaded through helper parameters resolve to their
  creation-site names).

On top of the facts live the flow rules TMF101–TMF104 (in
:mod:`repro.lint.rules`; every lint run applies them) and the
static↔dynamic cross-validation harness
(:mod:`repro.lint.flow.xcheck`), which replays every registered
algorithm on the simulation engine and fails on any contradiction
between the static claims and the observed trace.
"""

from __future__ import annotations

from .cfg import Cfg, CfgNode, LoopInfo, OpSite, build_cfg, classify_yield
from .facts import (
    ModuleFlow,
    ProgramFacts,
    RegisterDecl,
    TaintSite,
    module_flow,
)

__all__ = [
    "Cfg",
    "CfgNode",
    "LoopInfo",
    "OpSite",
    "build_cfg",
    "classify_yield",
    "ModuleFlow",
    "ProgramFacts",
    "RegisterDecl",
    "TaintSite",
    "module_flow",
]
