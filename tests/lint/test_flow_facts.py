"""Abstract-interpretation facts: registers, accesses, closure, taint."""

from __future__ import annotations

import pytest

from repro.lint.context import build_context
from repro.lint.flow.cfg import build_cfg
from repro.lint.flow.facts import LEAF, OPAQUE, PARAM, ModuleFlow, module_flow


def flow_for(source: str) -> ModuleFlow:
    return module_flow(build_context("<test>", source))


LOCK = """\
class Lock:
    def __init__(self, ns):
        self.x = ns.register("x", 0)
        self.b = ns.array("slots", False)  # repro-lint: single-writer

    def entry(self, pid) -> "Program":
        yield self.b[pid].write(True)
        value = yield self.x.read()
        yield self.x.write(pid)

    def exit(self, pid) -> "Program":
        yield self.x.write(0)
"""


def test_register_table_maps_attr_to_leaf():
    flow = flow_for(LOCK)
    assert flow.registers["x"].leaf == "x"
    assert flow.registers["x"].kind == "register"
    assert not flow.registers["x"].annotated
    # The leaf is the creation-site string, not the attribute name.
    assert flow.registers["b"].leaf == "slots"
    assert flow.registers["b"].kind == "array"
    assert flow.registers["b"].annotated


def test_access_sets_resolve_to_leafs():
    flow = flow_for(LOCK)
    targets, complete = flow.closure_accesses("Lock.entry")
    assert complete
    assert {(t.kind, t.name) for t in targets} == {
        ("write", "slots"),
        ("read", "x"),
        ("write", "x"),
    }


def test_written_leafs_module_wide():
    flow = flow_for(LOCK)
    written, complete = flow.written_leafs()
    assert complete
    assert written == {"slots", "x"}


DELEGATING = """\
def flip(handle) -> "Program":
    yield handle.write(1)

class Lock:
    def __init__(self, ns):
        self.x = ns.register("x", 0)

    def entry(self, pid) -> "Program":
        yield from flip(self.x)
"""


def test_closure_substitutes_call_site_arguments():
    flow = flow_for(DELEGATING)
    # The helper alone only knows a parameter-relative write.
    helper_targets, _ = flow.closure_accesses("flip")
    assert {(t.cls, t.name) for t in helper_targets} == {(PARAM, "handle")}
    # The caller's closure substitutes its concrete handle.
    targets, complete = flow.closure_accesses("Lock.entry")
    assert complete
    assert {(t.cls, t.kind, t.name) for t in targets} == {(LEAF, "write", "x")}


ALIASED = """\
def acquire(flag0, flag1, side) -> "Program":
    my_flag = flag0 if side == 0 else flag1
    yield my_flag.write(True)
"""


def test_alias_map_tracks_handle_threading():
    flow = flow_for(ALIASED)
    facts = flow.facts_for("acquire")
    assert facts.aliases["my_flag"] == {"flag0", "flag1"}
    # The write may target either parameter.
    assert {(t.cls, t.name) for _s, t in facts.accesses} == {
        (PARAM, "flag0"),
        (PARAM, "flag1"),
    }


def test_dynamic_dispatch_is_incomplete():
    flow = flow_for(
        "class Outer:\n"
        "    def entry(self, pid) -> 'Program':\n"
        "        yield from self.inner.entry(pid)\n"
    )
    _targets, complete = flow.closure_accesses("Outer.entry")
    assert not complete


def test_unresolvable_handle_is_opaque():
    flow = flow_for(
        "def entry(pid) -> 'Program':\n"
        "    yield registry[pid].read()\n"
    )
    facts = flow.facts_for("entry")
    ((_site, target),) = [a for a in facts.accesses]
    assert target.cls == OPAQUE


TAINTED = """\
DELTA = 1.0

def entry(pid) -> "Program":
    bound = DELTA * 2
    safety = bound + 1
    clean = 5
    if safety > 2:
        yield ops.delay(safety)
    if clean > 2:
        yield ops.delay(clean)
"""


def test_taint_propagates_through_assignments():
    flow = flow_for(TAINTED)
    facts = flow.facts_for("entry")
    assert {"bound", "safety"} <= facts.tainted_locals
    assert "clean" not in facts.tainted_locals
    assert {(s.kind, s.detail) for s in facts.taint_sites} == {
        ("branch", "safety > 2"),
        ("delay", "safety"),
    }


def test_fact_counts_are_positive_and_stable():
    flow_a = flow_for(LOCK)
    flow_b = flow_for(LOCK)
    nodes_a, nodes_b = (
        sum(len(build_cfg(f.program).nodes) for f in flow.programs.values())
        for flow in (flow_a, flow_b)
    )
    assert nodes_a == nodes_b > 0


def test_module_flow_is_cached_per_context():
    ctx = build_context("<test>", LOCK)
    assert module_flow(ctx) is module_flow(ctx)
