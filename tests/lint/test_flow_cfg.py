"""CFG construction: node/edge shapes, loop anatomy, yield classification."""

from __future__ import annotations

import ast

import pytest

from repro.lint.context import build_context
from repro.lint.flow import build_cfg
from repro.lint.flow import cfg as cfg_mod


def cfg_for(source: str, name: str = "entry"):
    ctx = build_context("<test>", source)
    for program in ctx.programs:
        if program.name == name:
            return build_cfg(program)
    raise AssertionError(f"no program named {name}")


def kinds(cfg):
    return [op.kind for op in cfg.op_sites()]


def test_straight_line_ops_in_order():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    yield reg.read()\n"
        "    yield reg.write(1)\n"
        "    yield ops.delay(0.5)\n"
        "    yield ops.local_work(1)\n"
        "    yield ops.label('CS')\n"
        "    yield ops.nap(self.poll)\n"
    )
    # A nap is a delay to the flow analysis, duration argument included.
    assert kinds(cfg) == ["read", "write", "delay", "local", "label", "delay"]
    assert ast.unparse(cfg.op_sites()[-1].argument) == "self.poll"


def test_read_binds_local_and_register_handle():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    value = yield self.x.read()\n"
    )
    (site,) = cfg.op_sites()
    assert site.kind == cfg_mod.OP_READ
    assert site.bound_to == "value"
    assert ast.unparse(site.register) == "self.x"


def test_array_cell_handle_and_index():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    yield self.b[pid].write(True)\n"
    )
    (site,) = cfg.op_sites()
    assert site.kind == cfg_mod.OP_WRITE
    assert ast.unparse(site.index) == "pid"


def test_while_true_has_no_fall_through():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    while True:\n"
        "        yield reg.read()\n"
        "    yield reg.write(1)\n"  # unreachable
    )
    assert kinds(cfg) == ["read"]  # the write is not reachable
    assert sorted(kinds_all(cfg)) == ["read", "write"]


def kinds_all(cfg):
    return [op.kind for op in cfg.op_sites(reachable_only=False)]


def test_loop_info_records_guarded_break():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    while True:\n"
        "        value = yield reg.read()\n"
        "        if value == 0:\n"
        "            break\n"
    )
    (info,) = cfg.loops
    assert info.has_break and not info.has_return
    assert not info.test_falsifiable
    assert info.has_exit
    (chain,) = info.exit_guards
    assert [ast.unparse(c) for c in chain] == ["value == 0"]


def test_loop_info_no_exit():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    while True:\n"
        "        yield reg.read()\n"
    )
    (info,) = cfg.loops
    assert not info.has_exit


def test_for_loop_always_has_exit():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    for _ in range(3):\n"
        "        yield reg.read()\n"
    )
    (info,) = cfg.loops
    assert info.is_for and info.has_exit


def test_return_inside_loop_is_an_exit():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    while True:\n"
        "        value = yield reg.read()\n"
        "        if value:\n"
        "            return\n"
    )
    (info,) = cfg.loops
    assert info.has_return and info.has_exit


def test_conditional_yield_produces_two_sites():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    yield a.read() if fast else b.read()\n"
    )
    sites = cfg.op_sites()
    assert [s.kind for s in sites] == ["read", "read"]
    assert {ast.unparse(s.register) for s in sites} == {"a", "b"}


def test_yield_from_call_site():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    yield from helper(self.b, pid)\n"
    )
    (site,) = cfg.op_sites()
    assert site.kind == cfg_mod.OP_DELEGATE
    assert site.call is not None
    assert ast.unparse(site.register) == "helper"


def test_try_body_links_to_handlers():
    cfg = cfg_for(
        "def entry(pid) -> 'Program':\n"
        "    try:\n"
        "        yield reg.read()\n"
        "    except TimeoutError:\n"
        "        yield reg.write(0)\n"
    )
    assert sorted(kinds(cfg)) == ["read", "write"]


def test_message_ops_classified():
    cfg = cfg_for(
        "def query(pid) -> 'Program':\n"
        "    yield ops.broadcast('m')\n"
        "    got = yield ops.recv()\n"
        "    yield ops.send(1, 'ack')\n",
        name="query",
    )
    assert kinds(cfg) == ["broadcast", "recv", "send"]


def test_nested_scope_yields_belong_to_inner_program():
    source = (
        "def entry(pid) -> 'Program':\n"
        "    def inner():\n"
        "        yield reg.write(1)\n"
        "    yield reg.read()\n"
    )
    assert kinds(cfg_for(source)) == ["read"]
    assert kinds(cfg_for(source, name="inner")) == ["write"]


def test_node_count_is_deterministic():
    source = (
        "def entry(pid) -> 'Program':\n"
        "    while True:\n"
        "        value = yield reg.read()\n"
        "        if value:\n"
        "            break\n"
    )
    assert len(cfg_for(source).nodes) == len(cfg_for(source).nodes) > 0
