"""Flow rules TMF101-104: fixtures, suppression, and always-on selection."""

from __future__ import annotations

import os

import pytest

from repro.lint import lint_file, lint_source
from repro.lint.cli import main

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def codes_and_lines(findings):
    return [(f.code, f.line) for f in findings]


#: fixture file -> exact (code, line) expectations.
FLOW_EXPECTED = {
    "tmf101_bad.py": [
        ("TMF101", 10),  # while True, no exit at all
        ("TMF101", 14),  # spin on a register nobody writes
    ],
    "tmf102_bad.py": [
        ("TMF102", 11),  # tainted branch
        ("TMF102", 12),  # tainted delay duration
    ],
    "tmf103_bad.py": [
        ("TMF103", 9),  # bare floor-half majority assignment
        ("TMF103", 13),  # constant threshold below majority for quorum-n=5
        ("TMF103", 16),  # inline floor-half reply wait
    ],
    "tmf104_bad.py": [
        ("TMF104", 19),  # annotated array delegated with a foreign index
        ("TMF104", 20),  # scalar writer root #1 (via delegation)
        ("TMF104", 23),  # scalar writer root #2 (via delegation)
    ],
}


@pytest.mark.parametrize("name", sorted(FLOW_EXPECTED))
def test_flow_rule_fires_at_seeded_lines(name):
    # No option enables the flow rules: a plain lint_file applies them.
    findings = lint_file(fixture(name))
    assert codes_and_lines(findings) == FLOW_EXPECTED[name]


@pytest.mark.parametrize(
    "name",
    [bad.replace("_bad", "_suppressed") for bad in sorted(FLOW_EXPECTED)],
)
def test_flow_suppression_comment_silences(name):
    assert lint_file(fixture(name)) == []


def test_flow_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--flow", fixture("tmf101_bad.py")])
    assert exc.value.code == 2
    assert "--flow" in capsys.readouterr().err


def test_spin_on_written_register_is_clean():
    # Fischer's shape: the spin register is written elsewhere in the
    # module, so another process can always release the loop.
    source = (
        "class Lock:\n"
        "    def __init__(self, ns):\n"
        "        self.x = ns.register('x', 0)\n"
        "    def entry(self, pid) -> 'Program':\n"
        "        while True:\n"
        "            value = yield self.x.read()\n"
        "            if value == 0:\n"
        "                break\n"
        "        yield self.x.write(pid)\n"
        "    def exit(self, pid) -> 'Program':\n"
        "        yield self.x.write(0)\n"
    )
    assert lint_source(source) == []


def test_counter_bounded_spin_is_clean():
    # An exit through a locally-advanced counter is register-independent.
    source = (
        "class Lock:\n"
        "    def __init__(self, ns):\n"
        "        self.dead = ns.register('dead', 0)\n"
        "    def entry(self, pid) -> 'Program':\n"
        "        polls = 0\n"
        "        while True:\n"
        "            value = yield self.dead.read()\n"
        "            polls = polls + 1\n"
        "            if value == 1 or polls > 10:\n"
        "                break\n"
    )
    assert lint_source(source) == []


def test_delta_taint_silent_without_declaration():
    source = (
        "DELTA = 1.0\n"
        "def entry(pid) -> 'Program':\n"
        "    if DELTA > 1:\n"
        "        yield ops.delay(DELTA)\n"
    )
    assert lint_source(source) == []


def test_proper_majority_is_clean():
    source = (
        "# repro-lint: messages-only\n"
        "class Q:\n"
        "    def __init__(self, n):\n"
        "        self.majority = n // 2 + 1\n"
        "    def query(self, pid) -> 'Program':\n"
        "        acks = {}\n"
        "        while len(acks) < self.majority:\n"
        "            src, message = yield ops.recv()\n"
        "            acks[src] = message\n"
    )
    assert lint_source(source) == []


def test_own_pid_delegation_is_clean():
    source = (
        "def mark(slot, i) -> 'Program':\n"
        "    yield slot[i].write(True)\n"
        "class Lock:\n"
        "    def __init__(self, ns):\n"
        "        self.flags = ns.array('flags', False)  # repro-lint: single-writer\n"
        "    def entry(self, pid) -> 'Program':\n"
        "        yield from mark(self.flags, pid)\n"
    )
    assert lint_source(source) == []


def test_pid_sensitivity_propagates_through_chains():
    # entry -> outer(j) -> mark(slot, i): j must be the caller's own pid.
    source = (
        "def mark(slot, i) -> 'Program':\n"
        "    yield slot[i].write(True)\n"
        "def outer(slots, j) -> 'Program':\n"
        "    yield from mark(slots, j)\n"
        "class Lock:\n"
        "    def __init__(self, ns):\n"
        "        self.flags = ns.array('flags', False)  # repro-lint: single-writer\n"
        "    def entry(self, pid) -> 'Program':\n"
        "        yield from outer(self.flags, pid + 1)\n"
    )
    findings = lint_source(source)
    assert [(f.code, f.line) for f in findings] == [("TMF104", 9)]


def test_shipped_tree_is_flow_clean():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    from repro.lint import lint_paths

    findings = lint_paths([os.path.join(root, "src"), os.path.join(root, "examples")])
    assert findings == [], "\n" + "\n".join(f.render() for f in findings)
