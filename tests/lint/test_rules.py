"""Fixture-based tests: each rule fires at the seeded lines, and its
suppression comment silences it.

The fixtures under ``fixtures/`` are never imported — the analyzer reads
source only — so they are free to contain deliberately broken programs.
"""

from __future__ import annotations

import os

import pytest

from repro.lint import lint_file

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture(name: str) -> str:
    return os.path.join(FIXTURES, name)


def codes_and_lines(findings):
    return [(f.code, f.line) for f in findings]


#: fixture file -> exact (code, line) expectations, in sorted order.
EXPECTED = {
    "tmf001_bad.py": [
        ("TMF001", 11),  # bare yield
        ("TMF001", 12),  # yield 42
        ("TMF001", 13),  # yield [op]
        ("TMF001", 17),  # annotation-classified program yielding a name
    ],
    "tmf002_bad.py": [
        ("TMF002", 4),  # banned import
        ("TMF002", 9),  # fetch_and_add by name
        ("TMF002", 13),  # ops.compare_and_swap by attribute
    ],
    "tmf002_msgonly_bad.py": [
        ("TMF002", 4),  # Register import in a messages-only module
        ("TMF002", 10),  # ns.register(...) creation
        ("TMF002", 12),  # RMW reference
    ],
    "tmf002_regonly_net_bad.py": [
        ("TMF002", 4),  # message helper import in a registers-only module
        ("TMF002", 10),  # ops.broadcast call
        ("TMF002", 11),  # imported send call
        ("TMF002", 12),  # Recv class reference
    ],
    "tmf002_conflict_bad.py": [
        ("TMF002", 2),  # both substrate directives at once
    ],
    "tmf003_bad.py": [
        ("TMF003", 9),  # mutable default argument
        ("TMF003", 11),  # self attribute assignment
        ("TMF003", 12),  # append on module global
        ("TMF003", 13),  # subscript write into self state
        ("TMF003", 16),  # global declaration
    ],
    "tmf004_bad.py": [
        ("TMF004", 11),  # random.random()
        ("TMF004", 12),  # time.time()
        ("TMF004", 13),  # urandom via from-import
    ],
    "tmf005_bad.py": [
        ("TMF005", 7),  # delay(1.5)
        ("TMF005", 8),  # ops.delay(0)
        ("TMF005", 11),  # Delay(-2)
        ("TMF005", 12),  # ops.nap(0.005)
    ],
    "tmf006_bad.py": [
        ("TMF006", 11),  # foreign array cell
        ("TMF006", 12),  # scalar writer body #1
        ("TMF006", 15),  # scalar writer body #2
    ],
    "tmf006_msgonly_bad.py": [
        ("TMF006", 4),  # dangling single-writer in a messages-only module
    ],
    "tmf007_bad.py": [
        ("TMF007", 11),  # after continue
        ("TMF007", 16),  # after return
    ],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_rule_fires_at_seeded_lines(name):
    findings = lint_file(fixture(name))
    assert codes_and_lines(findings) == EXPECTED[name]


@pytest.mark.parametrize(
    "name",
    [bad.replace("_bad", "_suppressed") for bad in sorted(EXPECTED)],
)
def test_suppression_comment_silences(name):
    assert lint_file(fixture(name)) == []


def test_conformant_program_is_clean():
    assert lint_file(fixture("clean.py")) == []


def test_clean_fixture_exercises_the_rules_it_claims():
    # Guard against the clean fixture passing because nothing was
    # recognized as a program at all.
    from repro.lint.context import build_context

    with open(fixture("clean.py")) as handle:
        ctx = build_context("clean.py", handle.read())
    program_names = {p.qualname for p in ctx.programs if p.is_program}
    assert {"ConformantLock.entry", "ConformantLock.exit", "ConformantLock.unlock"} <= (
        program_names
    )


def test_severities():
    by_code = {f.code: f for f in lint_file(fixture("tmf005_bad.py"))}
    assert by_code["TMF005"].severity.value == "warning"
    by_code = {f.code: f for f in lint_file(fixture("tmf002_bad.py"))}
    assert by_code["TMF002"].severity.value == "error"
