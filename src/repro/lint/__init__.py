"""``repro.lint`` — static model-conformance analysis for algorithm programs.

Every algorithm in this repo is a Python generator that must obey the
paper's model: shared memory is touched only through yielded atomic-
register ops, time only through ``delay``/``local_work``, determinism is
absolute, and modules claiming the paper's registers-only results must
not smuggle in stronger primitives.  Nothing about Python enforces any
of that — this package does, from source, before a single schedule runs.

Programmatic use::

    from repro import lint
    findings = lint.lint_paths(["src/repro/algorithms", "examples"])

Command line::

    python -m repro.lint src examples
    python -m repro.lint --format json src/repro/core

Suppressions (see :mod:`repro.lint.context` for the full syntax)::

    value = yield  # repro-lint: disable=TMF001
    # repro-lint: disable-file=TMF005

The rule set lives in :mod:`repro.lint.rules`; codes are stable
(``TMF001``…).  Every run applies every rule: the syntactic checks
TMF001–TMF007 and the flow rules TMF101–TMF104, which read the per-module
fact base of :mod:`repro.lint.flow`.  ``select``/``ignore`` narrow the
set.  ``docs/TESTING.md`` documents every rule.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from .context import ModuleContext, build_context
from .findings import Finding, Severity
from .registry import Rule, all_rules, resolve_codes

__all__ = [
    "Finding",
    "Severity",
    "Rule",
    "all_rules",
    "lint_source",
    "lint_file",
    "lint_paths",
    "iter_python_files",
]

#: Directory names never descended into when walking paths.
_SKIP_DIRS = {
    "__pycache__",
    ".git",
    ".pytest_cache",
    ".mypy_cache",
    "build",
    "dist",
}


def _selected_rules(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.code in wanted]
    if ignore:
        unwanted = set(ignore)
        rules = [r for r in rules if r.code not in unwanted]
    return rules


def _apply_suppressions(
    ctx: ModuleContext, findings: Iterable[Finding]
) -> List[Finding]:
    per_line = ctx.line_suppressions()
    per_file = ctx.file_suppressions()
    kept: List[Finding] = []
    for finding in findings:
        if "all" in per_file or finding.code in per_file:
            continue
        on_line = per_line.get(finding.line, ())
        if "all" in on_line or finding.code in on_line:
            continue
        kept.append(finding)
    return kept


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one module given as text; returns sorted findings.

    A file that fails to parse produces a single ``TMF000`` syntax
    finding rather than raising — the analyzer must be runnable over a
    broken tree (that is when it is most needed).
    """
    try:
        ctx = build_context(path, source)
    except SyntaxError as exc:
        return [
            Finding(
                code="TMF000",
                message=f"file does not parse: {exc.msg}",
                path=path,
                line=exc.lineno or 1,
                column=exc.offset or 1,
                severity=Severity.ERROR,
                rule="syntax",
            )
        ]
    findings: List[Finding] = []
    for rule in _selected_rules(select, ignore):
        findings.extend(rule.check(ctx))
    return sorted(_apply_suppressions(ctx, findings), key=lambda f: f.sort_key)


def lint_file(
    path: str,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file on disk."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source(source, path=path, select=select, ignore=ignore)


def iter_python_files(paths: Sequence[str]) -> Iterable[str]:
    """Expand files and directories into a sorted stream of ``.py`` files."""
    seen = set()
    for path in paths:
        if os.path.isfile(path):
            if path not in seen:
                seen.add(path)
                yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in _SKIP_DIRS and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if not filename.endswith(".py"):
                    continue
                full = os.path.join(dirpath, filename)
                if full not in seen:
                    seen.add(full)
                    yield full


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` with every rule; the main
    programmatic API (:func:`lint_file` takes ``select``/``ignore``)."""
    findings: List[Finding] = []
    for filename in iter_python_files(paths):
        findings.extend(lint_file(filename))
    return sorted(findings, key=lambda f: f.sort_key)
