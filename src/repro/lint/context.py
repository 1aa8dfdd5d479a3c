"""Per-module analysis context shared by every rule.

One :class:`ModuleContext` is built per linted file: the parsed AST, the
source lines, the ``# repro-lint:`` directives found by a proper token
scan (so directives inside string literals are ignored), and the program
table from :mod:`repro.lint.programs`.  Rules receive the context and
emit findings; suppression filtering happens centrally afterwards, so
rules never need to know about disable comments.

Directive syntax (all as comments, anywhere on the relevant line)::

    # repro-lint: disable=TMF001          suppress code(s) on this line
    # repro-lint: disable=TMF001,TMF004   several codes
    # repro-lint: disable=all             everything on this line
    # repro-lint: disable-file=TMF002     suppress code(s) in whole file
    # repro-lint: registers-only          declare module registers-only
    # repro-lint: messages-only           declare module messages-only
    # repro-lint: single-writer           annotate a register creation
    # repro-lint: failure-tolerant        declare module Δ-independent
    # repro-lint: quorum-n=K              declare the replica count

Prose may follow a bare directive after two or more spaces or an em
dash, so pragmas can carry their justification inline.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from .programs import ProgramInfo, find_programs

__all__ = ["Directive", "ModuleContext", "build_context"]

_DIRECTIVE_RE = re.compile(r"#\s*repro-lint:\s*(?P<body>[^#]*)")

# A directive body is the first whitespace/dash-delimited token; anything
# after "  " or an em/double dash is human justification, not syntax.
_BODY_SPLIT_RE = re.compile(r"\s{2,}|\s+[—–-]{1,2}\s+")

@dataclass(frozen=True)
class Directive:
    """One parsed ``# repro-lint:`` comment."""

    name: str  # "disable", "disable-file", "registers-only", "single-writer"
    codes: Tuple[str, ...]  # for disable forms; empty otherwise
    line: int  # 1-based line the comment sits on


def _parse_directive(comment: str, line: int) -> Optional[Directive]:
    match = _DIRECTIVE_RE.search(comment)
    if match is None:
        return None
    body = _BODY_SPLIT_RE.split(match.group("body").strip())[0].strip()
    if not body:
        return None
    if "=" in body:
        name, _, raw = body.partition("=")
        codes = tuple(c.strip() for c in raw.split(",") if c.strip())
        return Directive(name=name.strip(), codes=codes, line=line)
    return Directive(name=body, codes=(), line=line)


def scan_directives(source: str) -> List[Directive]:
    """Token-scan ``source`` for ``# repro-lint:`` comments.

    Uses :mod:`tokenize` rather than a per-line regex so that directive
    look-alikes inside string literals are never misread.  A file that
    fails to tokenize yields no directives (the caller will already have
    failed to parse it).
    """
    directives: List[Directive] = []
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type == tokenize.COMMENT:
                directive = _parse_directive(tok.string, tok.start[0])
                if directive is not None:
                    directives.append(directive)
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return []
    return directives


@dataclass
class ModuleContext:
    """Everything a rule may inspect about one module."""

    path: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    directives: List[Directive] = field(default_factory=list)
    programs: List[ProgramInfo] = field(default_factory=list)

    # -- directive queries -------------------------------------------------

    @property
    def registers_only(self) -> bool:
        """True when the module declares itself registers-only."""
        return any(d.name == "registers-only" for d in self.directives)

    @property
    def messages_only(self) -> bool:
        """True when the module declares itself messages-only.

        Messages-only modules (the :mod:`repro.net` substrate) speak raw
        ``send``/``recv``/``broadcast`` and must not create or own shared
        registers — the converse of ``registers-only``.
        """
        return any(d.name == "messages-only" for d in self.directives)

    @property
    def failure_tolerant(self) -> bool:
        """True when the module claims independence from timing bounds.

        A ``# repro-lint: failure-tolerant`` module implements one of the
        paper's wait-free / timing-failure-tolerant results, so nothing
        in it may branch or delay on a Δ-derived value (rule TMF102).
        """
        return any(d.name == "failure-tolerant" for d in self.directives)

    @property
    def quorum_n(self) -> Optional[int]:
        """Declared replica count from ``# repro-lint: quorum-n=K``."""
        for d in self.directives:
            if d.name == "quorum-n" and d.codes:
                try:
                    return int(d.codes[0])
                except ValueError:
                    return None
        return None

    def directive_lines(self, name: str) -> List[int]:
        """Lines carrying the named directive, in file order."""
        return [d.line for d in self.directives if d.name == name]

    @property
    def single_writer_lines(self) -> Set[int]:
        """Lines carrying a ``single-writer`` register annotation."""
        return {d.line for d in self.directives if d.name == "single-writer"}

    def line_suppressions(self) -> Dict[int, Set[str]]:
        """Map line -> codes suppressed on that line ('all' wildcard)."""
        out: Dict[int, Set[str]] = {}
        for d in self.directives:
            if d.name == "disable":
                out.setdefault(d.line, set()).update(d.codes or {"all"})
        return out

    def file_suppressions(self) -> Set[str]:
        """Codes suppressed for the entire file."""
        out: Set[str] = set()
        for d in self.directives:
            if d.name == "disable-file":
                out.update(d.codes or {"all"})
        return out


def build_context(path: str, source: str) -> ModuleContext:
    """Parse ``source`` and assemble the rule-facing context.

    Raises :class:`SyntaxError` when the file does not parse; the lint
    driver converts that into a finding rather than crashing the run.
    """
    tree = ast.parse(source, filename=path)
    return ModuleContext(
        path=path,
        source=source,
        tree=tree,
        lines=source.splitlines(),
        directives=scan_directives(source),
        programs=find_programs(tree),
    )
