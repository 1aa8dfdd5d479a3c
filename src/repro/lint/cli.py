"""Command-line front end: ``python -m repro.lint <paths>``.

Every rule runs, the flow rules (TMF101...) included.  Exit codes: 0
clean, 1 findings reported, 2 usage error (a path that does not exist
is one).  ``--format json`` emits a machine-readable document for CI
annotation; ``--select`` and ``--ignore`` narrow the rule set by code;
``--output`` writes the report to a file so CI can upload it as an
artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from . import iter_python_files, lint_file
from .findings import Finding
from .registry import all_rules, resolve_codes
from .report import render_json, render_text

__all__ = ["main", "build_parser"]

_EPILOG = """\
exit codes:
  0  clean — no findings
  1  findings reported (any severity)
  2  usage error (bad paths, unknown rule codes, unreadable files)
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static model-conformance analyzer for timing-based "
            "shared-memory algorithm programs (rules TMF001...)."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (directories are walked for .py)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="CODES",
        help="comma-separated rule codes to run exclusively (e.g. TMF001,TMF004)",
    )
    parser.add_argument(
        "--ignore",
        metavar="CODES",
        help="comma-separated rule codes to skip",
    )
    parser.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout (CI artifacts)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    return parser


def _list_rules() -> str:
    lines = []
    for rule in all_rules():
        lines.append(f"{rule.code} [{rule.severity.value}] {rule.name}")
        lines.append(f"    {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        print("error: no paths given", file=sys.stderr)
        return 2
    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        select = resolve_codes(args.select) if args.select else None
        ignore = resolve_codes(args.ignore) if args.ignore else None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings: List[Finding] = []
    files_checked = 0
    for filename in iter_python_files(args.paths):
        files_checked += 1
        try:
            findings.extend(lint_file(filename, select=select, ignore=ignore))
        except OSError as exc:
            print(f"error: cannot read {filename}: {exc}", file=sys.stderr)
            return 2
    if files_checked == 0:
        print("error: no Python files found under the given paths", file=sys.stderr)
        return 2
    if args.format == "json":
        report = render_json(findings, files_checked)
    else:
        report = render_text(findings, files_checked)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
            return 2
    else:
        print(report)
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
