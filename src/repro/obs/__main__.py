"""CLI for stored traces: ``python -m repro.obs summarize|convert|timeliness``.

All subcommands read a JSONL trace produced by ``--trace FILE`` on the
chaos/fuzz CLIs (or :func:`repro.obs.write_jsonl` directly) and are
deterministic: same trace bytes in, same bytes out.

  summarize TRACE [--json]           metrics document / human summary
  convert TRACE -o OUT.json          Chrome trace-event JSON (Perfetto)
  timeliness TRACE [--delta D] [--json]
                                     timeliness-graph report

Exit codes: 0 on success, 2 on unreadable, empty or malformed input (a
record that is not an object, lacks a field or holds one of the wrong
type).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.obs.export import read_jsonl, write_chrome_trace
from repro.obs.metrics import compute_metrics, format_summary
from repro.obs.timeliness import format_timeliness, mine_timeliness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Inspect stored JSONL traces: metrics, Perfetto export, "
        "timeliness-graph mining.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    summarize = sub.add_parser(
        "summarize", help="fold a trace into its metrics document"
    )
    summarize.add_argument("trace", help="JSONL trace file")
    summarize.add_argument(
        "--json", action="store_true", help="emit the metrics document as JSON"
    )

    convert = sub.add_parser(
        "convert", help="convert a trace to Chrome trace-event JSON (Perfetto)"
    )
    convert.add_argument("trace", help="JSONL trace file")
    convert.add_argument(
        "-o", "--output", required=True, help="output .json path"
    )

    timeliness = sub.add_parser(
        "timeliness", help="mine the trace's timeliness graph"
    )
    timeliness.add_argument("trace", help="JSONL trace file")
    timeliness.add_argument(
        "--delta",
        type=float,
        default=None,
        help="classify links against this Δ instead of mining one",
    )
    timeliness.add_argument(
        "--substrate",
        choices=("sim", "net", "steps"),
        default=None,
        help="override substrate inference",
    )
    timeliness.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    return parser


def _load(path: str) -> Optional[list]:
    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read trace {path!r}: {exc}", file=sys.stderr)
        return None
    if not records:
        print(f"error: trace {path!r} is empty", file=sys.stderr)
        return None
    for index, record in enumerate(records, 1):
        if not isinstance(record, dict):
            print(f"error: trace {path!r}: record {index} is not an object",
                  file=sys.stderr)
            return None
    return records


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    records = _load(args.trace)
    if records is None:
        return 2
    try:
        return _run(args, records)
    except KeyError as exc:
        problem = f"a record lacks field {exc.args[0]!r}"
    except (TypeError, ValueError) as exc:
        problem = f"a record holds an ill-typed field: {exc}"
    print(f"error: trace {args.trace!r}: {problem}", file=sys.stderr)
    return 2


def _run(args: argparse.Namespace, records: list) -> int:
    if args.command == "summarize":
        metrics = compute_metrics(records)
        if args.json:
            print(json.dumps(metrics, sort_keys=True, separators=(",", ":")))
        else:
            print(format_summary(metrics))
        return 0

    if args.command == "convert":
        count = write_chrome_trace(records, args.output)
        print(f"wrote {count} trace events to {args.output}")
        return 0

    # timeliness
    report = mine_timeliness(records, substrate=args.substrate, delta=args.delta)
    if args.json:
        print(json.dumps(report, sort_keys=True, separators=(",", ":")))
    else:
        print(format_timeliness(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
