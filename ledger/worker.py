"""Run ONE workload in this process and print its result as one JSON line.

``ledger/run.py`` starts this file in a fresh subprocess per repetition,
so every run pays its own imports and set-up (that is ``setup_s``) and no
state leaks between repetitions.  One process, one thread, one asyncio
loop: the box has two cores and the load generator shares the loop with
the service, as ``python -m repro.serve load`` does.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"ledger: no program to measure at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from harness import Context, Outcome
    from workloads import runner

    ctx = Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        traced=args.traced,
        smoke=args.smoke,
        setup_only=args.setup_only,
        spawned_at=args.spawned_at,
    )
    out = Outcome()
    try:
        runner(args.workload)(ctx, out)
    except Exception as exc:  # the run boundary: report, never hang the parent
        import traceback

        traceback.print_exc()
        out.check(False, f"workload raised {type(exc).__name__}: {exc}")
    document = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": args.traced,
        "smoke": args.smoke,
        "setup_s": ctx.setup_s,
        "setup_cpu_s": ctx.setup_cpu_s,
        "setup_kernel_s": ctx.setup_kernel_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": out.attempted,
        "failed": out.failed,
        "errors": out.errors,
        "window_s": out.window_s,
        "e2e": out.e2e,
        "layers": out.layers,
        "counts": out.counts,
        "info": out.info,
    }
    print(json.dumps(document, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
