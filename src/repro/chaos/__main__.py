"""``python -m repro.chaos`` — run campaigns, shrink failures, replay artifacts.

Subcommands::

    run     sample campaigns, execute them (--workers N shards the schedule
            range over processes with identical results), optionally
            shrink + archive hits — shrinking and artifacts stay
            single-process, so a parallel-found violation replays through
            the unchanged pipeline
    shrink  re-minimize an existing artifact (e.g. one uploaded by CI)
    replay  re-execute an artifact and verify the violation byte-identically

Exit codes: 0 = expectation met, 1 = violated (a hit under ``--expect
clean``, no hit under ``--expect violation``, or a replay mismatch),
2 = usage error (an empty run — ``--campaigns 0`` or ``--schedules 0`` —
is one, not a vacuous pass).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .artifact import (
    artifact_from_net,
    artifact_from_sim,
    attach_observability,
    load_artifact,
    replay,
    save_artifact,
)
from .plan import (
    sample_net_campaign,
    sample_recover_campaign,
    sample_sim_campaign,
)
from .runner import (
    DEFAULT_MAX_STEPS,
    SIM_TARGETS,
    NetParams,
    run_net_campaign,
    run_sim_campaign,
    sim_target,
)
from .shrink import shrink_net, shrink_sim


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Fault-campaign orchestrator with counterexample shrinking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="sample and execute chaos campaigns")
    run.add_argument("--substrate", choices=("sim", "net"), default="sim")
    run.add_argument(
        "--target",
        default="fischer_n3",
        choices=sorted(SIM_TARGETS),
        help="sim program under test (ignored for net)",
    )
    run.add_argument("--seed", default="chaos", help="campaign family seed")
    run.add_argument("--campaigns", type=int, default=3, metavar="N")
    run.add_argument(
        "--schedules", type=int, default=20, metavar="N",
        help="runs per campaign before declaring it clean",
    )
    run.add_argument("--severity", type=float, default=1.0)
    run.add_argument("--windows", type=int, default=6, metavar="N",
                     help="fault windows per sampled campaign")
    run.add_argument("--crash-prob", type=float, default=0.0)
    run.add_argument("--max-steps", type=int, default=DEFAULT_MAX_STEPS)
    run.add_argument(
        "--expect", choices=("clean", "violation", "recover", "any"),
        default="any",
        help="what outcome is success (drives the exit code); 'recover' "
             "additionally demands a stabilization verdict from every "
             "schedule (recover targets only)",
    )
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="shard each campaign's schedule range over N "
                          "processes; reports are identical to --workers 1 "
                          "(default: 1)")
    run.add_argument("--timing-json", type=Path, default=None, metavar="FILE",
                     help="write per-shard wall/throughput telemetry here")
    run.add_argument("--trace", type=Path, default=None, metavar="FILE",
                     help="write every run's structured trace (repro.obs "
                          "JSONL, global run-index order) here; "
                          "byte-identical across --workers counts "
                          "(sim substrate only)")
    run.add_argument("--shrink", action="store_true",
                     help="minimize the first failing run")
    run.add_argument("--artifact-dir", type=Path, default=None,
                     help="write a repro artifact per failing campaign here")
    run.add_argument("--json", type=Path, default=None,
                     help="write a machine-readable summary here")

    shrink = sub.add_parser("shrink", help="re-minimize an existing artifact")
    shrink.add_argument("artifact", type=Path)
    shrink.add_argument("-o", "--output", type=Path, default=None,
                        help="where to write the shrunk artifact "
                             "(default: overwrite in place)")

    rep = sub.add_parser("replay", help="replay an artifact and verify")
    rep.add_argument("artifact", type=Path)
    rep.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="write the replay's structured trace (repro.obs JSONL) here; "
             "deterministic — same artifact, same bytes",
    )
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from ..parallel import WorkerPool

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    for flag, count in (
        ("--campaigns", args.campaigns), ("--schedules", args.schedules)
    ):
        if count < 1:
            # Zero runs would meet any --expect vacuously.
            print(
                f"an empty campaign explores nothing: {flag} must be "
                f"positive, got {count}",
                file=sys.stderr,
            )
            return 2
    if args.trace is not None and args.substrate != "sim":
        print("--trace is sim-only", file=sys.stderr)
        return 2
    if args.expect == "recover" and (
        args.substrate != "sim" or not sim_target(args.target).recover
    ):
        print(
            "--expect recover needs a sim recover target "
            f"({', '.join(sorted(n for n, t in SIM_TARGETS.items() if t.recover))})",
            file=sys.stderr,
        )
        return 2
    summary: Dict[str, Any] = {
        "substrate": args.substrate,
        "seed": args.seed,
        "campaigns": [],
    }
    hits = 0
    timing: List[Dict[str, Any]] = []
    trace_records: List[Dict[str, Any]] = []
    # One pool for the whole invocation: spawning workers (each imports
    # the package from scratch) dominates, mapping shards is cheap.
    pool = WorkerPool(args.workers) if args.workers > 1 else None
    try:
        hits = _run_campaigns(args, summary, timing, trace_records, pool)
    finally:
        if pool is not None:
            pool.close()
    if args.trace is not None:
        from repro.obs import write_jsonl

        args.trace.parent.mkdir(parents=True, exist_ok=True)
        count = write_jsonl(trace_records, str(args.trace))
        print(f"trace: {count} record(s) -> {args.trace}")
    if args.timing_json is not None:
        args.timing_json.parent.mkdir(parents=True, exist_ok=True)
        args.timing_json.write_text(json.dumps(
            {"workers": args.workers, "substrate": args.substrate,
             "seed": args.seed, "rows": timing},
            indent=2, sort_keys=True) + "\n")
    summary["hits"] = hits
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"{args.campaigns} campaign(s), {hits} with violations")
    if args.expect == "clean" and hits:
        return 1
    if args.expect == "violation" and not hits:
        return 1
    if args.expect == "recover" and (
        hits or not all(e.get("converged") for e in summary["campaigns"])
    ):
        return 1
    return 0


def _run_campaigns(
    args: argparse.Namespace,
    summary: Dict[str, Any],
    timing: List[Dict[str, Any]],
    trace_records: List[Dict[str, Any]],
    pool,
) -> int:
    hits = 0
    for index in range(args.campaigns):
        campaign_seed = f"{args.seed}-{index}"
        if args.substrate == "sim":
            target = sim_target(args.target)
            if target.recover:
                # Recover targets get the fault mix they exist for:
                # corruption bursts plus crash/restart pairs, all inside
                # a declared transient prefix.
                campaign = sample_recover_campaign(
                    campaign_seed,
                    pids=target.pids,
                    corruption_registers=target.corruptible,
                )
            else:
                campaign = sample_sim_campaign(
                    campaign_seed,
                    pids=target.pids,
                    windows=args.windows,
                    severity=args.severity,
                    crash_prob=args.crash_prob,
                )
            report = run_sim_campaign(
                target, campaign,
                schedules=args.schedules, max_steps=args.max_steps,
                workers=args.workers, pool=pool,
                trace=args.trace is not None,
            )
            for _run_index, records in report.trace_chunks:
                trace_records.extend(records)
        else:
            params = NetParams()
            campaign = sample_net_campaign(
                campaign_seed, clients=params.clients,
                replicas=params.replicas, severity=args.severity,
            )
            report = run_net_campaign(
                campaign, schedules=args.schedules, params=params,
                workers=args.workers, pool=pool,
            )
        if report.shard_timing:
            timing.extend(report.shard_timing)
        entry: Dict[str, Any] = {
            "seed": campaign_seed,
            "faults": campaign.fault_count,
            "schedules_run": report.schedules_run,
            "ok": report.ok,
        }
        if args.substrate == "sim" and sim_target(args.target).recover:
            entry["verdicts"] = report.verdicts
            entry["converged"] = report.converged
            if report.first_verdict is not None:
                entry["first_verdict"] = {
                    "monitor": report.first_verdict.monitor,
                    "message": report.first_verdict.message,
                    "step": report.first_verdict.step,
                }
        print(f"[{campaign_seed}] {campaign.describe()}")
        if report.ok:
            if "converged" in entry:
                status = "converged" if entry["converged"] else "NOT CONVERGED"
                print(
                    f"  {status}: {report.verdicts}/{report.schedules_run} "
                    f"schedule(s) produced a stabilization verdict"
                )
            else:
                print(f"  clean after {report.schedules_run} schedule(s)")
        else:
            hits += 1
            outcome = report.failing
            violation = outcome.violations[0]
            entry["violation"] = {
                "monitor": violation.monitor,
                "message": violation.message,
                "step": violation.step,
            }
            entry["run_seed"] = outcome.run_seed
            print(f"  VIOLATION ({violation.monitor}): {violation.message}")
            print(f"  run_seed={outcome.run_seed!r}")
            shrunk = None
            if args.shrink:
                if args.substrate == "sim":
                    shrunk = shrink_sim(
                        target, campaign, outcome.schedule,
                        monitor=violation.monitor, max_steps=args.max_steps,
                    )
                else:
                    shrunk = shrink_net(
                        campaign, outcome.workload,
                        monitor=violation.monitor, params=params,
                        run_seed=outcome.run_seed,
                    )
                if shrunk is not None:
                    entry["shrink"] = shrunk.summary()
                    print(f"  shrunk: {shrunk.summary()}")
            if args.artifact_dir is not None:
                if args.substrate == "sim":
                    artifact = artifact_from_sim(
                        args.target, outcome, violation=violation,
                        shrunk=shrunk, max_steps=args.max_steps,
                    )
                else:
                    artifact = artifact_from_net(
                        outcome, params, violation=violation, shrunk=shrunk
                    )
                # Embed the observability sidecars (timeliness graph and,
                # for net, transport counters) by re-running the archived
                # triple under a local tracer — deterministic, so the
                # sidecars always match what `replay --trace` reproduces.
                artifact = attach_observability(artifact)
                path = args.artifact_dir / f"{args.substrate}_{campaign_seed}.json"
                save_artifact(artifact, path)
                entry["artifact"] = str(path)
                print(f"  artifact: {path}")
        summary["campaigns"].append(entry)
    return hits


def _cmd_shrink(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.artifact)
    if artifact.substrate == "sim":
        shrunk = shrink_sim(
            sim_target(artifact.target), artifact.campaign,
            artifact.payload, monitor=artifact.violation.monitor,
            max_steps=artifact.max_steps,
        )
    else:
        shrunk = shrink_net(
            artifact.campaign, artifact.payload,
            monitor=artifact.violation.monitor,
            params=artifact.net_params or NetParams(),
            run_seed=artifact.run_seed,
        )
    if shrunk is None:
        print("violation did not reproduce; nothing to shrink", file=sys.stderr)
        return 1
    from dataclasses import replace as dc_replace

    updated = dc_replace(
        artifact,
        campaign=shrunk.campaign,
        payload=shrunk.payload,
        violation=shrunk.violation,
        provenance={**artifact.provenance, "re_shrink": shrunk.summary()},
    )
    destination = args.output or args.artifact
    save_artifact(updated, destination)
    print(f"shrunk: {shrunk.summary()}")
    print(f"wrote {destination}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    artifact = load_artifact(args.artifact)
    if args.trace is not None:
        from repro.obs import Tracer, trace_scope, write_jsonl

        tracer = Tracer()
        with trace_scope(tracer):
            report = replay(artifact)
        args.trace.parent.mkdir(parents=True, exist_ok=True)
        count = write_jsonl(tracer.take(), str(args.trace))
        print(f"trace: {count} record(s) -> {args.trace}")
    else:
        report = replay(artifact)
    print(report.detail)
    return 0 if report.ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "shrink":
        return _cmd_shrink(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
