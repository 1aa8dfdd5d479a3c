"""Randomized schedule exploration (interleaving fuzzing).

Exhaustive exploration (:func:`repro.verify.explorer.explore`) is the
gold standard but tops out around two or three processes; this module
complements it with *schedule fuzzing*: run many executions, each driven
by a seeded random scheduler that picks an enabled process uniformly at
every step, checking the safety properties at every state.  No soundness
claim — only exhaustiveness finds the last bug — but thousands of random
interleavings of a 4-6 process configuration catch what fixed timing
models miss, and every violation comes back with its replayable
schedule, exactly like the explorer's.

A fuzz run *is* a chaos run with an empty fault plan (in the sandbox a
timing-failure window only biases which process steps next): one
:func:`repro.chaos.runner.run_sim` call per run index with one
:class:`~repro.chaos.monitors.SafetyMonitor` per property.  A skewed
process mix is a campaign with windows, not a fuzzer option.

The module is also runnable — the nightly CI workflow drives the
standard campaigns with a rotating (date-derived) seed, so every night
hammers fresh schedules::

    python -m repro.verify.fuzz --seed 20260805 --schedules 500 --workers 4

Campaigns are the :data:`repro.chaos.runner.SIM_TARGETS` entries named in
:data:`STANDARD_CAMPAIGNS`: Fischer n=3 (a violation MUST be found),
Algorithm 3 n=4 and Algorithm 1 n=4 (no violation may exist).  Exit 0
when every expectation holds, 1 otherwise, 2 on usage errors (an empty
campaign — ``--schedules 0`` — is a usage error, not a vacuous pass).
``--substrate net`` fuzzes the networked quorum-register emulation
instead (see :mod:`repro.net.fuzz`): random workloads under rotating
fault plans, checked against the atomic-register linearizability spec.

``--workers N`` shards each campaign's schedule range over N processes
via :mod:`repro.parallel`.  Because every run is seeded by its global
index, the merged output — violation lists, summary JSON, exit code —
is bit-identical to ``--workers 1`` on the same seed; only the
per-worker wall/throughput telemetry (``--timing-json``) differs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Tracer, active_tracer, trace_scope

from .explorer import Violation
from .properties import SafetyProperty
from .sandbox import ProgramFactory

__all__ = ["FuzzFailure", "FuzzResult", "fuzz", "main"]


@dataclass(frozen=True)
class FuzzFailure:
    """One violation plus everything needed to replay it.

    ``seed_key`` is the exact string the failing run's scheduler was
    seeded with (``random.Random(seed_key)``, built by
    :func:`repro.chaos.runner.seed_key`), so a reader can rerun the
    schedule without reconstructing the campaign's seeding convention —
    and the violation's recorded schedule replays it deterministically
    through :func:`repro.verify.explorer.replay_schedule` regardless.
    """

    run_index: int
    seed_key: str
    violation: Violation

    def replay_hint(self) -> str:
        schedule = ",".join(str(pid) for pid in self.violation.schedule)
        return (
            f"replay: run {self.run_index} (Random({self.seed_key!r})) "
            f"schedule=[{schedule}]"
        )


@dataclass
class FuzzResult:
    """Outcome of a fuzzing campaign."""

    schedules_run: int
    steps_taken: int
    failures: List[FuzzFailure] = field(default_factory=list)
    completed_runs: int = 0  # runs where every process finished
    # Per-run trace chunks, ``(global run index, records)`` — populated
    # only under ``fuzz(..., trace=True)``.  Keyed by the global index so
    # :func:`repro.parallel.merge.merge_fuzz_results` can reassemble the
    # sequential trace byte-identically from shard slices.
    trace_chunks: List[Tuple[int, List[Dict[str, Any]]]] = field(
        default_factory=list
    )

    @property
    def violations(self) -> List[Violation]:
        """The bare violations (compatibility view over ``failures``)."""
        return [failure.violation for failure in self.failures]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"FuzzResult({status}, schedules={self.schedules_run}, "
            f"steps={self.steps_taken}, completed={self.completed_runs})"
        )


def fuzz(
    factories: Dict[int, ProgramFactory],
    properties: Sequence[SafetyProperty],
    schedules: int = 200,
    max_ops: int = 200,
    seed: int = 0,
    stop_at_first_violation: bool = True,
    first_index: int = 0,
    trace: bool = False,
) -> FuzzResult:
    """Run ``schedules`` random interleavings, checking safety throughout.

    Parameters
    ----------
    factories / properties / max_ops:
        As in :func:`repro.verify.explorer.explore`.
    schedules:
        Number of random executions.
    seed:
        Campaign seed: run ``i`` is :func:`repro.chaos.runner.run_sim` on
        the empty campaign seeded ``str(seed)`` with ``run_seed=str(i)``.
    first_index:
        Global index of the first run.  Run seeds and recorded
        ``run_index`` values are derived from ``first_index + i``, never
        from the local loop position, so a shard executing
        ``[first_index, first_index + schedules)`` produces exactly the
        sequential campaign's slice — the property
        :mod:`repro.parallel.merge` relies on.
    trace:
        Record every run's ``repro.obs`` records (the chaos runner's) as a
        chunk in :attr:`FuzzResult.trace_chunks`; pure observation.  With
        ``trace=False`` an ambient tracer still receives them, unchunked.
    """
    if schedules < 0:
        raise ValueError(f"schedules must be >= 0, got {schedules}")
    if first_index < 0:
        raise ValueError(f"first_index must be >= 0, got {first_index}")
    # Imported here (``repro.chaos`` imports this package); ``run_sim`` is
    # looked up per call, so a wrapper on the module attribute sees it.
    from ..chaos import runner
    from ..chaos.monitors import SafetyMonitor
    from ..chaos.plan import Campaign

    target = runner.SimTarget(
        "fuzz", "schedule fuzzing", lambda: (factories, [], {}),
        max_ops=max_ops, pids=tuple(sorted(factories)), expect_violation=False,
    )
    campaign = Campaign(substrate="sim", seed=str(seed))
    monitors = [SafetyMonitor(prop) for prop in properties]
    # Every step spends one op of a process still under its bound, so
    # this step budget never binds.
    max_steps = max_ops * len(factories)
    tracer = Tracer() if trace else active_tracer()
    result = FuzzResult(schedules_run=0, steps_taken=0)
    with trace_scope(tracer):
        for index in range(first_index, first_index + schedules):
            run_seed = str(index)
            outcome = runner.run_sim(target, campaign, run_seed=run_seed,
                                     max_steps=max_steps, monitors=monitors)
            if trace:
                result.trace_chunks.append((index, tracer.take()))
            found = outcome.violations[:1 if stop_at_first_violation else None]
            for violation in found:
                result.failures.append(FuzzFailure(
                    run_index=index,
                    seed_key=runner.seed_key(campaign, run_seed),
                    violation=Violation(violation.monitor, violation.message,
                                        outcome.schedule[:violation.step]),
                ))
            result.schedules_run += 1
            if stop_at_first_violation and found:
                result.steps_taken += found[0].step
                break
            result.steps_taken += outcome.steps
            result.completed_runs += outcome.done
    return result


# The standard campaigns, by :data:`repro.chaos.runner.SIM_TARGETS` name;
# campaign ``i`` is seeded ``seed + i``.  (The registry is imported where
# it is used: ``repro.chaos`` imports this package.)
STANDARD_CAMPAIGNS = ("fischer_n3", "alg3_n4", "consensus_n4")


def _campaign_shard(shard, payload) -> FuzzResult:
    """Shard worker: one standard campaign's slice of the run-index range.

    Module-level (the spawn pool pickles it by reference) and rebuilt
    from the target *name* — program factories close over live lock
    objects and cannot cross a process boundary.  Every seed inside
    :func:`fuzz` derives from the global run index via ``first_index``,
    so the returned result is exactly the sequential campaign's slice.
    """
    from ..chaos.runner import sim_target

    name, seed, trace = payload
    target = sim_target(name)
    factories, properties, _registers = target.build()
    return fuzz(factories, properties, schedules=shard.count,
                max_ops=target.max_ops, seed=seed,
                stop_at_first_violation=False,
                first_index=shard.start, trace=trace)


def _net_shard(shard, payload):
    """Shard worker for the networked substrate (see :mod:`repro.net.fuzz`)."""
    from ..net.fuzz import fuzz_quorum_register

    seed, trace = payload
    return fuzz_quorum_register(
        schedules=shard.count, seed=seed, first_index=shard.start, trace=trace
    )


def _failure_dict(failure: FuzzFailure) -> dict:
    return {
        "run_index": failure.run_index,
        "seed_key": failure.seed_key,
        "property": failure.violation.property_name,
        "message": failure.violation.message,
        "schedule": list(failure.violation.schedule),
    }


def _write_trace(path, chunks) -> None:
    """Flatten merged ``(index, records)`` chunks into one JSONL file.

    The chunks arrive already sorted by global run index (the merge
    functions guarantee it), so concatenation reproduces the sequential
    single-worker trace byte-for-byte.
    """
    from repro.obs.export import write_jsonl

    path.parent.mkdir(parents=True, exist_ok=True)
    records = [record for _index, chunk in chunks for record in chunk]
    count = write_jsonl(records, str(path))
    print(f"trace: {count} record(s) -> {path}")


def _run_registers(args, pool, timing: list):
    """The three standard campaigns, sharded; returns (exit code, summary)."""
    from ..chaos.runner import sim_target
    from ..parallel import make_shards, merge_fuzz_results, timing_rows

    summary = {
        "substrate": "registers",
        "seed": args.seed,
        "schedules": args.schedules,
        "campaigns": [],
    }
    failures = 0
    trace_chunks: list = []
    for offset, name in enumerate(STANDARD_CAMPAIGNS):
        expect_violation = sim_target(name).expect_violation
        seed = args.seed + offset
        shards = make_shards(args.schedules, args.workers, master_seed=seed)
        results = pool.run(_campaign_shard, shards,
                           (name, seed, args.trace is not None))
        timing.extend(timing_rows(results, campaign=name))
        # Every shard collects EVERY violation, not just the first: a
        # nightly failure must be actionable from the log alone.
        result = merge_fuzz_results([r.value for r in results])
        # Campaigns run in a fixed order, runs within one in index order,
        # so the concatenated trace is deterministic across --workers.
        trace_chunks.extend(result.trace_chunks)
        if expect_violation:
            ok = not result.ok
            expectation = "violation expected"
        else:
            ok = result.ok
            expectation = "must stay safe"
        print(f"{'ok  ' if ok else 'FAIL'} {name:<14} ({expectation}): {result!r}")
        shown = result.failures[:5]
        if not ok:
            failures += 1
        elif expect_violation:
            shown = result.failures[:1]  # confirm the expected find is real
        if not ok or expect_violation:
            for failure in shown:
                print(f"     {failure.violation!r}")
                print(f"     {failure.replay_hint()}")
            remaining = len(result.failures) - len(shown)
            if remaining > 0:
                print(f"     ... and {remaining} more violation(s)")
        summary["campaigns"].append({
            "name": name,
            "expectation": expectation,
            "ok": ok,
            "schedules_run": result.schedules_run,
            "steps_taken": result.steps_taken,
            "completed_runs": result.completed_runs,
            "failures": [_failure_dict(f) for f in result.failures],
        })
    summary["ok"] = failures == 0
    if args.trace is not None:
        _write_trace(args.trace, trace_chunks)
    return (0 if failures == 0 else 1), summary


def _run_net(args, pool, timing: list):
    """The networked quorum-register campaign, sharded.

    Random client workloads over the ABD emulation under the rotating
    fault plans (crash-minority, delay spikes, healing partitions, loss,
    client crashes); fails when any schedule's history is not
    explainable as an atomic register.
    """
    from ..parallel import make_shards, merge_net_reports, timing_rows

    shards = make_shards(args.schedules, args.workers, master_seed=args.seed)
    results = pool.run(_net_shard, shards,
                       (args.seed, args.trace is not None))
    timing.extend(timing_rows(results, campaign="net_quorum"))
    report = merge_net_reports([r.value for r in results])
    if args.trace is not None:
        _write_trace(args.trace, report.trace_chunks)
    print(report.summary())
    for outcome in report.violations[:3]:
        print(f"     {outcome!r}")
    summary = {
        "substrate": "net",
        "seed": args.seed,
        "schedules": args.schedules,
        "ok": report.ok,
        "by_plan": [
            {"plan": kind, "schedules": ran, "violations": bad}
            for kind, ran, bad in report.by_plan()
        ],
        "violations": [
            {
                "index": o.index,
                "plan": o.plan,
                "operations": o.operations,
                "pending": o.pending,
                "status": o.status,
            }
            for o in report.violations
        ],
    }
    return (0 if report.ok else 1), summary


def _report_timing(args, timing: list) -> None:
    """Aggregate per-worker wall/throughput; optionally persist the rows.

    Telemetry only — wall times are machine-dependent, so none of this
    ever enters the deterministic ``--json`` summary that the CI
    ``parallel-determinism`` job byte-compares across worker counts.
    """
    import json

    if not timing:
        return
    per_worker: dict = {}
    for row in timing:
        agg = per_worker.setdefault(
            row["worker_pid"], {"shards": 0, "items": 0, "wall": 0.0}
        )
        agg["shards"] += 1
        agg["items"] += row["items"]
        agg["wall"] += row["wall_s"]
    print(f"workers: {args.workers}, shards: {len(timing)}, "
          f"schedules: {sum(row['items'] for row in timing)}")
    for pid, agg in sorted(per_worker.items()):
        rate = agg["items"] / agg["wall"] if agg["wall"] > 0 else 0.0
        print(f"  worker {pid}: {agg['shards']} shard(s), "
              f"{agg['items']} schedules, {agg['wall']:.2f}s busy, "
              f"{rate:.1f} schedules/s")
    if args.timing_json is not None:
        payload = {
            "workers": args.workers,
            "substrate": args.substrate,
            "seed": args.seed,
            "schedules": args.schedules,
            "rows": timing,
        }
        args.timing_json.parent.mkdir(parents=True, exist_ok=True)
        args.timing_json.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
        )


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI driver for the standard fuzzing campaigns (see module doc)."""
    import argparse
    import json
    from pathlib import Path

    parser = argparse.ArgumentParser(
        prog="python -m repro.verify.fuzz",
        description="Run the standard schedule-fuzzing campaigns.",
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="campaign seed (rotate it nightly)")
    parser.add_argument("--schedules", type=int, default=500,
                        help="random schedules per campaign (default: 500)")
    parser.add_argument("--substrate", choices=("registers", "net"),
                        default="registers",
                        help="fuzz shared-memory interleavings (default) or "
                             "the networked quorum-register emulation")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard each campaign's schedule range over N "
                             "processes; output is bit-identical to "
                             "--workers 1 on the same seed (default: 1)")
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="write the deterministic campaign summary here")
    parser.add_argument("--trace", type=Path, default=None, metavar="FILE",
                        help="write the campaigns' structured trace "
                             "(repro.obs JSONL) here; byte-identical for a "
                             "fixed seed regardless of --workers")
    parser.add_argument("--timing-json", type=Path, default=None,
                        metavar="FILE",
                        help="write per-shard wall/throughput telemetry here")
    args = parser.parse_args(argv)

    if args.schedules <= 0:
        parser.error(
            f"an empty campaign explores nothing: --schedules must be "
            f"positive, got {args.schedules}"
        )
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")

    from ..parallel import WorkerPool

    timing: list = []
    with WorkerPool(args.workers) as pool:
        if args.substrate == "net":
            exit_code, summary = _run_net(args, pool, timing)
        else:
            exit_code, summary = _run_registers(args, pool, timing)
    _report_timing(args, timing)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
