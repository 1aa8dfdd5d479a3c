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

There is no fuzz CLI: the standard campaigns are chaos campaigns on the
empty plan, which also shrink a hit and archive it as a replayable
artifact::

    python -m repro.chaos run --target fischer_n3 --windows 0 --expect violation
    python -m repro.chaos run --target alg3_n4 --windows 0 --expect clean
    python -m repro.chaos run --substrate net --expect clean

Running this module prints those lines and exits 2, so a stale script
fails instead of passing without running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from .explorer import Violation
from .properties import SafetyProperty
from .sandbox import ProgramFactory

__all__ = ["FuzzFailure", "FuzzResult", "fuzz"]


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


@dataclass
class FuzzResult:
    """Outcome of a fuzzing campaign."""

    schedules_run: int
    steps_taken: int
    failures: List[FuzzFailure] = field(default_factory=list)
    completed_runs: int = 0  # runs where every process finished

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

    An ambient ``repro.obs`` tracer sees every run, as the chaos runner
    records it; tracing is pure observation.
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
    result = FuzzResult(schedules_run=0, steps_taken=0)
    for index in range(first_index, first_index + schedules):
        run_seed = str(index)
        outcome = runner.run_sim(target, campaign, run_seed=run_seed,
                                 max_steps=max_steps, monitors=monitors)
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


if __name__ == "__main__":
    import sys

    print(
        "python -m repro.verify.fuzz is gone; its campaigns are chaos runs "
        "on the empty plan:\n"
        "  python -m repro.chaos run --target fischer_n3 --windows 0 "
        "--expect violation\n"
        "  python -m repro.chaos run --target alg3_n4 --windows 0 "
        "--expect clean\n"
        "  python -m repro.chaos run --target consensus_n4 --windows 0 "
        "--expect clean\n"
        "  python -m repro.chaos run --substrate net --expect clean",
        file=sys.stderr,
    )
    raise SystemExit(2)


