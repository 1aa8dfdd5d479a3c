"""Deterministically merging per-shard results back into one report.

The contract every merge here upholds: **merged shard output is
bit-identical to the sequential run** on the same master seed.  That
holds because each work item is independently seeded by its global
index (see :mod:`repro.parallel.shard`), so a shard's result is exactly
the sequential run's slice — merging is sorting by global index, summing
counters, and re-applying the sequential loop's stopping rule.

Two stopping disciplines appear in this repo and each has a merge:

* **collect-all** (:func:`repro.verify.fuzz.fuzz` with
  ``stop_at_first_violation=False``): every item runs; merge
  concatenates in global-index order and sums counters
  (:func:`merge_fuzz_results`).
* **first-failure** (``repro.chaos`` campaigns, sim and net): a
  campaign stops at its first failing run.  A shard may stop at *its
  own* first failure; the merge applies the rule over the sorted run
  records, truncating at the globally-first failure — runs past it are
  discarded, so ``schedules_run``/``total_steps`` do not depend on the
  sharding (:func:`merge_campaign_runs`, which the sequential campaign
  goes through as well: one part covering the whole range).

Domain types are imported lazily so ``repro.parallel`` stays importable
without the fuzz/chaos layers (and free of import cycles with the CLI
that calls into it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

__all__ = [
    "RunRecord",
    "merge_counters",
    "merge_fuzz_results",
    "merge_campaign_runs",
]


@dataclass(frozen=True)
class RunRecord:
    """One campaign run's summary as shipped back from a shard.

    ``outcome`` carries the full failing outcome (``SimOutcome`` /
    ``NetOutcome``) only when the run failed — passing runs ship just
    their index and step count, keeping worker results small.
    ``verdict`` is a passing run's positive evidence (a stabilization
    verdict from a recover target), and ``trace`` the run's repro.obs
    records when the campaign ran with tracing on.
    """

    index: int
    steps: int
    outcome: Optional[Any] = None
    verdict: Optional[Any] = None
    trace: Optional[Any] = None

    @property
    def ok(self) -> bool:
        return self.outcome is None


def merge_counters(parts: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum counter dicts key-wise (missing keys count as zero)."""
    merged: Dict[str, int] = {}
    for part in parts:
        for key, value in part.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def merge_fuzz_results(parts: Sequence[Any]) -> Any:
    """Merge per-shard :class:`~repro.verify.fuzz.FuzzResult` slices.

    Failures are ordered by ``(run_index, within-run discovery order)``
    — the sort is stable and each shard already lists its failures in
    discovery order — and the work counters are summed, reproducing the
    sequential collect-all run exactly.
    """
    from ..verify.fuzz import FuzzResult

    merged = FuzzResult(schedules_run=0, steps_taken=0)
    for part in parts:
        merged.schedules_run += part.schedules_run
        merged.steps_taken += part.steps_taken
        merged.completed_runs += part.completed_runs
        merged.failures.extend(part.failures)
    merged.failures.sort(key=lambda failure: failure.run_index)
    return merged


def merge_campaign_runs(campaign: Any, parts: Sequence[Sequence[RunRecord]]) -> Any:
    """Build a chaos :class:`~repro.chaos.runner.CampaignReport`.

    The one place a report is accumulated, for every worker count.
    Applies the first-failure rule over the globally sorted run
    records: accumulate until the lowest-indexed failing run, then
    stop.  Records past the first failure (which only exist because
    other shards could not know about it) are discarded, never counted.
    """
    from ..chaos.runner import CampaignReport

    report = CampaignReport(campaign=campaign)
    records: List[RunRecord] = sorted(
        (record for part in parts for record in part),
        key=lambda record: record.index,
    )
    for record in records:
        report.schedules_run += 1
        report.total_steps += record.steps
        if record.trace is not None:
            report.trace_chunks.append((record.index, record.trace))
        if record.verdict is not None:
            report.verdicts += 1
            if report.first_verdict is None:
                report.first_verdict = record.verdict
        if not record.ok:
            report.failing = record.outcome
            break
    return report
