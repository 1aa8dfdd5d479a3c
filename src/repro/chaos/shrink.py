"""Delta-debugging shrinker for failing chaos runs.

A fuzz hit is rarely a good bug report: "a 900-step schedule under a
6-window fault plan violated mutual exclusion" makes the *reader* do the
localization.  This module minimizes a failing ``(campaign, payload,
seed)`` triple — the payload being the pid schedule (sim) or the client
workload (net) — by repeatedly proposing smaller candidates and
**re-executing each one** through the real runner
(:func:`repro.chaos.runner.run_sim` / :func:`~repro.chaos.runner.run_net`)
to confirm the violation persists.  Nothing is assumed about fault
interactions; the execution is the oracle.

The reduction passes, applied to fixpoint:

1. **truncate** (sim) — cut the schedule right after the step at which
   the monitor fired; everything later is noise by construction;
2. **ddmin** over fault-plan components — windows, crash entries,
   corruptions, losses, spikes, partitions — Zeller-Hildebrandt minimal
   failing subsets per component.  Sim timing windows bias schedule
   *generation* but a recorded schedule already witnesses the timing
   behaviour (asynchronous semantics), so this pass typically deletes
   every window — which is the honest minimal form: the schedule IS the
   counterexample;
3. **narrow** — halve surviving windows from either end while the
   failure persists (matters for net windows, which do act at replay);
4. **ddmin** over the payload — schedule steps, or (client, op) pairs of
   the workload.

Candidates are accepted when the *same monitor* fires again; the exact
message may legitimately change as context shrinks (an operation count,
a step number).  Every execution is counted and memoized, so a
:class:`ShrinkResult` reports how much work minimization took.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .monitors import ChaosViolation
from .plan import Campaign
from .runner import DEFAULT_MAX_STEPS, NetParams, SimTarget, run_net, run_sim

__all__ = [
    "ddmin",
    "ShrinkResult",
    "shrink_sim",
    "shrink_net",
]

# Reproduce callable: (campaign, payload) -> the watched monitor's
# violation, or None when the candidate no longer fails.
Reproduce = Callable[[Campaign, Any], Optional[ChaosViolation]]


def ddmin(items: Sequence[Any], fails: Callable[[List[Any]], bool]) -> List[Any]:
    """Zeller-Hildebrandt delta debugging: a 1-minimal failing sublist.

    ``fails(candidate)`` must be True for the full ``items``.  The result
    still fails, and removing any single element makes it pass (relative
    to the granularity explored) — the classic ddmin guarantee.
    """
    items = list(items)
    if not fails(items):
        raise ValueError("ddmin requires the full input to fail")
    if not items:
        return items
    if fails([]):
        return []
    n = 2
    while len(items) >= 2:
        chunk = math.ceil(len(items) / n)
        subsets = [items[i : i + chunk] for i in range(0, len(items), chunk)]
        reduced = False
        for index, subset in enumerate(subsets):
            if fails(subset):
                items, n, reduced = subset, 2, True
                break
        if not reduced and len(subsets) > 2:
            for index in range(len(subsets)):
                complement = [
                    item
                    for j, subset in enumerate(subsets)
                    if j != index
                    for item in subset
                ]
                if fails(complement):
                    items, reduced = complement, True
                    n = max(n - 1, 2)
                    break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), 2 * n)
    return items


@dataclass
class ShrinkResult:
    """A minimized failing triple plus the cost of getting there."""

    campaign: Campaign
    payload: Any  # schedule tuple (sim) / workload (net)
    violation: ChaosViolation
    original_campaign: Campaign
    original_payload: Any
    executions: int
    rounds: int

    @property
    def payload_reduction(self) -> float:
        """Final payload size over original (1.0 = no reduction)."""
        original = _payload_size(self.original_payload)
        if original == 0:
            return 1.0
        return _payload_size(self.payload) / original

    def summary(self) -> str:
        return (
            f"faults {self.original_campaign.fault_count} -> "
            f"{self.campaign.fault_count}, payload "
            f"{_payload_size(self.original_payload)} -> "
            f"{_payload_size(self.payload)} "
            f"({self.executions} executions, {self.rounds} round(s))"
        )


def _payload_size(payload: Any) -> int:
    if payload and isinstance(payload[0], tuple):  # net workload
        return sum(len(client_ops) for client_ops in payload)
    return len(payload)


class _Session:
    """Shared bookkeeping: memoized, counted candidate executions."""

    def __init__(self, reproduce: Reproduce, monitor: str) -> None:
        self.reproduce = reproduce
        self.monitor = monitor
        self.executions = 0
        self._memo: Dict[Any, Optional[ChaosViolation]] = {}

    def run(self, campaign: Campaign, payload: Any) -> Optional[ChaosViolation]:
        key: Any
        try:
            key = hash((campaign, payload))
        except TypeError:
            key = None
        if key is not None and key in self._memo:
            return self._memo[key]
        self.executions += 1
        violation = self.reproduce(campaign, payload)
        if violation is not None and violation.monitor != self.monitor:
            violation = None  # a *different* failure is not this bug
        if key is not None:
            self._memo[key] = violation
        return violation

    def fails(self, campaign: Campaign, payload: Any) -> bool:
        return self.run(campaign, payload) is not None


def _ddmin_field(
    session: _Session, campaign: Campaign, payload: Any, field_name: str
) -> Campaign:
    """ddmin one tuple-valued campaign field, keeping the payload fixed."""
    items = list(getattr(campaign, field_name))
    if not items:
        return campaign

    def fails(candidate: List[Any]) -> bool:
        return session.fails(
            campaign.replace(**{field_name: tuple(candidate)}), payload
        )

    kept = ddmin(items, fails)
    return campaign.replace(**{field_name: tuple(kept)})


_WINDOW_FIELDS = ("windows", "losses", "spikes", "partitions")


def _narrow_windows(
    session: _Session, campaign: Campaign, payload: Any, min_width: float = 0.5
) -> Campaign:
    """Halve each surviving window from either end while the bug persists."""
    for field_name in _WINDOW_FIELDS:
        windows = list(getattr(campaign, field_name))
        for index, window in enumerate(windows):
            if not math.isfinite(window.end):
                continue
            for _ in range(8):  # geometric: 8 halvings is plenty
                width = window.end - window.start
                if width <= min_width:
                    break
                mid = window.start + width / 2.0
                narrowed = None
                for candidate in (
                    dataclasses.replace(window, end=mid),
                    dataclasses.replace(window, start=mid),
                ):
                    trial = list(windows)
                    trial[index] = candidate
                    if session.fails(
                        campaign.replace(**{field_name: tuple(trial)}), payload
                    ):
                        narrowed = candidate
                        break
                if narrowed is None:
                    break
                window = narrowed
                windows[index] = narrowed
                campaign = campaign.replace(**{field_name: tuple(windows)})
    return campaign


# recover_at shrinks independently of crash_at: an orphaned restart (its
# crash deleted, or vice versa) is a defined no-op, so ddmin may drop
# entries from either side freely.
_SIM_FAULT_FIELDS = (
    "windows", "crash_at", "crash_after", "corruptions", "recover_at"
)
_NET_FAULT_FIELDS = ("losses", "spikes", "partitions", "crash_at", "crash_after")


def _shrink_loop(
    session: _Session,
    campaign: Campaign,
    payload: Any,
    fault_fields: Tuple[str, ...],
    shrink_payload: Callable[[_Session, Campaign, Any], Any],
) -> Tuple[Campaign, Any, int]:
    """Alternate fault-plan and payload passes until a fixpoint, at most
    three rounds."""
    for rounds in range(1, 4):
        before = (campaign, payload)
        for field_name in fault_fields:
            campaign = _ddmin_field(session, campaign, payload, field_name)
        campaign = _narrow_windows(session, campaign, payload)
        payload = shrink_payload(session, campaign, payload)
        if (campaign, payload) == before:
            break
    return campaign, payload, rounds


# ---------------------------------------------------------------------------
# Sim substrate.
# ---------------------------------------------------------------------------


def shrink_sim(
    target: SimTarget,
    campaign: Campaign,
    schedule: Sequence[int],
    monitor: str,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Optional[ShrinkResult]:
    """Minimize a failing sim triple; ``None`` if it does not reproduce.

    ``monitor`` names the violation being chased (e.g. ``"mutual
    exclusion"``); candidates count as failing only when that same
    monitor fires on replay.
    """

    def reproduce(candidate: Campaign, payload: Any) -> Optional[ChaosViolation]:
        outcome = run_sim(
            target,
            candidate,
            schedule=list(payload),
            max_steps=max_steps,
            stop_monitor=monitor,
        )
        return outcome.find(monitor)

    session = _Session(reproduce, monitor)
    payload: Tuple[int, ...] = tuple(schedule)
    violation = session.run(campaign, payload)
    if violation is None:
        return None
    original_campaign, original_payload = campaign, payload

    # Pass 1: truncate right after the firing step — later steps are noise.
    if violation.step < len(payload):
        truncated = payload[: violation.step]
        if session.fails(campaign, truncated):
            payload = truncated

    def shrink_payload(
        session: _Session, campaign: Campaign, payload: Tuple[int, ...]
    ) -> Tuple[int, ...]:
        return tuple(
            ddmin(list(payload), lambda cand: session.fails(campaign, tuple(cand)))
        )

    campaign, payload, rounds = _shrink_loop(
        session, campaign, payload, _SIM_FAULT_FIELDS, shrink_payload
    )
    final = session.run(campaign, payload)
    assert final is not None  # every accepted reduction re-verified this
    return ShrinkResult(
        campaign=campaign,
        payload=payload,
        violation=final,
        original_campaign=original_campaign,
        original_payload=original_payload,
        executions=session.executions,
        rounds=rounds,
    )


# ---------------------------------------------------------------------------
# Net substrate.
# ---------------------------------------------------------------------------


def shrink_net(
    campaign: Campaign,
    workload: Tuple[Tuple[Tuple[str, int, Any], ...], ...],
    monitor: str = "linearizability",
    params: NetParams = NetParams(),
    run_seed: Optional[str] = None,
) -> Optional[ShrinkResult]:
    """Minimize a failing net triple; ``None`` if it does not reproduce."""

    def reproduce(candidate: Campaign, payload: Any) -> Optional[ChaosViolation]:
        outcome = run_net(candidate, payload, params=params, run_seed=run_seed)
        for violation in outcome.violations:
            if violation.monitor == monitor:
                return violation
        return None

    session = _Session(reproduce, monitor)
    if session.run(campaign, workload) is None:
        return None
    original_campaign, original_workload = campaign, workload

    def shrink_payload(session: _Session, campaign: Campaign, payload: Any) -> Any:
        # Flatten to (client, op) pairs so ddmin can drop ops anywhere,
        # then rebuild the fixed-width per-client tuple shape.
        flat = [
            (client, op)
            for client, client_ops in enumerate(payload)
            for op in client_ops
        ]

        def rebuild(pairs: List[Tuple[int, Any]]) -> Any:
            clients: List[List[Any]] = [[] for _ in range(len(payload))]
            for client, op in pairs:
                clients[client].append(op)
            return tuple(tuple(client_ops) for client_ops in clients)

        kept = ddmin(flat, lambda cand: session.fails(campaign, rebuild(cand)))
        return rebuild(kept)

    campaign, workload, rounds = _shrink_loop(
        session, campaign, workload, _NET_FAULT_FIELDS, shrink_payload
    )
    final = session.run(campaign, workload)
    assert final is not None
    return ShrinkResult(
        campaign=campaign,
        payload=workload,
        violation=final,
        original_campaign=original_campaign,
        original_payload=original_workload,
        executions=session.executions,
        rounds=rounds,
    )
