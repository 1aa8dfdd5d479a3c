"""Online resilience monitors for chaos runs.

The fuzzer checks safety properties post-step and the resilience
checker (:func:`repro.core.resilience.check_resilience`) evaluates a
finished trace; a chaos run wants both *while the run is happening*,
judged against the campaign's declared failure-free suffix (everything
after :attr:`Campaign.last_disruption_end`).  A
:class:`ChaosMonitor` is stepped by the runner after every sandbox
transition:

* :class:`SafetyMonitor` wraps any
  :class:`~repro.verify.properties.SafetyProperty` — stabilization: the
  property must hold at every state, *including during fault windows*;
* :class:`ConvergenceMonitor` watches the logical clock: once the
  campaign's last disruption has passed plus a step budget, every
  process that was not crashed or suspended must have finished —
  failures stopped, so progress must resume;
* :class:`TraceResilienceMonitor` bridges to the timed world: given a
  finished :class:`~repro.sim.trace.Trace` it runs the paper's full
  three-clause resilience check with the campaign's declared failure
  end, so timed chaos runs (engine or net substrate) get the same
  verdict vocabulary.

A monitor fires **at most once** — the first violation is the
counterexample worth shrinking; repeats of the same broken state would
only flood the report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional

from ..core.resilience import ResilienceReport, check_resilience
from ..sim.trace import Trace
from ..verify.properties import SafetyProperty
from ..verify.sandbox import Sandbox
from .plan import Campaign

__all__ = [
    "ChaosViolation",
    "ChaosMonitor",
    "SafetyMonitor",
    "ConvergenceMonitor",
    "StabilizationMonitor",
    "TraceResilienceMonitor",
    "default_monitors",
    "stabilization_monitors",
]


@dataclass(frozen=True)
class ChaosViolation:
    """One monitor firing: what broke, the message, and when (logical)."""

    monitor: str
    message: str
    step: int  # logical clock value (shared steps executed) when it fired

    def __repr__(self) -> str:
        return f"ChaosViolation({self.monitor} @step {self.step}: {self.message})"


class ChaosMonitor:
    """Base class: the runner calls :meth:`on_step` after every step."""

    name = "monitor"

    def reset(self) -> None:
        """Prepare for a fresh run (monitors are reused across schedules)."""

    def on_step(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        """Violation message, or ``None``.  ``halted`` = crashed pids."""
        return None

    def finalize(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        """One last check when the run ends (quiescence, budget, limits)."""
        return None


class SafetyMonitor(ChaosMonitor):
    """Stabilization: a safety property checked at every state.

    Fires once; the underlying property's first violation message is the
    counterexample the shrinker minimizes.
    """

    def __init__(self, prop: SafetyProperty) -> None:
        self.prop = prop
        self.name = prop.name
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def on_step(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        if self._fired:
            return None
        message = self.prop.check(sandbox)
        if message is not None:
            self._fired = True
        return message


class ConvergenceMonitor(ChaosMonitor):
    """Progress must resume once the campaign's faults have stopped.

    The campaign declares its failure-free suffix
    (:attr:`Campaign.last_disruption_end`); once it starts, lack of
    progress is a violation — the online analogue of the resilience
    definition's convergence clause.  Two distinguishable failure shapes:

    * **still churning** — ``budget`` steps after the last transient fault
      window closed, some process still has steps to take.  Size
      ``budget`` generously (the runner defaults it to twice the target's
      total op budget) because busy-wait algorithms have unbounded step
      complexity under adversarial interleavings — that is the paper's
      premise, not a bug;
    * **wedged** — at the end of the run a non-crashed process exhausted
      its entire per-process op budget without completing.  This is only
      evidence of non-convergence when the campaign contains *structural*
      faults (crashes, corruptions) that can permanently wedge the system
      — e.g. a process crashed inside its critical section.  Under pure
      timing windows (which only delay) an op-bound suspension is an
      exploration cutoff, not a verdict, and is deliberately ignored.
    """

    name = "convergence"

    def __init__(self, campaign: Campaign, budget: int = 200) -> None:
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.quiet_after = campaign.last_disruption_end
        self.budget = budget
        self.structural = bool(
            campaign.crash_at or campaign.crash_after or campaign.corruptions
        )
        self._fired = False

    def reset(self) -> None:
        self._fired = False

    def on_step(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        if self._fired or clock < self.quiet_after + self.budget:
            return None
        laggards = [pid for pid in sandbox.enabled() if pid not in halted]
        if laggards:
            self._fired = True
            return (
                f"pids {laggards} still running {self.budget} steps after "
                f"the last fault window closed at {self.quiet_after:g}"
            )
        return None

    def finalize(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        if self._fired or not self.structural:
            return None
        wedged = [pid for pid in sandbox.suspended() if pid not in halted]
        if wedged:
            self._fired = True
            return (
                f"pids {wedged} exhausted their op budget without "
                f"completing under a campaign with crashes/corruptions"
            )
        return None


class TraceResilienceMonitor(ChaosMonitor):
    """The paper's three-clause resilience check, campaign-aware.

    For timed chaos runs (through :class:`~repro.sim.Engine` with
    :meth:`Campaign.timing_model`, or the net substrate) — call
    :meth:`check_trace` on the finished trace.  The campaign's declared
    ``last_disruption_end`` overrides the trace-derived failure end, so
    the convergence clock starts where the *plan* says failures stop
    even when the trace's last stretched step completed earlier.
    """

    name = "resilience"

    def __init__(self, campaign: Campaign, psi_deltas: float) -> None:
        self.campaign = campaign
        self.psi_deltas = psi_deltas
        self.report: Optional[ResilienceReport] = None

    def reset(self) -> None:
        self.report = None

    def check_trace(self, trace: Trace) -> Optional[str]:
        """Run :func:`check_resilience`; a violation message or ``None``."""
        last = self.campaign.last_disruption_end
        self.report = check_resilience(
            trace,
            psi_deltas=self.psi_deltas,
            # Crash-recovery: a restart is the end of a transient fault,
            # so the convergence clock must not start before the last one.
            last_failure=max(
                last, trace.last_failure_time, trace.last_restart_time
            ),
        )
        if self.report.resilient:
            return None
        return "; ".join(self.report.violations) or "not resilient"


class StabilizationMonitor(ChaosMonitor):
    """Self-stabilization: transient fault → finite convergence to legality.

    The inversion of :class:`SafetyMonitor`: a stabilizing target is
    *allowed* to violate its safety properties while the campaign's faults
    are active and for a ``window`` of steps afterwards — that is what
    "arbitrary transient state" means.  What it must do is **converge**:
    once the stabilization window closes at
    ``last_disruption_end + window``, any further violation of any
    property is a real failure and fires once, like every chaos monitor.

    A run that ends without firing produces a **verdict** instead — a
    :class:`ChaosViolation`-shaped record (``monitor="stabilization"``)
    stating how many violating states were tolerated and how many steps
    past the last fault the system took to settle.  The verdict is the
    evidence a committed artifact replays bit-identically: same campaign,
    same schedule, same convergence measurement.  No verdict is produced
    when a non-crashed process failed to finish — non-convergence is the
    :class:`ConvergenceMonitor`'s verdict to give.
    """

    name = "stabilization"

    def __init__(
        self,
        properties: List[SafetyProperty],
        campaign: Campaign,
        window: int = 200,
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.properties = list(properties)
        self.quiet_after = campaign.last_disruption_end
        self.window = window
        self._fired = False
        self._tolerated = 0  # violating states inside the window
        self._settled_at: Optional[int] = None  # clock of the last one
        self.verdict: Optional[ChaosViolation] = None

    @property
    def deadline(self) -> float:
        """First logical instant at which violations stop being tolerated."""
        return self.quiet_after + self.window

    def reset(self) -> None:
        self._fired = False
        self._tolerated = 0
        self._settled_at = None
        self.verdict = None

    def on_step(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        if self._fired:
            return None
        for prop in self.properties:
            message = prop.check(sandbox)
            if message is None:
                continue
            if clock < self.deadline:
                self._tolerated += 1
                self._settled_at = clock
                return None
            self._fired = True
            return (
                f"{prop.name} still violated at step {clock}, after the "
                f"stabilization window closed at {self.deadline:g}: {message}"
            )
        return None

    def finalize(
        self, sandbox: Sandbox, clock: int, halted: FrozenSet[int]
    ) -> Optional[str]:
        if self._fired:
            return None
        unfinished = [
            pid
            for pid in (*sandbox.enabled(), *sandbox.suspended())
            if pid not in halted
        ]
        if unfinished:
            return None  # not converged — the convergence monitor's call
        settled = (
            0.0
            if self._settled_at is None
            else max(0.0, self._settled_at - self.quiet_after)
        )
        self.verdict = ChaosViolation(
            monitor=self.name,
            message=(
                f"converged: tolerated {self._tolerated} violating state(s) "
                f"inside the stabilization window, settled {settled:g} "
                f"step(s) after the last fault at {self.quiet_after:g}"
            ),
            step=clock,
        )
        return None


def default_monitors(
    properties: List[SafetyProperty],
    campaign: Campaign,
    convergence_budget: int = 200,
) -> List[ChaosMonitor]:
    """The standard monitor set: every property + the convergence clock."""
    monitors: List[ChaosMonitor] = [SafetyMonitor(p) for p in properties]
    monitors.append(ConvergenceMonitor(campaign, budget=convergence_budget))
    return monitors


def stabilization_monitors(
    properties: List[SafetyProperty],
    campaign: Campaign,
    convergence_budget: int = 200,
    window: Optional[int] = None,
) -> List[ChaosMonitor]:
    """The monitor set for self-stabilizing/recoverable targets.

    One :class:`StabilizationMonitor` guards *all* properties (tolerating
    transient violations inside the window, verdicting on convergence),
    and the :class:`ConvergenceMonitor` still demands termination.
    ``window`` defaults to the convergence budget, but callers usually
    want it much tighter: the budget bounds *termination* of busy-wait
    code (generously), while the window bounds how long illegal states
    may linger — a window wider than the run proves nothing.
    """
    return [
        StabilizationMonitor(
            properties, campaign,
            window=convergence_budget if window is None else window,
        ),
        ConvergenceMonitor(campaign, budget=convergence_budget),
    ]
