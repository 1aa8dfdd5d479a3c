"""Machine-checkable form of the paper's resilience definition (§1.3).

An algorithm is *resilient to timing failures w.r.t. time complexity ψ*
when three requirements hold:

1. **Stabilization** — safety always holds, even during timing failures,
   and all properties hold immediately once failures stop;
2. **Efficiency** — without timing failures the time complexity is ψ;
3. **Convergence** — a finite time after failures stop, the time
   complexity is ψ again.

For long-lived algorithms (mutual exclusion) the time complexity is the
paper's metric from :func:`repro.spec.mutex_spec.time_complexity`; for
one-shot algorithms (consensus) it is the worst decision time.  In all of
the paper's algorithms ψ = c·Δ for a small constant c, so callers express
ψ as ``psi_deltas`` (the constant c) and this module multiplies by ``Δ``.

:func:`check_resilience` evaluates a mutual-exclusion trace;
:func:`check_consensus_resilience` evaluates a consensus run.  Both
return a :class:`ResilienceReport` with the measured convergence time —
the quantity experiment E8 sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

from ..sim.trace import Trace
from ..spec.mutex_spec import check_mutual_exclusion, time_complexity, unserved_intervals

__all__ = ["ResilienceReport", "check_resilience", "check_consensus_resilience"]


@dataclass
class ResilienceReport:
    """Verdict on the three resilience requirements for one execution."""

    psi: float  # the time-complexity budget ψ, in time units
    delta: float
    safety_ok: bool
    efficiency_value: float  # measured time complexity ignoring failures
    efficiency_ok: bool
    last_failure: float  # when timing failures stopped (0 = none)
    convergence_time: Optional[float]  # None = never converged in the trace
    violations: List[str] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.convergence_time is not None

    @property
    def resilient(self) -> bool:
        return self.safety_ok and self.efficiency_ok and self.converged

    def __repr__(self) -> str:
        conv = (
            f"{self.convergence_time:.3f}" if self.convergence_time is not None else "never"
        )
        return (
            f"ResilienceReport(resilient={self.resilient}, "
            f"efficiency={self.efficiency_value:.3f}/{self.psi:.3f}, "
            f"convergence_time={conv})"
        )


def check_resilience(
    trace: Trace,
    psi_deltas: float,
    last_failure: Optional[float] = None,
) -> ResilienceReport:
    """Evaluate a mutual-exclusion trace against the resilience definition.

    Parameters
    ----------
    trace:
        The execution (typically containing a timing-failure window).
    psi_deltas:
        The budget constant ``c`` in ψ = c·Δ.
    last_failure:
        When timing failures stopped.  Defaults to the completion time of
        the last step that exceeded ``Δ`` in the trace.

    Convergence time is measured as the paper defines it: the time after
    ``last_failure`` until the execution reaches a configuration from
    which the time complexity stays within ψ — concretely, the end of the
    last unserved interval longer than ψ (0 when there is none).
    """
    psi = psi_deltas * trace.delta
    violations: List[str] = []

    overlaps = check_mutual_exclusion(trace)
    safety_ok = not overlaps
    if overlaps:
        violations.append(
            f"stabilization: mutual exclusion violated {len(overlaps)} time(s)"
        )

    failure_end = (
        last_failure if last_failure is not None else trace.last_failure_time
    )

    # Efficiency: the metric restricted to the failure-free era.  When the
    # whole trace is failure-free this is the paper's Efficiency clause
    # verbatim; otherwise we evaluate the pre-failure prefix (if any).
    failures = trace.timing_failures()
    if failures:
        first_failure = min(e.issued for e in failures)
        efficiency_value = time_complexity(trace, until=first_failure)
    else:
        efficiency_value = time_complexity(trace)
    efficiency_ok = efficiency_value <= psi + 1e-9
    if not efficiency_ok:
        violations.append(
            f"efficiency: time complexity {efficiency_value:.3f} exceeds "
            f"ψ = {psi:.3f} in the absence of timing failures"
        )

    # Convergence: after `failure_end`, when does the metric drop back
    # under ψ for good?  Convergence is only promised — and only
    # observable — once failures actually stop: when they persist to the
    # end of the trace (or beyond: an open-ended window) there is no
    # failure-free suffix to certify, so the verdict is "not converged",
    # never a vacuous pass.
    convergence_time: Optional[float]
    if failure_end > 0 and failure_end >= trace.end_time - 1e-9:
        violations.append(
            "convergence: timing failures persist to the end of the trace; "
            "no failure-free suffix to certify"
        )
        return ResilienceReport(
            psi=psi,
            delta=trace.delta,
            safety_ok=safety_ok,
            efficiency_value=efficiency_value,
            efficiency_ok=efficiency_ok,
            last_failure=failure_end,
            convergence_time=None,
            violations=violations,
        )
    late_intervals = [
        (lo, hi)
        for lo, hi in unserved_intervals(trace, since=failure_end)
        if hi - lo > psi + 1e-9
    ]
    if not late_intervals:
        convergence_time = 0.0
    else:
        last_bad_end = max(hi for _, hi in late_intervals)
        if last_bad_end >= trace.end_time - 1e-9:
            # Still violating ψ when the observation window closed: we
            # cannot certify convergence from this trace.
            convergence_time = None
            violations.append(
                f"convergence: time complexity still above ψ = {psi:.3f} at "
                f"the end of the trace"
            )
        else:
            convergence_time = last_bad_end - failure_end

    return ResilienceReport(
        psi=psi,
        delta=trace.delta,
        safety_ok=safety_ok,
        efficiency_value=efficiency_value,
        efficiency_ok=efficiency_ok,
        last_failure=failure_end,
        convergence_time=convergence_time,
        violations=violations,
    )


def check_consensus_resilience(
    trace: Trace,
    psi_deltas: float,
    decided_pids: Optional[List[int]] = None,
) -> ResilienceReport:
    """Evaluate a consensus run: all decisions within ψ of failures ending.

    Safety (validity/agreement) is checked separately by
    :func:`repro.spec.consensus_spec.check_consensus`; this report focuses
    on the timing half: in a failure-free run every decision must land
    within ψ of the start; otherwise within ψ of the trace's
    ``last_failure_time``.
    """
    psi = psi_deltas * trace.delta
    violations: List[str] = []
    failure_end = trace.last_failure_time
    decisions = trace.decisions()
    pids = decided_pids if decided_pids is not None else sorted(decisions)

    worst = 0.0
    missing = [pid for pid in pids if pid not in decisions]
    for pid in pids:
        if pid in decisions:
            t, _ = decisions[pid]
            worst = max(worst, t)
    if missing:
        violations.append(f"convergence: pids {missing} never decided")
        convergence_time: Optional[float] = None
    else:
        convergence_time = max(0.0, worst - failure_end)
        if convergence_time > psi + 1e-9:
            violations.append(
                f"convergence: last decision {convergence_time:.3f} after "
                f"failures stopped exceeds ψ = {psi:.3f}"
            )

    failures = trace.timing_failures()
    if failures:
        efficiency_value = math.nan  # not measurable on a failure-laden run
        efficiency_ok = True
    else:
        efficiency_value = worst
        efficiency_ok = worst <= psi + 1e-9
        if not efficiency_ok:
            violations.append(
                f"efficiency: decision time {worst:.3f} exceeds ψ = {psi:.3f} "
                f"without timing failures"
            )

    return ResilienceReport(
        psi=psi,
        delta=trace.delta,
        safety_ok=True,  # caller combines with check_consensus().safe
        efficiency_value=efficiency_value,
        efficiency_ok=efficiency_ok,
        last_failure=failure_end,
        convergence_time=convergence_time,
        violations=violations,
    )
