"""The mutual exclusion problem as a trace checker.

Checked properties:

* **mutual exclusion** — no two critical-section occupancies overlap;
* **deadlock-freedom** — whenever some process is in its entry code and no
  process is in its critical section, some process eventually enters (on a
  finite trace: no overlong "stuck" suffix);
* **starvation-freedom** — every process that starts its entry code
  eventually enters its critical section (on a finite trace: bounded
  bypass);
* the paper's **time complexity** metric — "the longest time interval
  where some process is in its entry code while no process is in its
  critical section".

The time-complexity metric is the quantity behind both the Efficiency and
Convergence requirements of the resilience definition: Algorithm 3 must
keep it at ``O(Δ)`` when the timing constraints hold, and must return to
``O(Δ)`` a finite time after timing failures stop.
:func:`time_complexity` accepts a ``since`` bound so convergence can be
measured on the post-failure suffix only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..sim.trace import CsInterval, Trace

__all__ = [
    "MutexVerdict",
    "check_mutual_exclusion",
    "check_starvation",
    "max_bypass",
    "time_complexity",
    "unserved_intervals",
    "check_mutex",
]


@dataclass
class MutexVerdict:
    """Outcome of checking one execution against the mutex spec."""

    exclusion_ok: bool
    starvation_ok: bool
    overlaps: List[Tuple[CsInterval, CsInterval]] = field(default_factory=list)
    starved_pids: List[int] = field(default_factory=list)
    max_bypass: int = 0
    time_complexity: float = 0.0
    violations: List[str] = field(default_factory=list)

    @property
    def safe(self) -> bool:
        """Mutual exclusion — the property that must *always* hold."""
        return self.exclusion_ok

    @property
    def ok(self) -> bool:
        return self.exclusion_ok and self.starvation_ok

    def __repr__(self) -> str:
        status = "ok" if self.ok else ("safe" if self.safe else "VIOLATED")
        return (
            f"MutexVerdict({status}, bypass={self.max_bypass}, "
            f"time_complexity={self.time_complexity:.3f}, "
            f"violations={self.violations!r})"
        )


def check_mutual_exclusion(trace: Trace) -> List[Tuple[CsInterval, CsInterval]]:
    """Return every pair of overlapping CS occupancies (empty = safe).

    Uses a sweep over enter-sorted intervals, so it is near-linear in the
    number of critical sections for well-behaved traces.
    """
    intervals = trace.cs_intervals()
    overlaps: List[Tuple[CsInterval, CsInterval]] = []
    active: List[CsInterval] = []
    for interval in intervals:  # sorted by enter time
        still_active = []
        for other in active:
            if other.exit > interval.enter:
                still_active.append(other)
                if interval.overlaps(other) and interval.pid != other.pid:
                    overlaps.append((other, interval))
        active = still_active
        active.append(interval)
    return overlaps


def max_bypass(trace: Trace) -> Tuple[int, Dict[int, int]]:
    """Worst bypass count and the per-pid breakdown.

    For every completed entry span of process ``p`` (from ``ENTRY_START``
    to ``CS_ENTER``), the bypass count is the number of *other* processes'
    CS entries strictly inside the span.  Starvation-free algorithms have
    bounded bypass; a process whose entry span runs to the end of the
    trace while others keep entering is the starvation signal.
    """
    spans = trace.entry_spans()
    cs_enters = [(iv.enter, iv.pid) for iv in trace.cs_intervals()]
    worst = 0
    per_pid: Dict[int, int] = {}
    for pid, start, end in spans:
        count = sum(1 for t, other in cs_enters if other != pid and start < t <= end)
        per_pid[pid] = max(per_pid.get(pid, 0), count)
        worst = max(worst, count)
    return worst, per_pid


def check_starvation(
    trace: Trace, bypass_bound: Optional[int] = None
) -> Tuple[List[int], int]:
    """Detect starvation on a finite trace.

    A process starves if its entry span is truncated by the end of the
    trace while at least ``bypass_bound`` other CS entries happened inside
    the span (default bound: 2 * number of participating processes + 2,
    which every bounded-bypass algorithm under test satisfies).

    Returns (starved pids, worst observed bypass).
    """
    n = max(len(trace.pids()), 1)
    bound = bypass_bound if bypass_bound is not None else 2 * n + 2
    worst, _ = max_bypass(trace)
    end = trace.end_time
    intervals = trace.cs_intervals()
    cs_enters = [(iv.enter, iv.pid) for iv in intervals]
    starved: List[int] = []
    for pid, start, span_end in trace.entry_spans():
        if span_end < end:
            continue  # completed (or trace ended exactly at the CS entry)
        entered = any(iv.pid == pid and iv.enter >= start for iv in intervals)
        if entered:
            continue
        bypasses = sum(1 for t, other in cs_enters if other != pid and t > start)
        if bypasses > bound:
            starved.append(pid)
    return sorted(set(starved)), worst


def unserved_intervals(
    trace: Trace, since: float = 0.0, until: Optional[float] = None
) -> List[Tuple[float, float]]:
    """Intervals where someone is in entry code but nobody is in a CS.

    This is the raw material of the paper's time-complexity metric.  The
    observation window is clipped to ``[since, until]`` (``until`` defaults
    to the end of the trace).
    """
    end = trace.end_time if until is None else until
    if end <= since:
        return []

    # +1/-1 edges for the "in entry" and "in CS" depth counters.
    edges: List[Tuple[float, int, int]] = []  # (time, which, delta)
    for _, start, stop in trace.entry_spans():
        edges.append((start, 0, +1))
        edges.append((stop, 0, -1))
    for interval in trace.cs_intervals():
        edges.append((interval.enter, 1, +1))
        edges.append((interval.exit, 1, -1))
    edges.sort()

    # Walk the segments between consecutive edge times; within a segment
    # both depths are constant.  All edges sharing one instant apply
    # simultaneously (a CS exit coinciding with a CS entry is a handover,
    # not a gap).
    out: List[Tuple[float, float]] = []
    entry_depth = 0
    cs_depth = 0
    prev_time = 0.0
    i = 0
    while i <= len(edges):
        time = edges[i][0] if i < len(edges) else max(end, prev_time)
        lo = max(prev_time, since)
        hi = min(time, end)
        if hi > lo and entry_depth > 0 and cs_depth == 0:
            out.append((lo, hi))
        while i < len(edges) and edges[i][0] == time:
            _, which, delta = edges[i]
            if which == 0:
                entry_depth += delta
            else:
                cs_depth += delta
            i += 1
        prev_time = time
        if i == len(edges):
            lo = max(prev_time, since)
            if end > lo and entry_depth > 0 and cs_depth == 0:
                out.append((lo, end))
            break

    # Merge touching fragments.
    merged: List[Tuple[float, float]] = []
    for lo, hi in sorted(out):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def time_complexity(
    trace: Trace, since: float = 0.0, until: Optional[float] = None
) -> float:
    """The paper's time-complexity metric on the window ``[since, until]``.

    "The longest time interval where some process is in its entry code
    while no process is in its critical section."  For the Efficiency
    requirement evaluate the full trace of a failure-free run; for the
    Convergence requirement evaluate with ``since`` set past the last
    timing failure (plus the claimed convergence allowance).
    """
    intervals = unserved_intervals(trace, since=since, until=until)
    return max((hi - lo for lo, hi in intervals), default=0.0)


def check_mutex(trace: Trace) -> MutexVerdict:
    """Full mutual-exclusion verdict for one execution: exclusion,
    starvation with no bypass bound, and time complexity over the whole
    trace."""
    violations: List[str] = []
    overlaps = check_mutual_exclusion(trace)
    if overlaps:
        for a, b in overlaps[:5]:
            violations.append(
                f"mutual exclusion: pid {a.pid} in CS [{a.enter:.3f},{a.exit:.3f}] "
                f"overlaps pid {b.pid} in CS [{b.enter:.3f},{b.exit:.3f}]"
            )
        if len(overlaps) > 5:
            violations.append(f"... and {len(overlaps) - 5} more overlaps")
    starved, worst = check_starvation(trace)
    if starved:
        violations.append(f"starvation: pids {starved} stuck in entry code")
    return MutexVerdict(
        exclusion_ok=not overlaps,
        starvation_ok=not starved,
        overlaps=overlaps,
        starved_pids=starved,
        max_bypass=worst,
        time_complexity=time_complexity(trace),
        violations=violations,
    )
