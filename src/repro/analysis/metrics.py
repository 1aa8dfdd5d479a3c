"""Measurement helpers shared by the experiments and benchmarks.

Everything here reads finished traces/runs; nothing re-runs anything.
Units: times are in the trace's native time units; ``*_in_deltas`` helpers
normalize by ``Δ`` so results read like the paper's bounds (e.g.
"decides within 15·Δ").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set

from ..sim.engine import RunResult
from ..sim.trace import Trace

__all__ = [
    "decision_times_in_deltas",
    "max_decision_time_in_deltas",
    "rounds_used",
    "delay_count",
    "solo_steps_to_decision",
    "throughput",
    "handover_times",
    "registers_touched_under",
    "rmr_count",
    "rmr_per_cs_entry",
]


def decision_times_in_deltas(trace: Trace) -> Dict[int, float]:
    """pid -> decision time divided by Δ."""
    return {pid: t / trace.delta for pid, (t, _) in trace.decisions().items()}


def max_decision_time_in_deltas(trace: Trace) -> Optional[float]:
    times = decision_times_in_deltas(trace)
    return max(times.values()) if times else None


def delay_count(trace: Trace, pid: Optional[int] = None) -> int:
    """Number of explicit delay statements executed."""
    return len(
        [e for e in trace if e.kind == "delay" and (pid is None or e.pid == pid)]
    )


def rounds_used(trace: Trace, pid: int) -> int:
    """Rounds Algorithm 1 (or a round-based baseline) consumed for ``pid``.

    Each non-deciding round executes exactly one delay statement, so
    rounds = delays + 1.
    """
    return delay_count(trace, pid) + 1


def solo_steps_to_decision(trace: Trace, pid: int) -> Optional[int]:
    """Shared steps ``pid`` took up to (and including) its decision."""
    decision = trace.decisions().get(pid)
    if decision is None:
        return None
    t, _ = decision
    return len([e for e in trace.for_pid(pid) if e.is_shared and e.completed <= t])


def throughput(trace: Trace, since: float = 0.0) -> float:
    """Critical sections completed per time unit in ``[since, end]``."""
    window = trace.end_time - since
    if window <= 0:
        return 0.0
    entries = [iv for iv in trace.cs_intervals() if iv.exit > since]
    return len(entries) / window


def handover_times(trace: Trace) -> List[float]:
    """Gaps between consecutive critical sections while someone waited.

    These are the per-handover samples behind the paper's time-complexity
    metric (which is their maximum).
    """
    from ..spec.mutex_spec import unserved_intervals

    return [hi - lo for lo, hi in unserved_intervals(trace)]


def registers_touched_under(result: RunResult, prefix: Hashable) -> Set[Hashable]:
    """Registers whose (possibly nested) name starts with ``prefix``."""
    out: Set[Hashable] = set()
    for name in result.memory.touched_registers:
        probe = name
        while True:
            if probe == prefix:
                out.add(name)
                break
            if isinstance(probe, tuple) and probe:
                probe = probe[0]
            else:
                break
    return out


def rmr_count(trace: Trace, pid: Optional[int] = None) -> int:
    """Remote memory references under the cache-coherent model.

    The paper's related work ([25], Kim & Anderson, "Timing-based mutual
    exclusion with local spinning") measures time complexity counting only
    *remote* memory references and delay statements, because a spin on a
    locally cached value is free on real machines.  The standard
    cache-coherent accounting:

    * a read is local when the reader holds a valid cached copy (it read
      the register since the last write to it); remote otherwise — and it
      installs a copy;
    * every write is remote and invalidates all other copies (the writer
      retains one);
    * every RMW is remote (it behaves like a write).

    This lets the benchmarks show, e.g., that the bakery's await loops are
    mostly local spinning while its doorway scan is Θ(n) remote.
    """
    holders: Dict[Hashable, Set[int]] = {}
    remote = 0
    for event in trace:
        if not event.is_shared:
            continue
        if pid is not None and event.pid != pid:
            # Still apply coherence effects of other processes' writes.
            if event.kind in ("write", "rmw"):
                holders[event.register] = {event.pid}
            else:
                holders.setdefault(event.register, set()).add(event.pid)
            continue
        if event.kind == "read":
            cached = holders.setdefault(event.register, set())
            if event.pid not in cached:
                remote += 1
                cached.add(event.pid)
        else:  # write or rmw
            remote += 1
            holders[event.register] = {event.pid}
    return remote


def rmr_per_cs_entry(trace: Trace) -> Optional[float]:
    """Average remote references per completed critical-section entry."""
    entries = len(trace.cs_intervals())
    if entries == 0:
        return None
    return rmr_count(trace) / entries
