"""Execution traces.

Every completed operation becomes one :class:`TraceEvent`.  Traces are the
single source of truth for the specification checkers
(:mod:`repro.spec`) and the metrics (:mod:`repro.analysis.metrics`):
mutual exclusion is checked on critical-section label intervals, the
paper's time-complexity metric is computed from entry/CS spans, decision
times are read off ``DECIDED`` labels, and timing failures are the events
whose duration exceeded ``Δ``.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from . import ops as op_kinds

__all__ = ["EventKind", "TraceEvent", "Trace", "CsInterval"]


class EventKind:
    """String constants for :attr:`TraceEvent.kind`."""

    READ = "read"
    WRITE = "write"
    RMW = "rmw"
    DELAY = "delay"
    LOCAL = "local"
    LABEL = "label"
    CRASH = "crash"
    RESTART = "restart"  # crash-recovery: fresh program, persistent registers
    DONE = "done"
    FAULT = "fault"  # injected memory corruption (MemoryFault)
    SEND = "send"  # message handed to the network (repro.net)
    RECV = "recv"  # messages collected from the network (repro.net)


class TraceEvent(NamedTuple):
    """One completed operation (or lifecycle event) in an execution.

    ``issued`` is when the process started the operation and ``completed``
    is when it took effect; for shared-memory operations the linearization
    point is ``completed``.  ``exceeded_delta`` marks the event as a timing
    failure (only ever true for shared steps).

    A tuple-backed record: the engine builds one per event, and a frozen
    dataclass pays one ``object.__setattr__`` per field for that.  So an
    event also compares equal to (and hashes like) the plain tuple of its
    fields.
    """

    seq: int
    pid: int
    kind: str
    issued: float
    completed: float
    register: Optional[Hashable] = None
    value: Any = None  # value written, read, or the label payload
    label: Optional[str] = None  # label kind for LABEL events
    exceeded_delta: bool = False

    @property
    def duration(self) -> float:
        return self.completed - self.issued

    @property
    def is_shared(self) -> bool:
        return self.kind in (EventKind.READ, EventKind.WRITE, EventKind.RMW)

    def __repr__(self) -> str:  # compact, for test failure output
        core = f"#{self.seq} p{self.pid} {self.kind}"
        if self.register is not None:
            core += f" {self.register!r}"
        if self.kind == EventKind.LABEL:
            core += f" {self.label}"
        if self.value is not None:
            core += f" = {self.value!r}"
        flag = " !Δ" if self.exceeded_delta else ""
        return f"<{core} @[{self.issued:.3f},{self.completed:.3f}]{flag}>"


@dataclass(frozen=True)
class CsInterval:
    """One critical-section occupancy: [enter, exit] by ``pid``."""

    pid: int
    enter: float
    exit: float
    session: int  # 0-based index of this pid's CS entries

    def overlaps(self, other: "CsInterval") -> bool:
        """Strict overlap (shared endpoints do not count as overlap)."""
        return self.enter < other.exit and other.enter < self.exit


class Trace:
    """An append-only sequence of trace events with query helpers."""

    __slots__ = ("delta", "_events", "_finalized", "_cs_cache", "_spans_cache")

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self._events: List[TraceEvent] = []
        self._finalized = False
        # All-pid views of a finalized trace (it can no longer change), so
        # every checker reading them pays for one pass; callers get copies.
        self._cs_cache: Optional[List[CsInterval]] = None
        self._spans_cache: Optional[List[Tuple[int, float, float]]] = None

    # -- construction (engine-facing) --------------------------------------

    def append(self, event: TraceEvent) -> None:
        if self._finalized:
            raise RuntimeError("trace already finalized")
        if self._events and event.completed < self._events[-1].completed:
            raise ValueError(
                f"events must be appended in completion order: "
                f"{event.completed} after {self._events[-1].completed}"
            )
        self._events.append(event)

    def finalize(self) -> None:
        self._finalized = True

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> TraceEvent:
        return self._events[index]

    @property
    def events(self) -> Sequence[TraceEvent]:
        return tuple(self._events)

    @property
    def end_time(self) -> float:
        """Completion time of the last event (0 for an empty trace)."""
        return self._events[-1].completed if self._events else 0.0

    def for_pid(self, pid: int) -> List[TraceEvent]:
        return [e for e in self._events if e.pid == pid]

    def pids(self) -> Set[int]:
        return {e.pid for e in self._events}

    def shared_events(self, pid: Optional[int] = None) -> List[TraceEvent]:
        return [
            e
            for e in self._events
            if e.is_shared and (pid is None or e.pid == pid)
        ]

    def shared_step_count(self, pid: Optional[int] = None) -> int:
        return len(self.shared_events(pid))

    def labels(
        self, kind: Optional[str] = None, pid: Optional[int] = None
    ) -> List[TraceEvent]:
        return [
            e
            for e in self._events
            if e.kind == EventKind.LABEL
            and (kind is None or e.label == kind)
            and (pid is None or e.pid == pid)
        ]

    def registers_touched(self) -> Set[Hashable]:
        return {e.register for e in self._events if e.register is not None}

    # -- timing failures ----------------------------------------------------

    def timing_failures(self) -> List[TraceEvent]:
        """Every step whose duration exceeded ``Δ``."""
        return [e for e in self._events if e.exceeded_delta]

    @property
    def last_failure_time(self) -> float:
        """Completion time of the last timing failure (0 when none).

        This is where the convergence clock of the resilience definition
        starts ticking: "a finite number of time units after all timing
        failures stop ...".
        """
        failures = self.timing_failures()
        return failures[-1].completed if failures else 0.0

    def restarts(self, pid: Optional[int] = None) -> List[TraceEvent]:
        """Every crash-recovery restart event (see :class:`RecoverSchedule`)."""
        return [
            e
            for e in self._events
            if e.kind == EventKind.RESTART and (pid is None or e.pid == pid)
        ]

    @property
    def last_restart_time(self) -> float:
        """Completion time of the last restart (0 when none).

        Under crash-recovery a crash+restart pair is a transient fault; the
        convergence clock of the resilience definition must not start before
        the last restart.
        """
        restarts = self.restarts()
        return restarts[-1].completed if restarts else 0.0

    # -- consensus-oriented queries ------------------------------------------

    def decisions(self) -> Dict[int, Tuple[float, Any]]:
        """pid -> (decision time, decided value), from ``DECIDED`` labels."""
        out: Dict[int, Tuple[float, Any]] = {}
        for e in self.labels(kind=op_kinds.DECIDED):
            out.setdefault(e.pid, (e.completed, e.value))
        return out

    def decision_time(self, pid: int) -> Optional[float]:
        decision = self.decisions().get(pid)
        return None if decision is None else decision[0]

    # -- mutual-exclusion-oriented queries ------------------------------------

    def cs_intervals(self, pid: Optional[int] = None) -> List[CsInterval]:
        """Critical-section occupancies, from CS_ENTER/CS_EXIT label pairs.

        An unmatched ``CS_ENTER`` (process crashed or run truncated inside
        its critical section) closes at the end of the trace — unless the
        process later *restarts* (crash-recovery), in which case the
        occupancy ends at the crash: the dead incarnation stopped executing
        its critical section there, and the fresh incarnation may enter CS
        again without this counting as "entered twice".
        """
        if pid is None and self._cs_cache is not None:
            return list(self._cs_cache)
        open_by_pid: Dict[int, float] = {}
        crashed_open: Dict[int, Tuple[float, float]] = {}  # pid -> (enter, crash)
        sessions: Dict[int, int] = {}
        intervals: List[CsInterval] = []

        def close(close_pid: int, enter: float, exit_time: float) -> None:
            session = sessions.get(close_pid, 0)
            sessions[close_pid] = session + 1
            intervals.append(CsInterval(close_pid, enter, exit_time, session))

        for e in self._events:
            if e.kind == EventKind.CRASH and e.pid in open_by_pid:
                crashed_open[e.pid] = (open_by_pid.pop(e.pid), e.completed)
                continue
            if e.kind == EventKind.RESTART and e.pid in crashed_open:
                enter, crash = crashed_open.pop(e.pid)
                close(e.pid, enter, crash)
                continue
            if e.kind != EventKind.LABEL:
                continue
            if pid is not None and e.pid != pid:
                continue
            if e.label == op_kinds.CS_ENTER:
                if e.pid in open_by_pid:
                    raise ValueError(f"pid {e.pid} entered CS twice without exiting")
                open_by_pid[e.pid] = e.completed
            elif e.label == op_kinds.CS_EXIT:
                enter = open_by_pid.pop(e.pid, None)
                if enter is None:
                    raise ValueError(f"pid {e.pid} exited CS without entering")
                close(e.pid, enter, e.completed)
        end = self.end_time
        # A crash with no subsequent restart keeps the pre-recovery
        # semantics: the occupancy persists to the end of the trace.
        for open_pid, (enter, _crash) in crashed_open.items():
            open_by_pid.setdefault(open_pid, enter)
        for open_pid, enter in open_by_pid.items():
            session = sessions.get(open_pid, 0)
            intervals.append(CsInterval(open_pid, enter, end, session))
        intervals.sort(key=lambda iv: (iv.enter, iv.pid))
        if pid is None and self._finalized:
            self._cs_cache = intervals
            return list(intervals)
        return intervals

    def entry_spans(self, pid: Optional[int] = None) -> List[Tuple[int, float, float]]:
        """(pid, entry_start, cs_enter) spans — time spent in entry code.

        An ``ENTRY_START`` with no subsequent ``CS_ENTER`` (still waiting
        when the run ended, or crashed in the entry code) spans to the end
        of the trace — unless the process later restarts (crash-recovery),
        in which case the attempt ends at the crash and the fresh
        incarnation may start a new entry.
        """
        if pid is None and self._spans_cache is not None:
            return list(self._spans_cache)
        open_by_pid: Dict[int, float] = {}
        crashed_open: Dict[int, Tuple[float, float]] = {}  # pid -> (start, crash)
        spans: List[Tuple[int, float, float]] = []
        for e in self._events:
            if e.kind == EventKind.CRASH and e.pid in open_by_pid:
                crashed_open[e.pid] = (open_by_pid.pop(e.pid), e.completed)
                continue
            if e.kind == EventKind.RESTART and e.pid in crashed_open:
                start, crash = crashed_open.pop(e.pid)
                spans.append((e.pid, start, crash))
                continue
            if e.kind != EventKind.LABEL:
                continue
            if pid is not None and e.pid != pid:
                continue
            if e.label == op_kinds.ENTRY_START:
                if e.pid in open_by_pid:
                    raise ValueError(
                        f"pid {e.pid} started entry twice without entering CS"
                    )
                open_by_pid[e.pid] = e.completed
            elif e.label == op_kinds.CS_ENTER:
                start = open_by_pid.pop(e.pid, None)
                if start is not None:
                    spans.append((e.pid, start, e.completed))
        end = self.end_time
        # A crash with no subsequent restart: the attempt spans to the end
        # of the trace, exactly as before crash-recovery existed.
        for open_pid, (start, _crash) in crashed_open.items():
            open_by_pid.setdefault(open_pid, start)
        for open_pid, start in open_by_pid.items():
            spans.append((open_pid, start, end))
        spans.sort(key=lambda s: (s[1], s[0]))
        if pid is None and self._finalized:
            self._spans_cache = spans
            return list(spans)
        return spans

    def exit_spans(self, pid: Optional[int] = None) -> List[Tuple[int, float, float]]:
        """(pid, cs_exit, exit_done) spans — time spent in exit code."""
        open_by_pid: Dict[int, float] = {}
        spans: List[Tuple[int, float, float]] = []
        for e in self._events:
            if e.kind != EventKind.LABEL:
                continue
            if pid is not None and e.pid != pid:
                continue
            if e.label == op_kinds.CS_EXIT:
                open_by_pid[e.pid] = e.completed
            elif e.label == op_kinds.EXIT_DONE:
                start = open_by_pid.pop(e.pid, None)
                if start is not None:
                    spans.append((e.pid, start, e.completed))
        spans.sort(key=lambda s: (s[1], s[0]))
        return spans

    # -- register history (linearizability checking) ---------------------------

    def register_history(self, register_name: Hashable) -> List[TraceEvent]:
        """All reads and writes of one register, in linearization order."""
        return [
            e
            for e in self._events
            if e.is_shared and e.register == register_name
        ]

    # -- slicing ---------------------------------------------------------------

    def events_between(self, start: float, end: float) -> List[TraceEvent]:
        """Events whose completion time lies in ``[start, end]``.

        Uses binary search over the (sorted) completion times.
        """
        times = [e.completed for e in self._events]
        lo = bisect.bisect_left(times, start)
        hi = bisect.bisect_right(times, end)
        return self._events[lo:hi]

    def __repr__(self) -> str:
        return f"Trace({len(self._events)} events, delta={self.delta}, end={self.end_time:.3f})"
