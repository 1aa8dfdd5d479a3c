"""Execution traces.

Every completed operation becomes one :class:`TraceEvent`.  Traces are the
single source of truth for the specification checkers
(:mod:`repro.spec`) and the metrics (:mod:`repro.analysis.metrics`):
mutual exclusion is checked on critical-section label intervals, the
paper's time-complexity metric is computed from entry/CS spans, decision
times are read off ``DECIDED`` labels, and timing failures are the events
whose duration exceeded ``Δ``.

A :class:`Trace` stores its events as packed columns, one per
:class:`TraceEvent` field, and builds the records on demand: about 57
bytes an event instead of a boxed record with its boxed ``seq`` and
completion time (≈ 180 bytes).
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import and_, eq
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

#: Pseudo-pid of injected memory faults (``EventKind.FAULT`` events).
FAULT_PID = -1


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

    A tuple-backed record, so an event also compares equal to (and hashes
    like) the plain tuple of its fields.  A :class:`Trace` builds one each
    time an event is read: two reads of the same event are equal, not the
    same object.
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


# The kind column stores a one-byte code, an index into ``_KINDS``.  The
# kinds the span and label queries read (labels, crashes, restarts) come
# first, so ``code < _MARKED`` says a row belongs in the trace's row index.
# A list, not a tuple: a list's bound ``__getitem__`` is a C method, and
# iteration maps it over every row.
_LABEL, _CRASH, _RESTART = range(3)
_KINDS = [EventKind.LABEL, EventKind.CRASH, EventKind.RESTART]
_KINDS += [
    kind
    for name, kind in vars(EventKind).items()
    if name.isupper() and kind not in _KINDS
]
_MARKED = 3
_CODES = {kind: code for code, kind in enumerate(_KINDS)}
_IS_SHARED = [
    kind in (EventKind.READ, EventKind.WRITE, EventKind.RMW) for kind in _KINDS
]
_new_tuple = tuple.__new__


def _events_of(columns: Iterable[Sequence[Any]]) -> Iterator[TraceEvent]:
    """The records of the given column runs, built by C-level ``zip``/``map``."""
    seq, pid, kind, issued, completed, register, value, label, exceeded = columns
    return map(
        _new_tuple,
        repeat(TraceEvent),
        zip(
            seq, pid, map(_KINDS.__getitem__, kind), issued, completed,
            register, value, label, map(bool, exceeded),
        ),
    )


class Trace:
    """An append-only sequence of trace events with query helpers.

    The events live in packed columns, in :class:`TraceEvent` field order:
    ``seq`` (``array('q')``), ``pid`` (``array('i')``), a kind code
    (``bytearray``, see ``_KINDS``), ``issued`` and ``completed``
    (``array('d')``), ``register``, ``value`` and ``label`` (lists) and
    ``exceeded_delta`` (``bytearray``).  Iteration, indexing and
    :attr:`events` build :class:`TraceEvent` records from them; the
    queries read the columns, and the label, crash and restart rows are
    indexed as they are appended (``_marks``), so the span and label
    queries never walk the other events.
    """

    __slots__ = (
        "delta", "_seq", "_pid", "_kind", "_issued", "_completed", "_register",
        "_value", "_label", "_exceeded", "_appenders", "_marks", "_end",
        "_finalized", "_cs_cache", "_spans_cache",
    )

    def __init__(self, delta: float) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        columns = (
            array("q"), array("i"), bytearray(), array("d"), array("d"),
            [], [], [], bytearray(),
        )
        (self._seq, self._pid, self._kind, self._issued, self._completed,
         self._register, self._value, self._label, self._exceeded) = columns
        self._appenders = tuple(column.append for column in columns)
        self._marks = array("q")  # rows of label, crash and restart events
        self._end = -float("inf")  # completion time of the last event
        self._finalized = False
        # All-pid views of a finalized trace (it can no longer change), so
        # every checker reading them pays for one pass; callers get copies.
        self._cs_cache: Optional[List[CsInterval]] = None
        self._spans_cache: Optional[List[Tuple[int, float, float]]] = None

    def _columns(self) -> Tuple[Any, ...]:
        return (
            self._seq, self._pid, self._kind, self._issued, self._completed,
            self._register, self._value, self._label, self._exceeded,
        )

    # -- construction (engine-facing) --------------------------------------

    def record(
        self,
        seq: int,
        pid: int,
        kind: str,
        issued: float,
        completed: float,
        register: Optional[Hashable] = None,
        value: Any = None,
        label: Optional[str] = None,
        exceeded: bool = False,
    ) -> None:
        """Append one event, given as the fields of its :class:`TraceEvent`."""
        if self._finalized or completed < self._end:
            self._refuse(completed)
        code = _CODES.get(kind)
        if code is None:
            raise ValueError(f"unknown event kind {kind!r}")
        (add_seq, add_pid, add_kind, add_issued, add_completed, add_register,
         add_value, add_label, add_exceeded) = self._appenders
        try:
            add_seq(seq)
            add_pid(pid)
            add_kind(code)
            add_issued(issued)
            add_completed(completed)
            add_register(register)
            add_value(value)
            add_label(label)
            add_exceeded(exceeded)
        except (TypeError, ValueError, OverflowError):
            # A field a column cannot hold: leave no partial row behind.
            columns = self._columns()
            rows = min(map(len, columns))
            for column in columns:
                del column[rows:]
            raise
        if code < _MARKED:
            self._marks.append(len(self._kind) - 1)
        self._end = completed

    def append(self, event: TraceEvent) -> None:
        self.record(*event)

    def _refuse(self, completed: float) -> None:
        if self._finalized:
            raise RuntimeError("trace already finalized")
        raise ValueError(
            f"events must be appended in completion order: "
            f"{completed} after {self._end}"
        )

    def finalize(self) -> None:
        self._finalized = True

    # -- basic queries ------------------------------------------------------

    def __len__(self) -> int:
        return len(self._kind)

    def __iter__(self) -> Iterator[TraceEvent]:
        return _events_of(self._columns())

    def __getitem__(self, index: Any) -> Any:
        if isinstance(index, slice):
            return list(_events_of(column[index] for column in self._columns()))
        return self._event(index)

    def _event(self, row: int) -> TraceEvent:
        return TraceEvent(
            self._seq[row], self._pid[row], _KINDS[self._kind[row]],
            self._issued[row], self._completed[row], self._register[row],
            self._value[row], self._label[row], bool(self._exceeded[row]),
        )

    def _select(self, mask: Iterable[Any]) -> List[TraceEvent]:
        """The events of the rows where ``mask`` is true."""
        event = self._event
        return [event(row) for row in compress(count(), mask)]

    def _shared_mask(self, pid: Optional[int]) -> Iterator[Any]:
        mask = map(_IS_SHARED.__getitem__, self._kind)
        if pid is None:
            return mask
        return map(and_, mask, map(eq, self._pid, repeat(pid)))

    @property
    def events(self) -> Sequence[TraceEvent]:
        return tuple(self)

    @property
    def end_time(self) -> float:
        """Completion time of the last event (0 for an empty trace)."""
        return self._completed[-1] if self._completed else 0.0

    def for_pid(self, pid: int) -> List[TraceEvent]:
        return self._select(map(eq, self._pid, repeat(pid)))

    def pids(self) -> Set[int]:
        """The processes with an event; the fault pseudo-pid is none."""
        pids = set(self._pid)
        pids.discard(FAULT_PID)
        return pids

    def shared_events(self, pid: Optional[int] = None) -> List[TraceEvent]:
        return self._select(self._shared_mask(pid))

    def shared_step_count(self, pid: Optional[int] = None) -> int:
        return sum(self._shared_mask(pid))

    def labels(self, kind: Optional[str] = None) -> List[TraceEvent]:
        kinds, labels, event = self._kind, self._label, self._event
        return [
            event(row)
            for row in self._marks
            if kinds[row] == _LABEL and (kind is None or labels[row] == kind)
        ]

    def registers_touched(self) -> Set[Hashable]:
        registers = set(self._register)
        registers.discard(None)
        return registers

    # -- timing failures ----------------------------------------------------

    def timing_failures(self) -> List[TraceEvent]:
        """Every step whose duration exceeded ``Δ``."""
        return self._select(self._exceeded)

    @property
    def last_failure_time(self) -> float:
        """Completion time of the last timing failure (0 when none).

        This is where the convergence clock of the resilience definition
        starts ticking: "a finite number of time units after all timing
        failures stop ...".
        """
        row = self._exceeded.rfind(1)
        return self._completed[row] if row >= 0 else 0.0

    def restarts(self, pid: Optional[int] = None) -> List[TraceEvent]:
        """Every crash-recovery restart event (see :class:`RecoverSchedule`)."""
        kinds, pids, event = self._kind, self._pid, self._event
        return [
            event(row)
            for row in self._marks
            if kinds[row] == _RESTART and (pid is None or pids[row] == pid)
        ]

    @property
    def last_restart_time(self) -> float:
        """Completion time of the last restart (0 when none).

        Under crash-recovery a crash+restart pair is a transient fault; the
        convergence clock of the resilience definition must not start before
        the last restart.
        """
        kinds = self._kind
        for row in reversed(self._marks):
            if kinds[row] == _RESTART:
                return self._completed[row]
        return 0.0

    # -- consensus-oriented queries ------------------------------------------

    def decisions(self) -> Dict[int, Tuple[float, Any]]:
        """pid -> (decision time, decided value), from ``DECIDED`` labels."""
        kinds, labels = self._kind, self._label
        out: Dict[int, Tuple[float, Any]] = {}
        for row in self._marks:
            if kinds[row] == _LABEL and labels[row] == op_kinds.DECIDED:
                out.setdefault(self._pid[row], (self._completed[row], self._value[row]))
        return out

    def decision_time(self, pid: int) -> Optional[float]:
        decision = self.decisions().get(pid)
        return None if decision is None else decision[0]

    # -- mutual-exclusion-oriented queries ------------------------------------

    def _marked_rows(self) -> Iterator[Tuple[int, int, float, Optional[str]]]:
        """``(kind code, pid, completed, label)`` of each label, crash and
        restart event, in trace order."""
        marks = self._marks
        return zip(
            map(self._kind.__getitem__, marks),
            map(self._pid.__getitem__, marks),
            map(self._completed.__getitem__, marks),
            map(self._label.__getitem__, marks),
        )

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

        for code, e_pid, completed, label in self._marked_rows():
            if code == _CRASH and e_pid in open_by_pid:
                crashed_open[e_pid] = (open_by_pid.pop(e_pid), completed)
                continue
            if code == _RESTART and e_pid in crashed_open:
                enter, crash = crashed_open.pop(e_pid)
                close(e_pid, enter, crash)
                continue
            if code != _LABEL:
                continue
            if pid is not None and e_pid != pid:
                continue
            if label == op_kinds.CS_ENTER:
                if e_pid in open_by_pid:
                    raise ValueError(f"pid {e_pid} entered CS twice without exiting")
                open_by_pid[e_pid] = completed
            elif label == op_kinds.CS_EXIT:
                enter = open_by_pid.pop(e_pid, None)
                if enter is None:
                    raise ValueError(f"pid {e_pid} exited CS without entering")
                close(e_pid, enter, completed)
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
        for code, e_pid, completed, label in self._marked_rows():
            if code == _CRASH and e_pid in open_by_pid:
                crashed_open[e_pid] = (open_by_pid.pop(e_pid), completed)
                continue
            if code == _RESTART and e_pid in crashed_open:
                start, crash = crashed_open.pop(e_pid)
                spans.append((e_pid, start, crash))
                continue
            if code != _LABEL:
                continue
            if pid is not None and e_pid != pid:
                continue
            if label == op_kinds.ENTRY_START:
                if e_pid in open_by_pid:
                    raise ValueError(
                        f"pid {e_pid} started entry twice without entering CS"
                    )
                open_by_pid[e_pid] = completed
            elif label == op_kinds.CS_ENTER:
                start = open_by_pid.pop(e_pid, None)
                if start is not None:
                    spans.append((e_pid, start, completed))
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
        for code, e_pid, completed, label in self._marked_rows():
            if code != _LABEL:
                continue
            if pid is not None and e_pid != pid:
                continue
            if label == op_kinds.CS_EXIT:
                open_by_pid[e_pid] = completed
            elif label == op_kinds.EXIT_DONE:
                start = open_by_pid.pop(e_pid, None)
                if start is not None:
                    spans.append((e_pid, start, completed))
        spans.sort(key=lambda s: (s[1], s[0]))
        return spans

    # -- register history (linearizability checking) ---------------------------

    def register_history(self, register_name: Hashable) -> List[TraceEvent]:
        """All reads and writes of one register, in linearization order."""
        return self._select(
            map(
                and_,
                self._shared_mask(None),
                map(eq, self._register, repeat(register_name)),
            )
        )

    # -- slicing ---------------------------------------------------------------

    def events_between(self, start: float, end: float) -> List[TraceEvent]:
        """Events whose completion time lies in ``[start, end]``.

        Uses binary search over the (sorted) completion column.
        """
        lo = bisect.bisect_left(self._completed, start)
        hi = bisect.bisect_right(self._completed, end)
        return self[lo:hi]

    def __repr__(self) -> str:
        return f"Trace({len(self)} events, delta={self.delta}, end={self.end_time:.3f})"
