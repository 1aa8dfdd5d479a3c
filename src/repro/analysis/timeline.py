"""ASCII timelines for traces.

A reproduction library lives or dies by how quickly a failing run can be
understood; :func:`render_timeline` turns a trace into a per-process lane
diagram —

::

    p0 |--====[########]--------........--|
    p1 |--==========....====[####]-------|
          ^ t=1.2 timing failure

— where ``=`` is entry code, ``#`` is the critical section, ``.`` is exit
code, ``-`` is the remainder section, ``!`` marks steps that exceeded Δ
and ``*`` marks injected memory faults.  Used by the examples and handy
in test failure output (`pytest -l` shows the rendered string).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim import ops
from ..sim.trace import EventKind, Trace

__all__ = ["render_timeline", "lane_for"]

_REMAINDER = "-"
_ENTRY = "="
_CS = "#"
_EXIT = "."
_FAILURE = "!"
_FAULT = "*"
_CRASH = "x"


def _phase_spans(trace: Trace, pid: int) -> List[Tuple[float, float, str]]:
    """(start, end, glyph) spans for one process's lifecycle phases."""
    spans: List[Tuple[float, float, str]] = []
    phase_start = 0.0
    phase = _REMAINDER
    for event in trace.for_pid(pid):
        if event.kind == EventKind.LABEL:
            next_phase: Optional[str] = None
            if event.label == ops.ENTRY_START:
                next_phase = _ENTRY
            elif event.label == ops.CS_ENTER:
                next_phase = _CS
            elif event.label == ops.CS_EXIT:
                next_phase = _EXIT
            elif event.label == ops.EXIT_DONE:
                next_phase = _REMAINDER
            if next_phase is not None:
                spans.append((phase_start, event.completed, phase))
                phase_start = event.completed
                phase = next_phase
        elif event.kind == EventKind.CRASH:
            spans.append((phase_start, event.completed, phase))
            spans.append((event.completed, trace.end_time, _CRASH))
            return spans
    spans.append((phase_start, trace.end_time, phase))
    return spans


def lane_for(trace: Trace, pid: int, width: int = 72) -> str:
    """One process's lane as a fixed-width string."""
    if width < 4:
        raise ValueError(f"width must be >= 4, got {width}")
    end = trace.end_time
    if end <= 0:
        return " " * width
    scale = width / end
    lane = [_REMAINDER] * width

    def col(t: float) -> int:
        return max(0, min(width - 1, int(t * scale)))

    for start, stop, glyph in _phase_spans(trace, pid):
        for i in range(col(start), col(stop) + 1):
            lane[i] = glyph
    # Overlay timing failures and the crash marker.
    for event in trace.for_pid(pid):
        if event.exceeded_delta:
            lane[col(event.completed)] = _FAILURE
        if event.kind == EventKind.CRASH:
            lane[col(event.completed)] = _CRASH
    return "".join(lane)


def render_timeline(trace: Trace, width: int = 72) -> str:
    """All processes' lanes plus a fault row and a time ruler."""
    pids = sorted(trace.pids())
    if not pids:
        return "(empty trace)"
    lines = []
    for pid in pids:
        lines.append(f"p{pid:<3}|{lane_for(trace, pid, width)}|")
    # Injected memory faults get their own row.
    faults = [e for e in trace if e.kind == EventKind.FAULT]
    if faults:
        end = trace.end_time or 1.0
        row = [" "] * width
        for event in faults:
            row[max(0, min(width - 1, int(event.completed / end * width)))] = _FAULT
        lines.append(f"flt |{''.join(row)}|")
    end = trace.end_time
    ruler = f"    |0{' ' * (width - len(f'{end:.1f}') - 1)}{end:.1f}|"
    lines.append(ruler)
    lines.append(
        "     legend: = entry   # critical section   . exit   - remainder   "
        "! >Δ step   x crash   * fault"
    )
    return "\n".join(lines)
