"""Unit tests for the mutual-exclusion specification checker."""

import pytest

from repro.sim import ops
from repro.sim.trace import FAULT_PID, EventKind, Trace, TraceEvent
from repro.spec import (
    check_mutex,
    check_mutual_exclusion,
    check_starvation,
    max_bypass,
    time_complexity,
    unserved_intervals,
)


def lbl(seq, pid, kind, t, value=None):
    return TraceEvent(
        seq=seq, pid=pid, kind=EventKind.LABEL, issued=t, completed=t,
        label=kind, value=value,
    )


def build(events):
    tr = Trace(delta=1.0)
    for i, (pid, kind, t) in enumerate(sorted(events, key=lambda e: e[2])):
        tr.append(lbl(i, pid, kind, t))
    return tr


def session(pid, entry_start, cs_enter, cs_exit, exit_done=None):
    evs = [
        (pid, ops.ENTRY_START, entry_start),
        (pid, ops.CS_ENTER, cs_enter),
        (pid, ops.CS_EXIT, cs_exit),
    ]
    if exit_done is not None:
        evs.append((pid, ops.EXIT_DONE, exit_done))
    return evs


class TestMutualExclusion:
    def test_disjoint_ok(self):
        tr = build(session(0, 0, 1, 2, 2.5) + session(1, 2, 3, 4, 4.5))
        assert check_mutual_exclusion(tr) == []

    def test_overlap_detected(self):
        tr = build(session(0, 0, 1, 3, 3.5) + session(1, 0.5, 2, 4, 4.5))
        overlaps = check_mutual_exclusion(tr)
        assert len(overlaps) == 1
        a, b = overlaps[0]
        assert {a.pid, b.pid} == {0, 1}

    def test_handover_at_same_instant_not_overlap(self):
        tr = build(session(0, 0, 1, 2, 2.1) + session(1, 0.5, 2, 3, 3.1))
        assert check_mutual_exclusion(tr) == []

    def test_three_way_overlap_counts_pairs(self):
        evs = []
        for pid in range(3):
            evs += session(pid, 0, 1 + 0.1 * pid, 5, 5.5)
        tr = build(evs)
        assert len(check_mutual_exclusion(tr)) == 3  # all pairs


class TestBypass:
    def test_no_bypass(self):
        tr = build(session(0, 0, 1, 2, 2.5))
        worst, per_pid = max_bypass(tr)
        assert worst == 0

    def test_bypass_counted(self):
        # pid 0 waits from t=0 to t=10; pid 1 enters twice inside that span.
        evs = session(0, 0, 10, 11, 11.5)
        evs += session(1, 0.5, 1, 2, 2.5) + session(1, 3, 4, 5, 5.5)
        tr = build(evs)
        worst, per_pid = max_bypass(tr)
        assert worst == 2
        assert per_pid[0] == 2


class TestStarvation:
    def test_completed_sessions_not_starved(self):
        tr = build(session(0, 0, 1, 2, 2.5))
        starved, _ = check_starvation(tr)
        assert starved == []

    def test_truncated_wait_with_many_bypasses_is_starvation(self):
        evs = [(0, ops.ENTRY_START, 0.0)]
        t = 0.5
        for k in range(12):  # far above the default bound for 2 pids
            evs += session(1, t, t + 0.1, t + 0.2, t + 0.3)
            t += 0.5
        tr = build(evs)
        starved, worst = check_starvation(tr)
        assert starved == [0]
        assert worst >= 12

    def test_a_memory_fault_is_not_a_participating_process(self):
        # Seven bypasses: above the default bound for 2 processes (6),
        # below the one a phantom third process would set (8).
        evs = [(0, ops.ENTRY_START, 0.0)]
        t = 0.5
        for k in range(7):
            evs += session(1, t, t + 0.1, t + 0.2, t + 0.3)
            t += 0.5
        tr = build(evs)
        tr.append(TraceEvent(len(tr), FAULT_PID, EventKind.FAULT, t, t, "x", 9))
        assert tr.pids() == {0, 1}
        starved, worst = check_starvation(tr)
        assert starved == [0] and worst == 7

    def test_bound_override(self):
        evs = [(0, ops.ENTRY_START, 0.0)]
        t = 0.5
        for k in range(4):
            evs += session(1, t, t + 0.1, t + 0.2, t + 0.3)
            t += 0.5
        tr = build(evs)
        starved, _ = check_starvation(tr, bypass_bound=2)
        assert starved == [0]
        starved2, _ = check_starvation(tr, bypass_bound=100)
        assert starved2 == []


class TestTimeComplexity:
    def test_no_entries_zero(self):
        tr = build([(0, ops.CS_ENTER, 1.0), (0, ops.CS_EXIT, 2.0)])
        assert time_complexity(tr) == 0.0

    def test_simple_wait(self):
        # pid 0 in entry 0..3 with no CS at all until it enters.
        tr = build(session(0, 0.0, 3.0, 4.0, 4.5))
        assert time_complexity(tr) == pytest.approx(3.0)

    def test_wait_covered_by_other_cs(self):
        # pid 0 waits 0..5 but pid 1 is in CS 1..4: unserved only 0..1 and 4..5.
        evs = session(0, 0.0, 5.0, 6.0, 6.5) + session(1, 0.8, 1.0, 4.0, 4.2)
        tr = build(evs)
        assert time_complexity(tr) == pytest.approx(1.0)

    def test_since_window(self):
        evs = session(0, 0.0, 4.0, 5.0, 5.5) + session(1, 6.0, 6.5, 7.0, 7.5)
        tr = build(evs)
        assert time_complexity(tr, since=5.8) == pytest.approx(0.5)

    def test_truncated_entry_counts_to_end(self):
        tr = build([(0, ops.ENTRY_START, 1.0), (1, ops.CS_ENTER, 9.0), (1, ops.CS_EXIT, 10.0)])
        # pid0 in entry 1..10 (end), CS covers 9..10: unserved 1..9.
        assert time_complexity(tr) == pytest.approx(8.0)

    def test_unserved_intervals_merge(self):
        evs = session(0, 0.0, 2.0, 3.0, 3.5) + session(1, 2.5, 4.0, 5.0, 5.5)
        tr = build(evs)
        ivs = unserved_intervals(tr)
        # 0..2 (pid0 waiting, nobody in CS) then 3..4 (pid1 waiting).
        assert ivs == [
            (pytest.approx(0.0), pytest.approx(2.0)),
            (pytest.approx(3.0), pytest.approx(4.0)),
        ]


class TestCheckMutex:
    def test_clean_verdict(self):
        tr = build(session(0, 0, 1, 2, 2.5) + session(1, 2, 3, 4, 4.5))
        v = check_mutex(tr)
        assert v.ok and v.safe
        assert v.violations == []

    def test_overlap_verdict(self):
        tr = build(session(0, 0, 1, 3, 3.5) + session(1, 0.5, 2, 4, 4.5))
        v = check_mutex(tr)
        assert not v.safe
        assert any("mutual exclusion" in m for m in v.violations)

    def test_time_complexity_included(self):
        tr = build(session(0, 0.0, 3.0, 4.0, 4.5))
        v = check_mutex(tr)
        assert v.time_complexity == pytest.approx(3.0)
