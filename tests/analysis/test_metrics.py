"""Tests for the measurement helpers."""

import pytest

from repro.analysis.metrics import (
    decision_times_in_deltas,
    delay_count,
    handover_times,
    max_decision_time_in_deltas,
    registers_touched_under,
    rounds_used,
    solo_steps_to_decision,
    throughput,
)
from repro.core.consensus import run_consensus
from repro.core.resilience import check_resilience
from repro.sim import ConstantTiming, ops
from repro.sim.trace import EventKind, Trace, TraceEvent


def lbl(seq, pid, kind, t, value=None):
    return TraceEvent(seq=seq, pid=pid, kind=EventKind.LABEL, issued=t,
                      completed=t, label=kind, value=value)


class TestConsensusMetrics:
    def test_decision_times_normalized(self):
        r = run_consensus([0, 1], delta=2.0, timing=ConstantTiming(1.0))
        times = decision_times_in_deltas(r.run.trace)
        assert set(times) == {0, 1}
        assert max(times.values()) == max_decision_time_in_deltas(r.run.trace)
        assert all(t > 0 for t in times.values())

    def test_rounds_used_solo(self):
        r = run_consensus([1], delta=1.0, timing=ConstantTiming(0.5))
        assert rounds_used(r.run.trace, 0) == 1
        assert delay_count(r.run.trace) == 0

    def test_rounds_used_conflict(self):
        r = run_consensus([0, 1], delta=1.0, timing=ConstantTiming(0.5))
        assert rounds_used(r.run.trace, 0) == 2

    def test_solo_steps_to_decision(self):
        r = run_consensus([1], delta=1.0, timing=ConstantTiming(0.5))
        assert solo_steps_to_decision(r.run.trace, 0) == 7
        assert solo_steps_to_decision(r.run.trace, 9) is None


class TestMutexMetrics:
    def _trace(self):
        tr = Trace(delta=1.0)
        events = [
            lbl(0, 0, ops.ENTRY_START, 0.0),
            lbl(1, 0, ops.CS_ENTER, 1.0),
            lbl(2, 0, ops.CS_EXIT, 2.0),
            lbl(3, 1, ops.ENTRY_START, 1.5),
            lbl(4, 1, ops.CS_ENTER, 3.0),
            lbl(5, 1, ops.CS_EXIT, 4.0),
        ]
        for e in sorted(events, key=lambda e: e.completed):
            tr.append(e)
        return tr

    def test_throughput(self):
        tr = self._trace()
        assert throughput(tr) == pytest.approx(2 / 4.0)
        assert throughput(tr, since=2.5) == pytest.approx(1 / 1.5)

    def test_handover_times(self):
        tr = self._trace()
        gaps = handover_times(tr)
        assert gaps == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_convergence_point_no_failures(self):
        tr = self._trace()
        report = check_resilience(tr, psi_deltas=5.0)
        assert report.convergence_time == 0.0


class TestRegisterAudit:
    def test_registers_touched_under_prefix(self):
        r = run_consensus([0, 1], delta=1.0, timing=ConstantTiming(0.5))
        # The default namespace is instance-unique: recover the actual
        # prefix from any touched name.
        some_name = next(iter(r.run.memory.touched_registers))
        prefix = some_name[0] if not isinstance(some_name[0], tuple) else some_name[0][0]
        under = registers_touched_under(r.run, prefix)
        assert under == r.run.memory.touched_registers
        assert registers_touched_under(r.run, "nonexistent") == set()
