"""Tests for transient memory-failure injection (paper §4 extension).

The paper does NOT claim resilience to memory failures — these tests
document the observed boundary: which corruptions Algorithm 1 happens to
survive, and which forge its state (the motivation for combining memory-
and timing-failure resilience as future work).
"""

import pytest

from repro.core.consensus import TimeResilientConsensus, labeled_decision, run_consensus
from repro.sim import (
    ConstantTiming,
    Engine,
    MemoryFault,
    Register,
    read,
)
from repro.sim.registers import RegisterNamespace
from repro.spec import check_consensus


class TestInjection:
    def test_fault_applies_at_scheduled_time(self):
        r = Register("cell", 0)

        def reader(pid):
            before = yield read(r)
            # Spin until past the fault time.
            value = before
            for _ in range(20):
                value = yield read(r)
            return (before, value)

        eng = Engine(delta=1.0, timing=ConstantTiming(0.5),
                     faults=[MemoryFault(at=3.0, register=r, value=99)])
        eng.spawn(reader(0))
        res = eng.run()
        before, after = res.returns[0]
        assert before == 0
        assert after == 99

    def test_fault_recorded_in_trace(self):
        r = Register("cell", 0)

        def prog(pid):
            yield read(r)

        eng = Engine(delta=1.0, timing=ConstantTiming(0.5),
                     faults=[MemoryFault(at=0.1, register=r, value=7)])
        eng.spawn(prog(0))
        res = eng.run()
        faults = [e for e in res.trace if e.kind == "fault"]
        assert len(faults) == 1
        assert faults[0].value == 7

    def test_fault_pseudo_pid_is_not_a_process(self):
        r = Register("cell", 0)

        def prog(pid):
            yield read(r)

        eng = Engine(delta=1.0, timing=ConstantTiming(0.5),
                     faults=[MemoryFault(at=0.1, register=r, value=7)])
        eng.spawn(prog(0))
        eng.spawn(prog(1))
        res = eng.run()
        assert [e.pid for e in res.trace if e.kind == "fault"] == [-1]
        assert res.trace.pids() == {0, 1}

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            MemoryFault(at=-1.0, register=Register("x"), value=0)

    def test_fault_linearizes_between_steps(self):
        """A read completing before the fault returns the old value."""
        r = Register("cell", 0)

        def prog(pid):
            first = yield read(r)  # completes at 0.5 < fault at 1.0
            second = yield read(r)  # completes at 1.0... tie with fault
            third = yield read(r)  # completes at 1.5 > fault
            return (first, third)

        eng = Engine(delta=1.0, timing=ConstantTiming(0.5),
                     faults=[MemoryFault(at=1.0, register=r, value=5)])
        eng.spawn(prog(0))
        res = eng.run()
        first, third = res.returns[0]
        assert first == 0
        assert third == 5


class TestConsensusUnderMemoryFaults:
    """The documented boundary of Algorithm 1 vs memory corruption."""

    def test_stale_round_corruption_after_decision_is_harmless(self):
        """Corrupting a round-1 flag after everyone decided changes nothing."""
        consensus = TimeResilientConsensus(delta=1.0,
                                           namespace=RegisterNamespace("mfa"))
        fault = MemoryFault(at=50.0, register=consensus.x[1, 0], value=0)
        eng = Engine(delta=1.0, timing=ConstantTiming(0.5), faults=[fault])
        inputs = {0: 0, 1: 1}
        for pid, v in inputs.items():
            eng.spawn(labeled_decision(consensus.propose(pid, v)), pid=pid)
        res = eng.run()
        verdict = check_consensus(res, inputs)
        assert verdict.ok

    def test_corrupted_decide_register_forges_decisions(self):
        """The negative control: Algorithm 1 is NOT memory-failure
        resilient — corrupting `decide` mid-run can violate validity for
        late readers (this is exactly the future-work gap the paper
        names)."""
        consensus = TimeResilientConsensus(delta=1.0,
                                           namespace=RegisterNamespace("mfb"))
        # Corrupt decide to a never-proposed value before a late process
        # arrives; the latecomer adopts the forged decision.
        fault = MemoryFault(at=5.0, register=consensus.decide, value=1)
        eng = Engine(delta=1.0, timing=ConstantTiming(0.5), faults=[fault])
        inputs = {0: 0, 1: 0}
        eng.spawn(labeled_decision(consensus.propose(0, 0)), pid=0)
        eng.spawn(labeled_decision(consensus.propose(1, 0)), pid=1,
                  start_time=10.0)
        res = eng.run()
        verdict = check_consensus(res, inputs, require_termination=False)
        # pid 1 decided the forged value 1, which nobody proposed.
        assert not verdict.valid

    def test_pre_decision_y_corruption_keeps_agreement(self):
        """Corrupting y[1] mid-round may change WHICH value wins, but all
        processes still agree (y corruption acts like another proposal)."""
        consensus = TimeResilientConsensus(delta=1.0,
                                           namespace=RegisterNamespace("mfc"))
        fault = MemoryFault(at=1.7, register=consensus.y[1], value=1)
        eng = Engine(delta=1.0, timing=ConstantTiming(0.5), faults=[fault])
        inputs = {0: 0, 1: 1}
        for pid, v in inputs.items():
            eng.spawn(labeled_decision(consensus.propose(pid, v)), pid=pid)
        res = eng.run()
        verdict = check_consensus(res, inputs)
        assert verdict.agreed


class TestMutexUnderMemoryFaults:
    def test_doorway_corruption_does_not_break_exclusion(self):
        """Corrupting Algorithm 3's doorway register x floods A — the same
        situation a timing failure creates — and A keeps the CS safe."""
        from repro.algorithms import mutex_session
        from repro.core.mutex import default_time_resilient_mutex
        from repro.spec import check_mutual_exclusion

        lock = default_time_resilient_mutex(3, delta=1.0)
        # Force the doorway open while someone is inside.
        faults = [MemoryFault(at=t, register=lock.x, value=None)
                  for t in (2.0, 5.0, 8.0)]
        eng = Engine(delta=1.0, timing=ConstantTiming(0.4), faults=faults,
                     max_time=50_000.0)
        for pid in range(3):
            eng.spawn(mutex_session(lock, pid, 3, cs_duration=0.5,
                                    ncs_duration=0.2), pid=pid)
        res = eng.run()
        assert check_mutual_exclusion(res.trace) == []
