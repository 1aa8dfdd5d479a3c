"""Unit tests for the asynchronous replay sandbox."""

import pytest

from repro.sim import ops
from repro.sim.registers import Register
from repro.verify.sandbox import Sandbox, _UndoSandbox

X = Register("x", 0)
Y = Register("y", 0)


def incrementer(pid):
    v = yield ops.read(X)
    yield ops.write(X, v + 1)
    return v


def test_initial_state_parks_at_first_shared_op():
    sb = Sandbox({0: incrementer}, max_ops=10)
    assert sb.enabled() == [0]
    assert not sb.done(0)


def test_step_executes_linearization():
    sb = Sandbox({0: incrementer}, max_ops=10)
    sb.step(0)  # read
    sb.step(0)  # write
    assert sb.done(0)
    assert sb.result(0) == 0
    assert sb.memory.peek(X) == 1


def test_lost_update_interleaving():
    """The classic race: both read 0, both write 1."""
    sb = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb.step(0)  # p0 reads 0
    sb.step(1)  # p1 reads 0
    sb.step(0)
    sb.step(1)
    assert sb.memory.peek(X) == 1  # the lost update, observable


def test_sequential_interleaving():
    sb = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb.step(0)
    sb.step(0)
    sb.step(1)
    sb.step(1)
    assert sb.memory.peek(X) == 2


def test_delay_is_noop():
    def prog(pid):
        yield ops.delay(100.0)
        yield ops.write(X, 1)

    sb = Sandbox({0: prog}, max_ops=10)
    sb.step(0)  # goes straight to the write
    assert sb.done(0)


def test_positive_local_work_is_pause_point():
    def prog(pid):
        yield ops.label(ops.CS_ENTER)
        yield ops.local_work(1.0)
        yield ops.label(ops.CS_EXIT)
        yield ops.write(X, 1)

    sb = Sandbox({0: prog}, max_ops=10)
    assert sb.in_cs == {0}  # parked inside the CS
    sb.step(0)  # finish the pause
    assert sb.in_cs == set()
    sb.step(0)
    assert sb.done(0)


def test_zero_local_work_skipped():
    def prog(pid):
        yield ops.local_work(0.0)
        yield ops.write(X, 1)

    sb = Sandbox({0: prog}, max_ops=10)
    sb.step(0)
    assert sb.done(0)


def test_decided_labels_tracked():
    def prog(pid):
        yield ops.write(X, 1)
        yield ops.label(ops.DECIDED, 42)

    sb = Sandbox({0: prog}, max_ops=10)
    sb.step(0)
    assert sb.decisions == {0: 42}


def test_op_bound_suspends():
    def spinner(pid):
        while True:
            yield ops.read(X)

    sb = Sandbox({0: spinner}, max_ops=3)
    for _ in range(3):
        sb.step(0)
    assert sb.enabled() == []
    assert sb.suspended() == [0]
    with pytest.raises(ValueError):
        sb.step(0)


def test_fingerprint_equal_for_equivalent_states():
    sb1 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb2 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb1.step(0)
    sb2.step(0)
    assert sb1.fingerprint() == sb2.fingerprint()


def test_fingerprint_differs_after_different_histories():
    sb1 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb2 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb1.step(0)
    sb2.step(1)
    assert sb1.fingerprint() != sb2.fingerprint()


def test_fingerprint_distinguishes_read_values():
    sb1 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    sb2 = Sandbox({0: incrementer, 1: incrementer}, max_ops=10)
    # sb1: p0 reads 0. sb2: p1 increments fully first, then p0 reads 1.
    sb1.step(0)
    sb2.step(1)
    sb2.step(1)
    sb2.step(0)
    assert sb1.fingerprint() != sb2.fingerprint()


def test_all_quiescent():
    sb = Sandbox({0: incrementer}, max_ops=10)
    assert not sb.all_quiescent()
    sb.step(0)
    sb.step(0)
    assert sb.all_quiescent()


def test_non_op_yield_rejected():
    def bad(pid):
        yield 7

    with pytest.raises(TypeError):
        Sandbox({0: bad}, max_ops=10)


def test_message_op_rejected_for_want_of_a_transport():
    def talker(pid):
        yield ops.recv()

    with pytest.raises(TypeError, match="message op Recv.*need a transport"):
        Sandbox({0: talker}, max_ops=10)


def test_double_cs_enter_rejected():
    def bad(pid):
        yield ops.label(ops.CS_ENTER)
        yield ops.label(ops.CS_ENTER)
        yield ops.write(X, 1)

    with pytest.raises(RuntimeError, match="twice"):
        Sandbox({0: bad}, max_ops=10)


class TestRestart:
    """Crash-recovery in the sandbox: fresh program, persistent memory."""

    def test_restart_rebuilds_program_and_keeps_memory(self):
        sb = Sandbox({0: incrementer}, max_ops=10)
        sb.step(0)  # read 0
        sb.step(0)  # write 1
        assert sb.done(0)
        sb.restart(0, incrementer)
        assert not sb.done(0)
        sb.step(0)  # fresh program reads the persistent 1
        sb.step(0)
        assert sb.result(0) == 1 and sb.memory.peek(X) == 2

    def test_restart_resets_per_incarnation_op_budget(self):
        sb = Sandbox({0: incrementer}, max_ops=10)
        sb.step(0)
        assert sb.op_count(0) == 1
        sb.restart(0, incrementer)
        assert sb.op_count(0) == 0

    def test_restart_clears_cs_occupancy(self):
        def looper(pid):
            yield ops.label(ops.CS_ENTER)
            yield ops.local_work(1.0)
            yield ops.label(ops.CS_EXIT)
            yield ops.write(X, 1)

        sb = Sandbox({0: looper}, max_ops=10)
        assert sb.in_cs == {0}
        sb.restart(0, looper)
        assert sb.in_cs == {0}  # the fresh incarnation re-entered
        sb.step(0)
        assert sb.in_cs == set()

    def test_restart_is_visible_to_the_fingerprint(self):
        sb1 = Sandbox({0: incrementer}, max_ops=10)
        sb2 = Sandbox({0: incrementer}, max_ops=10)
        sb2.restart(0, incrementer)
        assert sb1.fingerprint() != sb2.fingerprint()

    def test_restart_unknown_pid_rejected(self):
        sb = Sandbox({0: incrementer}, max_ops=10)
        with pytest.raises(ValueError, match="unknown pid"):
            sb.restart(7, incrementer)


class TestUndo:
    """The explorer's sandbox: ``step; undo`` leaves no trace."""

    @staticmethod
    def reference(sb):
        """What a plain sandbox in the same state would show."""
        pids = sorted(sb._programs)
        return (
            Sandbox.fingerprint(sb),
            sb.memory.fingerprint(),
            set(sb.in_cs),
            dict(sb.decisions),
            list(sb.labels_seen),
            sb.enabled(),
            [(sb.done(p), sb.result(p), sb.op_count(p), repr(sb.pending_op(p)))
             for p in pids],
        )

    @classmethod
    def observed(cls, sb):
        """The reference plus the sandbox's own fingerprint (the digest)."""
        return (sb.fingerprint(),) + cls.reference(sb)

    @staticmethod
    def worker(pid):
        v = yield ops.read(X)                        # read
        yield ops.write(Y, v + pid + 1)              # write
        old = yield ops.fetch_and_add(X, 2)          # RMW
        yield ops.label(ops.CS_ENTER)
        yield ops.local_work(1.0)                    # pause point
        yield ops.label(ops.CS_EXIT)
        yield ops.write(Y, 0)                        # back to the initial value
        yield ops.label(ops.DECIDED, old)
        yield ops.write(X, [old, pid])               # then finishes
        return old

    def test_every_kind_of_step_round_trips(self):
        sb = _UndoSandbox({0: self.worker, 1: self.worker}, max_ops=10)
        for pid in (0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 1):
            before = self.observed(sb)
            sb.step(pid)
            assert self.observed(sb) != before
            sb.undo()
            assert self.observed(sb) == before
            sb.step(pid)  # the second time over a recorded position
        assert sb.done(0) and sb.done(1) and sb.enabled() == []
        assert sb.decisions == {0: 0, 1: 2}

    def test_agrees_with_a_plain_sandbox_after_backtracking(self):
        factories = {0: self.worker, 1: self.worker}
        sb = _UndoSandbox(factories, max_ops=10)
        for pid in (0, 0, 0, 1, 1):
            sb.step(pid)
        for _ in range(5):
            sb.undo()
        # pid 0's generator has run three steps ahead of its process; once
        # pid 1 has changed X, pid 0's first read returns a value not seen
        # at that position, which only a rebuilt generator can be sent.
        ahead = sb._programs[0]
        plain = Sandbox(factories, max_ops=10)
        for pid in (1, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0):
            sb.step(pid)
            plain.step(pid)
            assert self.reference(sb) == self.reference(plain)
        assert sb._programs[0] is not ahead
        assert sb.done(0) and sb.done(1)

    def test_a_recorded_position_revisited_after_a_rebuild_keeps_its_digest(self):
        sb = _UndoSandbox({0: self.worker, 1: self.worker}, max_ops=10)
        for pid in (0, 0, 0):
            sb.step(pid)
        recorded = self.observed(sb)
        for _ in range(3):
            sb.undo()
        ahead = sb._programs[0]
        for pid in (1, 1, 1, 0):  # pid 0 reads a value new at its start
            sb.step(pid)
        assert sb._programs[0] is not ahead
        for _ in range(4):
            sb.undo()
        for pid in (0, 0, 0):
            sb.step(pid)
        assert self.observed(sb) == recorded

    def test_a_cell_rewritten_to_its_initial_value_counts_as_unwritten(self):
        def writer(pid):
            yield ops.write(Y, 7)
            yield ops.write(Y, 0)

        def reader(pid):
            yield ops.read(Y)

        sb = _UndoSandbox({0: writer, 1: reader}, max_ops=10)
        start = self.observed(sb)
        reached = []
        for schedule in ((1, 0, 0), (0, 0, 1)):
            for pid in schedule:
                sb.step(pid)
            reached.append(self.observed(sb))
            for _ in schedule:
                sb.undo()
            assert self.observed(sb) == start
        # Either way the reader saw 0 and Y is back at 0: one state.
        assert reached[0] == reached[1]
        # Y restored is Y never written: memory has no share in the digest.
        sb.step(0)
        assert sb.fingerprint() != sb._position[0].z ^ sb._position[1].z
        sb.step(0)
        assert sb.fingerprint() == sb._position[0].z ^ sb._position[1].z
        assert sb.memory.fingerprint() == ()

    def test_undo_restores_what_the_step_found_in_memory(self):
        sb = _UndoSandbox({0: self.worker}, max_ops=10)
        sb.step(0)
        digest, reference = sb.fingerprint(), Sandbox.fingerprint(sb)
        sb.memory.poke(Y, 41)  # e.g. a corruption between steps
        # Not a step: the reference sees it, the maintained digest cannot.
        assert Sandbox.fingerprint(sb) != reference and sb.fingerprint() == digest
        before = self.observed(sb)
        sb.step(0)  # overwrites Y
        sb.undo()
        assert self.observed(sb) == before and sb.memory.peek(Y) == 41

    def test_restart_is_refused(self):
        sb = _UndoSandbox({0: incrementer}, max_ops=10)
        with pytest.raises(NotImplementedError):
            sb.restart(0, incrementer)
