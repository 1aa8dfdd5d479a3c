"""Unit tests for the asynchronous replay sandbox."""

import random

import pytest

from repro.chaos.runner import SIM_TARGETS
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


class TestLazyFreeze:
    """``step`` keeps what a read returned as it is; ``fingerprint`` freezes
    it, so the reference digest is what freezing at every read gave."""

    L = Register("l", None)

    @classmethod
    def reader(cls, pid):
        yield ops.read(cls.L)
        yield ops.read(cls.L)

    def after_reading(self, value, restart=False):
        """A sandbox whose pid 0 maybe restarted, then read ``value``, with
        the register back at its initial value: only the read history
        tells the runs apart (a restart before the first read leaves the
        op count, the pending op and memory as they were)."""
        sb = Sandbox({0: self.reader}, max_ops=10)
        if restart:
            sb.restart(0, self.reader)
        sb.memory.poke(self.L, value)
        sb.step(0)
        sb.memory.poke(self.L, None)
        return sb

    def test_equal_lists_read_give_equal_fingerprints(self):
        first, second = [1, [2, 3]], [1, [2, 3]]
        a, b = self.after_reading(first), self.after_reading(second)
        assert first is not second
        assert a.fingerprint() == b.fingerprint()
        hash(a.fingerprint())  # frozen: no list left in it

    def test_a_different_list_read_gives_a_different_fingerprint(self):
        assert (self.after_reading([1, [2, 3]]).fingerprint()
                != self.after_reading([1, [2, 4]]).fingerprint())

    def test_a_restarted_pid_still_differs(self):
        restarted = self.after_reading([1, 2], restart=True)
        assert restarted.fingerprint() == self.after_reading([1, 2], restart=True).fingerprint()
        assert restarted.fingerprint() != self.after_reading([1, 2]).fingerprint()


class TestKeptRunnableList:
    """``enabled()`` is kept current by ``step`` and ``restart``; it must
    always say what the per-pid state says."""

    @staticmethod
    def derived(sb, pids):
        return [
            pid for pid in sorted(pids)
            if sb.pending_op(pid) is not None and sb.op_count(pid) < sb.max_ops
        ]

    def check(self, sb, pids):
        expected = self.derived(sb, pids)
        got = sb.enabled()
        assert got == expected
        got.reverse()
        got.append(-1)
        assert sb.enabled() == expected  # the caller's copy, not the sandbox's

    @pytest.mark.parametrize("name", sorted(SIM_TARGETS))
    def test_enabled_matches_the_per_pid_state_after_every_step(self, name):
        target = SIM_TARGETS[name]
        rng = random.Random(f"runnable:{name}")
        # Why pids left the list: finished, or stopped by the bound (the
        # small bound makes sure of that); and restarts that brought one back.
        seen = {"finished": 0, "bound": 0, "restarted": 0}
        for max_ops in (target.max_ops, 2):
            for _ in range(10):
                factories, _properties, _registers = target.build()
                assert sorted(factories) == list(target.pids)
                sb = Sandbox(factories, max_ops=max_ops)
                self.check(sb, target.pids)
                restarts = 3 if target.recover else 0
                while True:
                    runnable = sb.enabled()
                    if restarts and rng.random() < 0.05:
                        restarts -= 1
                        pid = rng.choice(target.pids)
                        seen["restarted"] += pid not in runnable
                        sb.restart(pid, factories[pid])
                    elif runnable:
                        pid = rng.choice(runnable)
                        sb.step(pid)
                        if pid not in sb.enabled():
                            seen["finished" if sb.done(pid) else "bound"] += 1
                    else:
                        break
                    self.check(sb, target.pids)
        assert seen["finished"] and seen["bound"]
        assert bool(seen["restarted"]) == target.recover


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


class TestFrameStates:
    """One position per frame state, whatever the read history — and
    never one position for two frame states."""

    @staticmethod
    def watcher(pid):
        """Remembers only the last value it saw."""
        yield ops.label("note", "start")
        while True:
            last = yield ops.read(X)
            if last == 9:
                return last

    @staticmethod
    def bumper(pid):
        for value in (1, 2, 1):
            yield ops.write(X, value)

    def search_sizes(self, factories, max_ops):
        from repro.verify import explore

        from .test_explorer import reference_explore

        res = explore(factories, [], max_ops=max_ops)
        ref = reference_explore(factories, [], max_ops)
        return (res.states, res.transitions), (ref["states"], ref["transitions"])

    def test_histories_that_meet_share_one_position(self):
        sb = _UndoSandbox({0: self.watcher, 1: self.bumper}, max_ops=20)
        sb.step(1)          # X = 1
        sb.step(0)          # watcher read 1
        met = sb._position[0]
        for pid in (0, 1, 1, 0):  # read 1 again; X = 2, X = 1; read 1
            sb.step(pid)
        assert sb._position[0] is met
        assert Sandbox.fingerprint(sb)[1][0] == (0, False, 3, (1, 1, 1))
        # From the shared position, by either history, step; undo is exact.
        for history in (3, 1):
            while sb.op_count(0) > history:
                sb.undo()
            assert sb._position[0] is met and sb.op_count(0) == history
            before = TestUndo.observed(sb)
            sb.step(0)
            assert sb._position[0] is met and sb.op_count(0) == history + 1
            sb.undo()
            assert TestUndo.observed(sb) == before
        assert sb.labels_seen == [(0, "note", "start")]

    def test_labels_belong_to_the_edge_not_the_position(self):
        def prog(pid):
            while True:
                seen = yield ops.read(X)
                if seen:
                    yield ops.label("note", seen)

        def other(pid):
            yield ops.write(X, 3)
            yield ops.write(X, 0)

        sb = _UndoSandbox({0: prog, 1: other}, max_ops=20)
        for pid in (0, 1, 0):  # read 0, X = 3, read 3 (+ label)
            sb.step(pid)
        loop = sb._position[0]
        assert sb.labels_seen == [(0, "note", 3)]
        sb.step(1)
        sb.step(0)  # read 0: same frame state as before but for ``seen``
        sb.step(0)
        assert sb.labels_seen == [(0, "note", 3)]
        for _ in range(3):
            sb.undo()
        sb.undo()
        assert sb.labels_seen == []
        sb.step(0)  # the recorded edge emits its label again
        assert sb._position[0] is loop and sb.labels_seen == [(0, "note", 3)]

    def test_rebuild_resumes_from_a_position_first_recorded_on_another_path(self):
        factories = {0: self.watcher, 1: self.bumper}
        sb = _UndoSandbox(factories, max_ops=20)
        for pid in (1, 0, 0, 1):  # X = 1; read 1, read 1; X = 2
            sb.step(pid)
        met = sb._position[0]
        assert met.parent is not met and met.parent.parent is None
        sb.step(0)            # read 2: the live generator moves on
        sb.undo()
        ahead = sb._programs[0]
        sb.memory.poke(X, 9)  # a value never sent from ``met``
        sb.step(0)            # needs a generator standing at ``met``
        assert sb._programs[0] is not ahead
        assert sb.done(0) and sb.result(0) == 9
        plain = Sandbox(factories, max_ops=20)
        for pid in (1, 0, 0, 1):
            plain.step(pid)
        plain.memory.poke(X, 9)
        plain.step(0)
        assert TestUndo.reference(sb) == TestUndo.reference(plain)

    def test_a_for_loops_iterator_is_part_of_the_frame_state(self):
        def prog(pid):
            for v in (5, 5, 7):
                yield ops.write(X, v)

        sb = _UndoSandbox({0: prog}, max_ops=20)
        first = sb._position[0]
        sb.step(0)
        # Same code, same f_lasti, same ``v == 5`` — one turn further on.
        assert sb._position[0] is not first
        assert repr(sb.pending_op(0)) == repr(first.op)
        sb.step(0)
        sb.step(0)
        assert sb.done(0) and sb.memory.peek(X) == 7

    def test_a_value_held_only_on_the_evaluation_stack_is_part_of_it(self):
        def prog(pid):
            total = (yield ops.read(X)) + (yield ops.read(Y))
            yield ops.write(X, total)

        def other(pid):
            yield ops.write(X, 4)

        sb = _UndoSandbox({0: prog, 1: other}, max_ops=20)
        sb.step(0)  # read X = 0, now waiting on Y with 0 on the stack
        zero = sb._position[0]
        sb.undo()
        sb.step(1)
        sb.step(0)  # read X = 4
        assert sb._position[0] is not zero
        sb.step(0)
        assert sb.pending_op(0).value == 4

    def test_what_cannot_be_keyed_is_never_merged(self):
        def held_generator(pid):
            def forever():
                while True:
                    yield

            ticks = forever()  # a live generator in a local
            while True:
                next(ticks)
                yield ops.read(X)

        class Opaque:
            """An iterator that says nothing about where it stands."""

            def __iter__(self):
                return self

            def __next__(self):
                return 0

        def held_iterator(pid):
            for _ in Opaque():
                yield ops.read(X)

        def mergeable(pid):
            while True:
                yield ops.read(X)

        for program in (held_generator, held_iterator):
            sb = _UndoSandbox({0: program}, max_ops=20)
            seen = {id(sb._position[0])}
            for _ in range(5):
                sb.step(0)
                seen.add(id(sb._position[0]))
            assert len(seen) == 6
            found, reference = self.search_sizes({0: program, 1: self.bumper}, 6)
            assert found == reference
        found, reference = self.search_sizes({0: mergeable, 1: self.bumper}, 6)
        assert found < reference

    def test_the_first_decision_is_part_of_the_frame_state(self):
        def prog(pid):
            first = yield ops.read(X)
            yield ops.label(ops.DECIDED, first)
            del first
            while True:
                yield ops.read(Y)

        def other(pid):
            yield ops.write(X, 1)

        sb = _UndoSandbox({0: prog, 1: other}, max_ops=20)
        sb.step(0)
        decided_zero = sb._position[0]
        assert sb.decisions == {0: 0}
        sb.undo()
        sb.step(1)
        sb.step(0)
        assert sb.decisions == {0: 1}
        # Equal frames (``first`` is unbound in both), different observers.
        assert sb._position[0] is not decided_zero
        sb.step(0)
        turning = sb._position[0]
        sb.step(0)
        assert sb._position[0] is turning and sb.decisions == {0: 1}

    def test_a_state_reached_parked_does_not_prune_it_reached_with_budget(self):
        sb = _UndoSandbox({0: self.watcher, 1: self.bumper}, max_ops=2)
        sb.step(0)
        one_read = sb._position[0]
        sb.step(0)  # same frame state as after one read, but out of budget
        assert sb._position[0] is one_read
        parked = sb.fingerprint()
        assert sb.parked == 1 and sb.suspended() == [0] and sb.enabled() == [1]
        sb.undo()
        assert sb.parked == 0 and sb.enabled() == [0, 1]
        assert sb.fingerprint() != parked
        sb.step(0)
        assert sb.parked == 1 and sb.fingerprint() == parked
