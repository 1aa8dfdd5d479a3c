"""Tests for the model checker: exhaustive safety checks of the paper's
algorithms on small configurations (experiments E6 and E13 in miniature)."""

import sys
from functools import partial

import pytest

from repro.algorithms import FischerLock, LamportFastLock, PetersonTwoProcess, mutex_session
from repro.chaos import SIM_TARGETS
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.mutex import default_time_resilient_mutex
from repro.sim import ops
from repro.sim.registers import Register
from repro.verify import (
    AgreementProperty,
    InvariantProperty,
    MutualExclusionProperty,
    ValidityProperty,
    Violation,
    explore,
    replay_schedule,
)
from repro.verify.sandbox import Sandbox, _UndoSandbox

X = Register("mx", 0)
Y = Register("my", 0)


def lock_factories(lock, n, cs_duration=1.0):
    return {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=cs_duration))
        for pid in range(n)
    }


def spinner(pid):
    while True:
        v = yield ops.read(X)
        yield ops.write(X, (v + 1) % 100)


class TestExplorerMechanics:
    def test_counts_states(self):
        def prog(pid):
            yield ops.write(X, pid)

        res = explore({0: prog, 1: prog}, [], max_ops=5)
        assert res.ok and res.complete
        # states: initial, after each single write, after both orders
        # (memoized: final states with same memory+histories merge).
        assert res.states >= 3
        assert res.terminal_states >= 1

    def test_max_states_marks_incomplete(self):
        res = explore({0: spinner, 1: spinner}, [], max_ops=30, max_states=50)
        assert not res.complete
        assert res.states == 50

    def test_deep_schedule_needs_no_recursion(self):
        def counter(pid):
            # Unlike ``spinner`` this one never comes back to a frame
            # state: the first path alone runs to depth 2 * max_ops.
            turns = 0
            while True:
                yield ops.read(X)
                turns += 1

        max_ops = sys.getrecursionlimit()
        res = explore({0: counter, 1: counter}, [], max_ops=max_ops,
                      max_states=3 * max_ops)
        assert not res.complete
        assert res.max_depth == 2 * max_ops > sys.getrecursionlimit()

    def test_a_spin_loop_closes_without_the_bound(self):
        def waiter(pid):
            while True:
                seen = yield ops.read(X)
                if seen == 1:
                    break

        def setter(pid):
            yield ops.write(X, 1)

        sizes = {
            (res.states, res.transitions, res.terminal_states, res.parked)
            for res in (explore({0: waiter, 1: setter}, [], max_ops=max_ops)
                        for max_ops in (3, 30, 3000))
        }
        # Waiting on 0 (first turn, later turns), on 1 (likewise), through.
        assert sizes == {(5, 6, 1, 0)}

    def test_parked_counts_the_states_the_bound_cut_short(self):
        res = explore({0: spinner, 1: spinner}, [], max_ops=4)
        assert res.complete and 0 < res.parked < res.states
        assert "parked=" in repr(res)

    def test_invariant_violation_found_with_schedule(self):
        def prog(pid):
            v = yield ops.read(X)
            yield ops.write(X, v + 1)

        # "x never reaches 2" is violated only by the sequential order.
        prop = InvariantProperty(
            lambda sb: sb.memory.peek(X) < 2, name="x<2", message="x reached 2"
        )
        res = explore({0: prog, 1: prog}, [prop], max_ops=5,
                      stop_at_first_violation=True)
        assert not res.ok
        schedule = res.violations[0].schedule
        sb = replay_schedule({0: prog, 1: prog}, schedule, max_ops=5)
        assert sb.memory.peek(X) == 2

    def test_on_terminal_hook(self):
        def prog(pid):
            yield ops.write(X, 1)

        res = explore(
            {0: prog},
            [],
            max_ops=5,
            on_terminal=lambda sb: None if sb.done(0) else "p0 stuck",
        )
        assert res.ok

    def test_stop_at_first_violation_false_collects_all(self):
        def prog(pid):
            yield ops.write(X, pid + 1)

        prop = InvariantProperty(
            lambda sb: sb.memory.peek(X) == 0, name="never", message="x written"
        )
        res = explore({0: prog, 1: prog}, [prop], max_ops=5,
                      stop_at_first_violation=False)
        assert len(res.violations) >= 2


class TestPaperSafetyTheorems:
    def test_fischer_violation_found(self):
        """E13: the checker finds Fischer's loss of exclusion (Thm ref §3.1)."""
        lock = FischerLock(delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=30)
        assert not res.ok
        assert res.violations[0].property_name == "mutual_exclusion"
        # The witness is short — the classic interleaving.
        assert len(res.violations[0].schedule) <= 12

    def test_lamport_fast_exclusion_exhaustive(self):
        lock = LamportFastLock(2)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=40)
        assert res.ok and res.complete

    def test_peterson_exclusion_exhaustive(self):
        lock = PetersonTwoProcess()
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=30)
        assert res.ok and res.complete

    def test_algorithm1_agreement_validity_exhaustive_n2(self):
        """E6: Theorems 2.2/2.3 machine-checked for n=2, conflicting inputs."""
        consensus = TimeResilientConsensus(delta=1.0, max_rounds=2)
        inputs = {0: 0, 1: 1}
        factories = {
            pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
            for pid in inputs
        }
        res = explore(
            factories,
            [AgreementProperty(), ValidityProperty(inputs)],
            max_ops=30,
        )
        assert res.ok and res.complete
        assert res.states > 100  # a real exploration, not a vacuous one

    def test_algorithm1_unanimous_decides_input(self):
        consensus = TimeResilientConsensus(delta=1.0, max_rounds=2)
        inputs = {0: 1, 1: 1}
        factories = {
            pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
            for pid in inputs
        }

        def all_decided_one(sandbox):
            for pid in (0, 1):
                if sandbox.done(pid) and sandbox.decisions.get(pid) != 1:
                    return f"pid {pid} decided {sandbox.decisions.get(pid)}"
            return None

        res = explore(
            factories,
            [AgreementProperty(), ValidityProperty(inputs)],
            max_ops=30,
            on_terminal=all_decided_one,
        )
        assert res.ok and res.complete

    def test_algorithm3_exclusion_exhaustive_n2(self):
        """Algorithm 3's exclusion on every execution of two processes:
        the state space closes at 2 153 states and nobody is ever parked."""
        lock = default_time_resilient_mutex(2, delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=1000)
        assert res.ok and res.complete and res.parked == 0
        assert (res.states, res.transitions) == (2_153, 2_586)

    @pytest.mark.slow
    def test_algorithm3_exclusion_exhaustive_n3(self):
        """Three processes, every execution of any length (about 3 s; CI
        runs it with ``-m slow``)."""
        lock = default_time_resilient_mutex(3, delta=1.0)
        res = explore(lock_factories(lock, 3), [MutualExclusionProperty()],
                      max_ops=1000)
        assert res.ok and res.complete and res.parked == 0
        # Pinned: a key that merged too much would still be "ok".
        assert (res.states, res.transitions) == (367_373, 522_314)

    @pytest.mark.slow
    def test_fischer_state_space_exhaustive_n5(self):
        """Fischer n=5 to the end (about 3 s): every overlap there is."""
        lock = FischerLock(delta=1.0)
        res = explore(lock_factories(lock, 5), [MutualExclusionProperty()],
                      max_ops=1000, stop_at_first_violation=False)
        assert res.violations and res.complete and res.parked == 0
        assert res.states == 180_493

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_fischer_state_space_closes(self, n):
        lock = FischerLock(delta=1.0)
        res = explore(lock_factories(lock, n), [MutualExclusionProperty()],
                      max_ops=1000, stop_at_first_violation=False)
        assert res.violations and res.complete and res.parked == 0

    def test_algorithm3_exclusion_bounded_n2(self):
        """A cheaper bounded variant of the exhaustive check above."""
        lock = default_time_resilient_mutex(2, delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=24)
        assert res.ok and res.complete

    def test_at_consensus_agreement_violation_found(self):
        """The non-resilient building block loses agreement under asynchrony."""
        from repro.algorithms import AtConsensus

        algo = AtConsensus(delta=1.0)
        inputs = {0: 0, 1: 1}
        factories = {pid: (lambda p: algo.propose(p, inputs[p])) for pid in inputs}
        res = explore(factories, [AgreementProperty()], max_ops=20)
        assert not res.ok
        assert res.violations[0].property_name == "agreement"


def visible(sandbox):
    """What a property or another process can tell about a state."""
    pids = sorted(sandbox._programs)
    return (
        sandbox.memory.fingerprint(),
        tuple(sorted(sandbox.in_cs)),
        tuple(sorted(sandbox.decisions.items())),
        tuple((sandbox.done(pid), repr(sandbox.result(pid)),
               repr(sandbox.pending_op(pid))) for pid in pids),
    )


def reference_explore(factories, properties, max_ops):
    """The explorer at its simplest: rebuild every node by replay, key it
    by its read histories, and never stop at a violation."""
    seen = set()
    found = {"states": 0, "transitions": 0, "max_depth": 0,
             "terminal_states": 0, "violations": [], "visible": set()}

    def visit(schedule):
        sandbox = replay_schedule(factories, schedule, max_ops)
        fingerprint = sandbox.fingerprint()
        if fingerprint in seen:
            return
        seen.add(fingerprint)
        found["states"] += 1
        found["max_depth"] = max(found["max_depth"], len(schedule))
        found["visible"].add(visible(sandbox))
        for prop in properties:
            message = prop.check(sandbox)
            if message is not None:
                found["violations"].append(
                    Violation(prop.name, message, tuple(schedule)))
        enabled = sandbox.enabled()
        found["terminal_states"] += not enabled
        for pid in enabled:
            found["transitions"] += 1
            visit(schedule + [pid])

    visit([])
    return found


def fischer_case():
    lock = FischerLock(delta=1.0)
    return lock_factories(lock, 2), [MutualExclusionProperty()], 14, True


def algorithm3_case():
    lock = default_time_resilient_mutex(2, delta=1.0)
    return lock_factories(lock, 2), [MutualExclusionProperty()], 14, False


def consensus_case():
    consensus = TimeResilientConsensus(delta=1.0, max_rounds=2)
    inputs = {0: 0, 1: 1}
    factories = {
        pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
        for pid in inputs
    }
    return factories, [AgreementProperty(), ValidityProperty(inputs)], 30, False


def rmw_case():
    def prog(pid):
        ticket = yield ops.fetch_and_add(X)
        if ticket == 0:
            yield ops.label(ops.CS_ENTER)
            yield ops.local_work(1.0)
            yield ops.label(ops.CS_EXIT)
        swapped = yield ops.compare_and_swap(X, 2, 0)
        if swapped:
            yield ops.label(ops.DECIDED, pid)
        return (yield ops.get_and_set(X, pid))

    full = InvariantProperty(
        lambda sb: sb.memory.peek(X) < 3, name="x<3", message="x reached 3")
    return {pid: prog for pid in range(3)}, [full, AgreementProperty()], 5, True


# The targets' own max_ops (40-300) are fuzz bounds; these keep an
# exhaustive run, and the replay-every-node reference, under 20 000 states.
TARGET_MAX_OPS = {
    "fischer_n3": 5,
    "alg3_n4": 3,
    "consensus_n4": 5,
    "dg_mutex_n3": 10,
    "golab_consensus_n3": 6,
}


def target_case(name):
    target = SIM_TARGETS[name]
    factories, properties, _registers = target.build()
    return factories, properties, TARGET_MAX_OPS[name], target.expect_violation


class TestAgainstReplayReference:
    """Frame states instead of read histories, step/undo instead of
    replay and a digest instead of a tuple may only make the search
    smaller: same verdicts, same violated properties, real witnesses."""

    @pytest.mark.parametrize(
        "case",
        [fischer_case, algorithm3_case, consensus_case, rmw_case]
        + [pytest.param(partial(target_case, name), id=name)
           for name in sorted(SIM_TARGETS)])
    def test_same_search_as_replaying_every_node(self, case):
        factories, properties, max_ops, violates = case()
        # (reference tuple, what it looks like) of every state the search
        # counted.
        keys = []
        record = InvariantProperty(
            lambda sb: keys.append((Sandbox.fingerprint(sb), visible(sb))) or True,
            name="record")
        res = explore(factories, properties + [record], max_ops=max_ops,
                      stop_at_first_violation=False)
        ref = reference_explore(factories, properties, max_ops)
        assert res.complete
        assert ({(v.property_name, v.message) for v in res.violations}
                == {(v.property_name, v.message) for v in ref["violations"]})
        assert bool(res.violations) == violates
        # Every read history has one frame state, so the frame-state
        # search can only be the smaller one ...
        assert 0 < res.states <= ref["states"]
        assert res.transitions <= ref["transitions"]
        assert res.max_depth <= ref["max_depth"]
        # ... and a read history counted twice (under two digests) would
        # be a key that is not a function of the program's past: the id of
        # something rebuilt, say.
        assert len(keys) == res.states
        assert len({reference for reference, _ in keys}) == res.states
        # Every state counted is one the reference reaches; and when the
        # bound stopped nobody the search is closed under every step, so
        # nothing the reference reaches may be missing from it — a key
        # that merged two frame states with different futures would lose
        # what only one of them leads to.
        views = {view for _, view in keys}
        assert views <= ref["visible"]
        if res.parked == 0:
            assert views == ref["visible"]
        by_name = {prop.name: prop for prop in properties}
        for violation in res.violations:
            sandbox = replay_schedule(factories, violation.schedule, max_ops)
            assert by_name[violation.property_name].check(sandbox) == violation.message
        again = explore(factories, properties, max_ops=max_ops,
                        stop_at_first_violation=False)
        assert (again.states, again.transitions, again.max_depth,
                again.terminal_states, again.parked, again.violations) == (
            res.states, res.transitions, res.max_depth,
            res.terminal_states, res.parked, res.violations)

    def test_consensus_n4_merges_through_the_wrapper(self):
        """``labeled_decision`` holds the generator it delegates to in a
        local; that one is keyed by its own frame, not given up on, so
        Algorithm 1 merges too (10 152 / 26 616 by read history; 25 288
        transitions without sleep sets)."""
        factories, properties, max_ops, _ = target_case("consensus_n4")
        res = explore(factories, properties, max_ops=max_ops,
                      stop_at_first_violation=False)
        assert (res.states, res.transitions) == (9_384, 14_032)

    # Where the bound bites, which budget a frame state is first reached
    # with depends on the path, so sleep sets moved the row at 22.
    @pytest.mark.parametrize("max_ops, expected", [
        (14, (968, 1_083, 28, 18, 220)),
        (22, (2_150, 2_556, 43, 9, 20)),
        (40, (2_153, 2_586, 45, 3, 0)),
        (1000, (2_153, 2_586, 45, 3, 0)),
    ])
    def test_algorithm3_counts_pinned(self, max_ops, expected):
        lock = default_time_resilient_mutex(2, delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=max_ops, stop_at_first_violation=False)
        assert res.ok and res.complete
        assert (res.states, res.transitions, res.max_depth,
                res.terminal_states, res.parked) == expected


def unreduced_explore(factories, properties, max_ops):
    """The frame-state search without sleep sets: every enabled pid from
    every state, on the same sandbox, with the same digest."""
    sandbox = _UndoSandbox(factories, max_ops=max_ops)
    seen = set()
    found = {"transitions": 0, "parked": 0, "violations": set(), "visible": set()}

    def visit():
        if sandbox.fingerprint() in seen:
            return
        seen.add(sandbox.fingerprint())
        found["visible"].add(visible(sandbox))
        found["parked"] += bool(sandbox.parked)
        for prop in properties:
            message = prop.check(sandbox)
            if message is not None:
                found["violations"].add((prop.name, message))
        for pid in sandbox.enabled():
            found["transitions"] += 1
            sandbox.step(pid)
            visit()
            sandbox.undo()

    visit()
    found["states"] = len(seen)
    return found


def once(make_op):
    """A program that takes the one step ``make_op(pid)`` and returns
    what it got back."""
    def program(pid):
        return (yield make_op(pid))
    return program


STEPS = {
    "read x": lambda pid: ops.read(X),
    "write x": lambda pid: ops.write(X, pid + 1),
    "write y": lambda pid: ops.write(Y, pid + 1),
    "rmw x": lambda pid: ops.fetch_and_add(X),
    "pause": lambda pid: ops.local_work(1.0),
}


class TestSleepSets:
    """A step that commutes with one already taken from an ancestor is
    not taken again, and no state is lost for it."""

    @pytest.mark.parametrize("first, second, commute", [
        ("read x", "read x", True),     # two reads of one register
        ("read x", "write x", False),   # a read and a write of one register
        ("write x", "write x", False),
        ("rmw x", "read x", False),     # an RMW counts as a write
        ("rmw x", "rmw x", False),
        ("write x", "write y", True),   # different registers
        ("pause", "read x", True),      # a pause point, with everything
        ("pause", "write x", True),
        ("pause", "rmw x", True),
        ("pause", "pause", True),
    ])
    def test_which_steps_commute(self, first, second, commute):
        factories = {0: once(STEPS[first]), 1: once(STEPS[second])}
        sb = _UndoSandbox(factories, max_ops=5)
        assert sb.commuting(0, sb.bit[1]) == (sb.bit[1] if commute else 0)
        assert sb.commuting(1, sb.bit[0]) == (sb.bit[0] if commute else 0)
        res = explore(factories, [], max_ops=5)
        ref = unreduced_explore(factories, [], 5)
        # Either order of two commuting steps ends in one state, and the
        # second order is not walked; two that conflict end in two.
        assert res.states == ref["states"] == (4 if commute else 5)
        assert ref["transitions"] == 4 and res.transitions == 4 - commute

    def test_independent_writers_reach_the_grid_along_a_spanning_tree(self):
        k = 4

        def writer(pid):
            own = Register(("own", pid), 0)
            for value in range(1, k + 1):
                yield ops.write(own, value)

        factories = {0: writer, 1: writer}
        res = explore(factories, [], max_ops=10)
        ref = unreduced_explore(factories, [], 10)
        assert res.states == ref["states"] == (k + 1) ** 2
        assert ref["transitions"] == 2 * k * (k + 1)  # every edge of the grid
        assert res.transitions == (k + 1) ** 2 - 1   # each state entered once

    @pytest.mark.parametrize("lock, n, reduced, unreduced", [
        (default_time_resilient_mutex(2, delta=1.0), 2, (2_153, 2_586), (2_153, 3_934)),
        (FischerLock(delta=1.0), 3, (765, 1_392), (765, 1_899)),
    ], ids=["algorithm3_n2", "fischer_n3"])
    def test_every_state_of_the_unreduced_search(self, lock, n, reduced, unreduced):
        factories, properties = lock_factories(lock, n), [MutualExclusionProperty()]
        views = []
        record = InvariantProperty(lambda sb: views.append(visible(sb)) or True,
                                   name="record")
        res = explore(factories, properties + [record], max_ops=1000,
                      stop_at_first_violation=False)
        ref = unreduced_explore(factories, properties, 1000)
        assert res.complete and res.parked == ref["parked"] == 0
        assert set(views) == ref["visible"] and len(views) == res.states
        assert ({(v.property_name, v.message) for v in res.violations}
                == ref["violations"])
        assert (res.states, res.transitions) == reduced
        assert (ref["states"], ref["transitions"]) == unreduced
