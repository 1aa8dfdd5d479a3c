"""Tests for the model checker: exhaustive safety checks of the paper's
algorithms on small configurations (experiments E6 and E13 in miniature)."""

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
from repro.verify.sandbox import Sandbox

X = Register("mx", 0)


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
        # The first path alone runs to depth 2 * max_ops.
        res = explore({0: spinner, 1: spinner}, [], max_ops=1000, max_states=2500)
        assert not res.complete
        assert res.max_depth == 2000

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

    @pytest.mark.slow
    def test_algorithm3_exclusion_exhaustive_n2(self):
        """Algorithm 3's stabilization, exhaustively: 188 898 states, no
        process parked at the bound (about 2 s; CI runs it with ``-m slow``)."""
        lock = default_time_resilient_mutex(2, delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=40)
        assert res.ok and res.complete
        # Pinned: a fingerprint that merged too much would still be "ok".
        assert (res.states, res.transitions) == (188_898, 308_224)

    @pytest.mark.slow
    def test_algorithm3_exclusion_bounded_n3(self):
        """Three processes, every interleaving of their first 12 steps
        (not yet one full session each; about 6 s)."""
        lock = default_time_resilient_mutex(3, delta=1.0)
        res = explore(lock_factories(lock, 3), [MutualExclusionProperty()],
                      max_ops=12)
        assert res.ok and res.complete
        assert (res.states, res.transitions) == (433_639, 1_089_523)

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


def reference_explore(factories, properties, max_ops):
    """The explorer at its simplest: rebuild every node by replay, and
    never stop at a violation."""
    seen = set()
    found = {"states": 0, "transitions": 0, "max_depth": 0,
             "terminal_states": 0, "violations": []}

    def visit(schedule):
        sandbox = replay_schedule(factories, schedule, max_ops)
        fingerprint = sandbox.fingerprint()
        if fingerprint in seen:
            return
        seen.add(fingerprint)
        found["states"] += 1
        found["max_depth"] = max(found["max_depth"], len(schedule))
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
    """Step/undo over memoized positions, and the integer digest that
    recognises a state, must be invisible in the result."""

    @pytest.mark.parametrize(
        "case",
        [fischer_case, algorithm3_case, consensus_case, rmw_case]
        + [pytest.param(partial(target_case, name), id=name)
           for name in sorted(SIM_TARGETS)])
    def test_same_search_as_replaying_every_node(self, case):
        factories, properties, max_ops, violates = case()
        # (digest, reference tuple) of every state the search counted.
        keys = []
        record = InvariantProperty(
            lambda sb: keys.append((sb.fingerprint(), Sandbox.fingerprint(sb)))
            or True,
            name="record")
        res = explore(factories, properties + [record], max_ops=max_ops,
                      stop_at_first_violation=False)
        ref = reference_explore(factories, properties, max_ops)
        # A digest collision merging two states is pruned before any
        # property runs: only the count against the tuple-keyed reference
        # catches it.  The recorded keys catch the opposite, one state
        # counted twice under two digests.
        assert (res.states, res.transitions, res.max_depth,
                res.terminal_states) == (
            ref["states"], ref["transitions"], ref["max_depth"],
            ref["terminal_states"])
        assert len(keys) == res.states
        assert (len({digest for digest, _ in keys})
                == len({reference for _, reference in keys})
                == res.states)
        assert res.violations == ref["violations"]
        assert (len(res.violations) > 1) == violates
        by_name = {prop.name: prop for prop in properties}
        for violation in res.violations:
            sandbox = replay_schedule(factories, violation.schedule, max_ops)
            assert by_name[violation.property_name].check(sandbox) == violation.message

    @pytest.mark.parametrize("max_ops, expected", [
        (14, (2_122, 3_650, 28, 58)),
        (22, (19_998, 32_174, 44, 755)),
    ])
    def test_algorithm3_counts_pinned(self, max_ops, expected):
        lock = default_time_resilient_mutex(2, delta=1.0)
        res = explore(lock_factories(lock, 2), [MutualExclusionProperty()],
                      max_ops=max_ops, stop_at_first_violation=False)
        assert res.ok and res.complete
        assert (res.states, res.transitions, res.max_depth,
                res.terminal_states) == expected
