"""Unit tests for histories and the linearizability checker."""

import math
import random
from itertools import combinations, permutations

import pytest

from repro.spec.histories import History, Operation
from repro.spec.linearizability import (
    ConsensusModel,
    CounterModel,
    QueueModel,
    RegisterModel,
    StackModel,
    TestAndSetModel,
    check_linearizability,
)


def op(pid, name, args, result, invoked, responded):
    return Operation(pid, name, tuple(args), result, invoked, responded)


def hist(*operations):
    h = History()
    h.operations.extend(operations)
    return h


class TestHistory:
    def test_response_before_invocation_rejected(self):
        with pytest.raises(ValueError):
            op(0, "read", (), 0, 5.0, 4.0)

    def test_precedes(self):
        a = op(0, "w", (1,), None, 0, 1)
        b = op(1, "r", (), 1, 2, 3)
        assert a.precedes(b)
        assert not b.precedes(a)

    def test_is_sequential(self):
        assert hist(op(0, "a", (), 0, 0, 1), op(1, "b", (), 0, 2, 3)).is_sequential()
        assert not hist(op(0, "a", (), 0, 0, 2), op(1, "b", (), 0, 1, 3)).is_sequential()

    def test_per_pid_well_formed(self):
        good = hist(op(0, "a", (), 0, 0, 1), op(0, "b", (), 0, 2, 3))
        assert good.per_pid_well_formed()
        bad = hist(op(0, "a", (), 0, 0, 2), op(0, "b", (), 0, 1, 3))
        assert not bad.per_pid_well_formed()


class TestRegister:
    def test_sequential_read_write(self):
        h = hist(
            op(0, "write", (5,), None, 0, 1),
            op(1, "read", (), 5, 2, 3),
        )
        assert check_linearizability(h, RegisterModel()).ok

    def test_stale_read_after_write_not_linearizable(self):
        h = hist(
            op(0, "write", (5,), None, 0, 1),
            op(1, "read", (), 0, 2, 3),  # reads initial AFTER the write finished
        )
        assert not check_linearizability(h, RegisterModel()).ok

    def test_concurrent_read_may_see_either(self):
        h = hist(
            op(0, "write", (5,), None, 0, 4),
            op(1, "read", (), 0, 1, 2),  # overlaps the write: 0 is fine
        )
        assert check_linearizability(h, RegisterModel()).ok


class TestQueue:
    def test_fifo_respected(self):
        h = hist(
            op(0, "enqueue", (1,), None, 0, 1),
            op(0, "enqueue", (2,), None, 2, 3),
            op(1, "dequeue", (), 1, 4, 5),
            op(1, "dequeue", (), 2, 6, 7),
        )
        assert check_linearizability(h, QueueModel()).ok

    def test_lifo_rejected_for_queue(self):
        h = hist(
            op(0, "enqueue", (1,), None, 0, 1),
            op(0, "enqueue", (2,), None, 2, 3),
            op(1, "dequeue", (), 2, 4, 5),  # should have been 1
            op(1, "dequeue", (), 1, 6, 7),
        )
        assert not check_linearizability(h, QueueModel()).ok

    def test_concurrent_enqueues_any_order(self):
        h = hist(
            op(0, "enqueue", (1,), None, 0, 3),
            op(1, "enqueue", (2,), None, 0, 3),
            op(2, "dequeue", (), 2, 4, 5),
            op(2, "dequeue", (), 1, 6, 7),
        )
        assert check_linearizability(h, QueueModel()).ok

    def test_empty_dequeue(self):
        h = hist(op(0, "dequeue", (), None, 0, 1))
        assert check_linearizability(h, QueueModel()).ok


class TestStack:
    def test_lifo_respected(self):
        h = hist(
            op(0, "push", (1,), None, 0, 1),
            op(0, "push", (2,), None, 2, 3),
            op(1, "pop", (), 2, 4, 5),
            op(1, "pop", (), 1, 6, 7),
        )
        assert check_linearizability(h, StackModel()).ok

    def test_fifo_rejected_for_stack(self):
        h = hist(
            op(0, "push", (1,), None, 0, 1),
            op(0, "push", (2,), None, 2, 3),
            op(1, "pop", (), 1, 4, 5),
            op(1, "pop", (), 2, 6, 7),
        )
        assert not check_linearizability(h, StackModel()).ok


class TestTas:
    def test_single_winner_ok(self):
        h = hist(
            op(0, "test_and_set", (), 0, 0, 3),
            op(1, "test_and_set", (), 1, 1, 4),
        )
        assert check_linearizability(h, TestAndSetModel()).ok

    def test_two_winners_rejected(self):
        h = hist(
            op(0, "test_and_set", (), 0, 0, 1),
            op(1, "test_and_set", (), 0, 2, 3),
        )
        assert not check_linearizability(h, TestAndSetModel()).ok

    def test_loser_before_winner_rejected(self):
        # pid0 got 1 (lost) strictly before pid1 even invoked: impossible.
        h = hist(
            op(0, "test_and_set", (), 1, 0, 1),
            op(1, "test_and_set", (), 0, 2, 3),
        )
        assert not check_linearizability(h, TestAndSetModel()).ok


class TestConsensusModel:
    def test_first_propose_wins(self):
        h = hist(
            op(0, "propose", (5,), 5, 0, 1),
            op(1, "propose", (9,), 5, 2, 3),
        )
        assert check_linearizability(h, ConsensusModel()).ok

    def test_conflicting_decisions_rejected(self):
        h = hist(
            op(0, "propose", (5,), 5, 0, 1),
            op(1, "propose", (9,), 9, 2, 3),
        )
        assert not check_linearizability(h, ConsensusModel()).ok


class TestCounter:
    def test_increments_unique(self):
        h = hist(
            op(0, "increment", (), 0, 0, 3),
            op(1, "increment", (), 1, 0, 3),
            op(0, "read", (), 2, 4, 5),
        )
        assert check_linearizability(h, CounterModel()).ok

    def test_duplicate_increment_results_rejected(self):
        h = hist(
            op(0, "increment", (), 0, 0, 1),
            op(1, "increment", (), 0, 2, 3),
        )
        assert not check_linearizability(h, CounterModel()).ok


class TestPending:
    def test_pending_op_may_have_taken_effect(self):
        # pid0's enqueue never responded (crash), but pid1 dequeues its value.
        pending = [op(0, "enqueue", (7,), None, 0, 10)]
        h = hist(op(1, "dequeue", (), 7, 1, 2))
        assert check_linearizability(h, QueueModel(), pending=pending).ok

    def test_pending_op_may_be_dropped(self):
        pending = [op(0, "enqueue", (7,), None, 0, 10)]
        h = hist(op(1, "dequeue", (), None, 1, 2))  # empty queue observed
        assert check_linearizability(h, QueueModel(), pending=pending).ok

    def test_result_from_nowhere_still_rejected(self):
        pending = [op(0, "enqueue", (7,), None, 5, 10)]
        h = hist(op(1, "dequeue", (), 3, 1, 2))  # 3 was never enqueued
        assert not check_linearizability(h, QueueModel(), pending=pending).ok


class TestWitness:
    def test_witness_is_legal_order(self):
        h = hist(
            op(0, "enqueue", (1,), None, 0, 1),
            op(1, "dequeue", (), 1, 2, 3),
        )
        res = check_linearizability(h, QueueModel())
        assert res.ok
        assert [o.name for o in res.witness] == ["enqueue", "dequeue"]

    def test_malformed_history_rejected(self):
        h = hist(
            op(0, "enqueue", (1,), None, 0, 5),
            op(0, "dequeue", (), 1, 1, 2),  # same pid, overlapping
        )
        with pytest.raises(ValueError):
            check_linearizability(h, QueueModel())


# ---- differential against a brute-force reference ---------------------------

MODEL_OPS = {
    RegisterModel: (("write", lambda rng: (rng.randint(1, 3),)), ("read", lambda rng: ())),
    QueueModel: (("enqueue", lambda rng: (rng.randint(1, 3),)), ("dequeue", lambda rng: ())),
    StackModel: (("push", lambda rng: (rng.randint(1, 3),)), ("pop", lambda rng: ())),
    CounterModel: (("increment", lambda rng: ()), ("read", lambda rng: ())),
}
WRONG_RESULTS = (None, 0, 1, 2, 3)


def reference_linearizable(history, model, pending):
    """Try every order respecting real time, each pending op taken or dropped."""
    complete = list(history.operations)
    for size in range(len(pending) + 1):
        for taken in combinations(pending, size):
            for order in permutations(complete + list(taken)):
                if any(
                    later.responded < earlier.invoked
                    for i, earlier in enumerate(order)
                    for later in order[i + 1:]
                ):
                    continue
                state, legal = model.initial(), True
                for o in order:
                    state, result = model.apply(state, o.name, o.args)
                    if any(o is c for c in complete) and result != o.result:
                        legal = False
                        break
                if legal:
                    return True
    return False


def assert_legal_witness(history, model, witness, pending=()):
    """The witness holds every complete op once, respects real time and
    replays to the recorded results; any pending ops in it are optional."""
    complete = list(history.operations)
    assert sorted(map(id, (o for o in witness if any(o is c for c in complete)))) == sorted(
        map(id, complete)
    )
    assert all(any(o is c for c in complete + list(pending)) for o in witness)
    for i, earlier in enumerate(witness):
        for later in witness[i + 1:]:
            assert not later.responded < earlier.invoked
    state = model.initial()
    for o in witness:
        state, result = model.apply(state, o.name, o.args)
        if any(o is c for c in complete):
            assert result == o.result


def random_history(rng, model_cls, with_pending):
    """2-3 processes, 1-2 ops each, results from a random linearization
    (pending ops take effect or not), then sometimes one corrupted result."""
    model = model_cls()
    names = MODEL_OPS[model_cls]
    drafts = []  # [pid, name, args, invoked, responded, point, pending]
    for pid in range(rng.randint(2, 3)):
        t = rng.random() * 2
        count = rng.randint(1, 2)
        for index in range(count):
            invoked = t + rng.random() * 2
            responded = invoked + rng.random() * 3
            name, make_args = rng.choice(names)
            pending = with_pending and index == count - 1 and rng.random() < 0.5
            point = rng.uniform(invoked, responded)
            drafts.append([pid, name, make_args(rng), invoked, responded, point, pending])
            t = responded
    results = {}
    state = model.initial()
    for i in sorted(range(len(drafts)), key=lambda i: drafts[i][5]):
        pid, name, args, _, _, _, pending = drafts[i]
        if pending and rng.random() < 0.5:
            continue  # the crashed op never took effect
        state, results[i] = model.apply(state, name, args)
    if rng.random() < 0.3:
        results[rng.randrange(len(drafts))] = rng.choice(WRONG_RESULTS)
    h, pending_ops = History(), []
    for i, (pid, name, args, invoked, responded, _, pending) in enumerate(drafts):
        if pending:
            pending_ops.append(Operation(pid, name, args, None, invoked, math.inf))
        else:
            h.add(pid, name, args, results.get(i), invoked, responded)
    return model, h, pending_ops


class TestDifferential:
    @pytest.mark.parametrize("with_pending", [False, True], ids=["complete", "pending"])
    @pytest.mark.parametrize(
        "model_cls", list(MODEL_OPS), ids=lambda cls: cls.__name__
    )
    def test_agrees_with_brute_force(self, model_cls, with_pending):
        rng = random.Random(f"{model_cls.__name__}:{with_pending}")
        verdicts = set()
        for _ in range(120):
            model, h, pending = random_history(rng, model_cls, with_pending)
            expected = reference_linearizable(h, model, pending)
            res = check_linearizability(h, model, pending=pending)
            assert res.ok == expected, (h.operations, pending)
            if res.ok:
                assert_legal_witness(h, model, res.witness, pending)
            verdicts.add(res.ok)
        assert verdicts == {True, False}  # both outcomes exercised


# ---- long histories ----------------------------------------------------------


def long_register_history(rounds, stale_last_read=False):
    """Four processes, each writing a fresh value then reading, per round.

    In round r the writes overlap in [10r, 10r+4] and take effect in pid
    order, so every read in [10r+5, 10r+6] returns pid 3's value.  With
    ``stale_last_read`` the final read returns round 0's value instead.
    """
    h = History()
    for r in range(rounds):
        base = 10.0 * r
        for pid in range(4):
            h.add(pid, "write", (pid * 1_000_000 + r + 1,), None,
                  base + 0.1 * pid, base + 4.0 - 0.1 * pid)
        for pid in range(4):
            h.add(pid, "read", (), 3_000_000 + r + 1, base + 5.0, base + 6.0)
    if stale_last_read:
        last = h.operations.pop()
        h.add(last.pid, "read", (), 3_000_001, last.invoked, last.responded)
    return h


class TestLongHistories:
    def test_long_history_gets_a_verdict_and_legal_witness(self):
        h = long_register_history(200)  # 1 600 ops: past the recursion limit
        assert len(h) >= 1500
        res = check_linearizability(h, RegisterModel())
        assert res.ok
        assert_legal_witness(h, RegisterModel(), res.witness)

    def test_long_non_linearizable_history_rejected(self):
        h = long_register_history(200, stale_last_read=True)
        assert not check_linearizability(h, RegisterModel()).ok
