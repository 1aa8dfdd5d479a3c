"""Linearizability checking (Wing & Gong / Lowe-style, with memoization).

Used to validate the wait-free objects built from time-resilient consensus
(test-and-set, the universal construction's queues/stacks/counters): every
concurrent history an execution produces must be explainable by some
sequential execution of the object's specification that respects real-time
order.

The checker is exponential in the worst case but memoizes on
(remaining-operation set, abstract state), which makes the histories our
tests produce cheap to verify.  Operations are numbered in invocation
order and the remaining set is an ``int`` bitmask, so a memo key holds an
n-bit integer instead of a ``frozenset`` of n operation indices.  A second mask holds the same set in response order; its
lowest set bit is the earliest outstanding response, and the operations
that may go next are the remaining ones invoked no later than it — a
prefix of the invocation order, i.e. one ``&`` with a low-bits mask.  The
depth-first search walks an explicit stack of frames (remaining mask,
response mask, state, untried candidates) sharing one prefix list, so a
history's length is bounded by memory, not by Python's recursion limit:
an 800-operation ABD register history checks in a few hundredths of a
second.

Crashed processes may leave an invocation without a response; such
*pending* operations may have taken effect or not.  Pass them via
``pending`` and the checker will consider both possibilities, computing
their (unconstrained) results from the model.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Hashable, List, Optional, Sequence, Set, Tuple

from .histories import History, Operation

__all__ = [
    "SequentialModel",
    "ConsensusModel",
    "TestAndSetModel",
    "QueueModel",
    "StackModel",
    "CounterModel",
    "RegisterModel",
    "LinearizabilityResult",
    "check_linearizability",
]


class SequentialModel(ABC):
    """A sequential object specification.

    ``apply`` must be pure: it returns the new state and the operation's
    result without mutating the input state.  States must be hashable (or
    override :meth:`freeze`).
    """

    @abstractmethod
    def initial(self) -> Any:
        """The object's initial abstract state."""

    @abstractmethod
    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        """Apply one operation: returns ``(new_state, result)``."""

    def freeze(self, state: Any) -> Hashable:
        """A hashable digest of a state (identity by default)."""
        return state


class ConsensusModel(SequentialModel):
    """One-shot consensus: the first ``propose`` fixes the decision."""

    def initial(self) -> Any:
        return None  # no decision yet

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name != "propose":
            raise ValueError(f"consensus supports only 'propose', got {name!r}")
        (value,) = args
        decided = value if state is None else state
        return decided, decided


class TestAndSetModel(SequentialModel):
    """One-shot test-and-set: exactly one caller wins (gets 0)."""

    def initial(self) -> Any:
        return 0

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name != "test_and_set":
            raise ValueError(f"TAS supports only 'test_and_set', got {name!r}")
        return 1, state


class QueueModel(SequentialModel):
    """FIFO queue with ``enqueue(v)`` and ``dequeue() -> v | None``."""

    def initial(self) -> Any:
        return ()

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name == "enqueue":
            (value,) = args
            return state + (value,), None
        if name == "dequeue":
            if not state:
                return state, None
            return state[1:], state[0]
        raise ValueError(f"queue does not support {name!r}")


class StackModel(SequentialModel):
    """LIFO stack with ``push(v)`` and ``pop() -> v | None``."""

    def initial(self) -> Any:
        return ()

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name == "push":
            (value,) = args
            return state + (value,), None
        if name == "pop":
            if not state:
                return state, None
            return state[:-1], state[-1]
        raise ValueError(f"stack does not support {name!r}")


class CounterModel(SequentialModel):
    """Counter with ``increment() -> previous`` and ``read() -> value``."""

    def initial(self) -> Any:
        return 0

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name == "increment":
            return state + 1, state
        if name == "read":
            return state, state
        raise ValueError(f"counter does not support {name!r}")


class RegisterModel(SequentialModel):
    """Read/write register with ``write(v)`` and ``read() -> v``."""

    def __init__(self, initial: Any = 0) -> None:
        self._initial = initial

    def initial(self) -> Any:
        return self._initial

    def apply(self, state: Any, name: str, args: Tuple[Any, ...]) -> Tuple[Any, Any]:
        if name == "write":
            (value,) = args
            return value, None
        if name == "read":
            return state, state
        raise ValueError(f"register does not support {name!r}")


@dataclass
class LinearizabilityResult:
    """Outcome of a linearizability check."""

    ok: bool
    witness: Optional[List[Operation]] = None  # a legal sequential order
    explored: int = 0  # search nodes visited

    def __repr__(self) -> str:
        status = "linearizable" if self.ok else "NOT linearizable"
        return f"LinearizabilityResult({status}, explored={self.explored})"


def check_linearizability(
    history: History,
    model: SequentialModel,
    pending: Sequence[Operation] = (),
    max_nodes: int = 2_000_000,
) -> LinearizabilityResult:
    """Decide whether ``history`` is linearizable w.r.t. ``model``.

    ``pending`` operations (no response observed — crashed callers) may be
    linearized at any point after their invocation, with any result, or
    not at all.

    Raises :class:`RuntimeError` when the search exceeds ``max_nodes``
    (never observed on the test workloads; the bound guards against
    pathological inputs).
    """
    if not history.per_pid_well_formed():
        raise ValueError("history is not per-process sequential")

    # Bit i is the i-th operation in invocation order.  Pending operations
    # respond at +inf: they never force an order.
    inf = float("inf")
    tagged = [(op, True) for op in history.operations]
    tagged += [(op, False) for op in pending]
    tagged.sort(key=lambda entry: entry[0].invoked)
    ops = [op for op, _ in tagged]
    invoked = [op.invoked for op in ops]
    calls = [(op.name, op.args, op.result, complete) for op, complete in tagged]
    complete_mask = sum(1 << i for i, (_, complete) in enumerate(tagged) if complete)
    responded = [op.responded if complete else inf for op, complete in tagged]
    # The same set again, one bit per operation in response order: the
    # lowest set bit is the earliest response among the remaining ops.
    by_response = sorted(range(len(ops)), key=responded.__getitem__)
    response_bit = [0] * len(ops)
    for rank, i in enumerate(by_response):
        response_bit[i] = 1 << rank
    response_times = [responded[i] for i in by_response]

    freeze = model.freeze
    apply = model.apply
    seen: Set[Tuple[int, Hashable]] = set()
    # One frame per linearized prefix: [remaining, response mask, state,
    # untried candidates]; ``order`` is the prefix, one entry per frame
    # below the top.
    stack: List[List[Any]] = []
    order: List[int] = []
    explored = 0
    remaining = responses = (1 << len(ops)) - 1
    state = model.initial()
    while True:
        explored += 1
        if explored > max_nodes:
            raise RuntimeError(
                f"linearizability search exceeded {max_nodes} nodes"
            )
        if not remaining & complete_mask:
            # Every complete op linearized; pending ops may drop.
            witness = [ops[i] for i in order]
            return LinearizabilityResult(ok=True, witness=witness, explored=explored)
        key = (remaining, freeze(state))
        if key in seen:
            order.pop()
        else:
            seen.add(key)
            # i is a candidate iff no remaining op responded before i was
            # invoked: a prefix of the invocation order.
            earliest = response_times[(responses & -responses).bit_length() - 1]
            cut = (1 << bisect_right(invoked, earliest)) - 1
            stack.append([remaining, responses, state, remaining & cut])
        # Descend into the next legal child of the deepest open frame.
        while stack:
            frame = stack[-1]
            untried = frame[3]
            while untried:
                low = untried & -untried
                untried ^= low
                i = low.bit_length() - 1
                name, args, result, complete = calls[i]
                new_state, got = apply(frame[2], name, args)
                if not complete or got == result:
                    break
            else:
                stack.pop()
                if order:
                    order.pop()
                continue
            frame[3] = untried
            order.append(i)
            remaining = frame[0] ^ low
            responses = frame[1] ^ response_bit[i]
            state = new_state
            break
        else:
            return LinearizabilityResult(ok=False, explored=explored)
