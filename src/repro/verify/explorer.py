"""Explicit-state exploration of all interleavings.

The paper's safety theorems quantify over every execution, including ones
where timing failures strike at the worst instants.  Under the sandbox's
asynchronous semantics (delays provide nothing), *every interleaving of
shared steps* is exactly that quantifier — so exhaustively exploring
interleavings of small configurations machine-checks Theorems 2.2/2.3 and
Algorithm 3's mutual exclusion, and machine-*finds* Fischer's violation.

Exploration is depth-first over schedules (sequences of pids), on one
sandbox for the whole search: a transition is one ``step``, backtracking
one ``undo``, both O(1).  A state is (memory, each program's *frame
state*, who is stopped by the bound) — what a generator holds now, not
how it got there, so a spin loop is a cycle and a finite state space
closes by itself (:mod:`repro.verify.sandbox` has the details, and the
programs that break it: those keeping mutable state outside their frames,
lint rule TMF003).  Three prunings bound the search:

* **state memoization** — a state already seen is not expanded again.
  The search recognises a state by the undo sandbox's incrementally
  maintained 128-bit digest, which merges two different states only by a
  collision of probability at most (pairs of states) · 2⁻¹²⁸ (the
  :mod:`~repro.verify.sandbox` docstring has the argument);
* **sleep sets** (Godefroid, *Partial-Order Methods for the Verification
  of Concurrent Systems*, LNCS 1032, 1996) — a step that commutes with
  one already taken from an ancestor is not taken again.  Two commuting
  steps reach the same state in either order, so once ``p`` has been
  tried from a state, the sibling that steps ``q`` first lets ``p``
  *sleep* while the steps after ``q`` commute with it: stepping ``p``
  there would only re-arrive where ``p`` then ``q`` already led.  Every
  node carries its sleep set, a bitmask over pids
  (:meth:`~repro.verify.sandbox._UndoSandbox.commuting` decides from the
  two pending ops alone).  With memoization a state remembers the set it
  was expanded with; a later arrival with fewer pids asleep expands the
  ones it wakes and leaves asleep only what sleeps on both paths.  A
  state expanded with nothing asleep is done for good and is kept in a
  plain set;
* a per-process operation bound (``max_ops``) — necessary because e.g.
  consensus under adversarial asynchrony legitimately runs forever (FLP).

Sleep sets drop transitions, never states: every reachable state is
still counted and checked, so every state-property verdict, every
``on_terminal`` check and — where the bound stopped nobody — the state
count are what the search without them gives, in about half the steps at
three processes.  They do not keep every *edge*: a search for cycles (a
liveness property) must take every transition, not this one's.

What a verdict means depends on whether the bound ever bit, which
:attr:`ExplorationResult.parked` counts.  ``complete and parked == 0``:
every reachable state was expanded, so the verdict covers every
execution of any length — a proof for that configuration, and the same
counts for every larger ``max_ops``.  With ``parked > 0`` every counted
state and every reported witness is real and within the bound, but a
frame state first reached with little budget left is not expanded again
when it is reached with more, so the search covers less than every
prefix up to the bound: raise ``max_ops`` until nothing parks, or read a
clean result as "no violation found", not as a proof.

:func:`explore` returns statistics plus every violation found, each with
the exact schedule that produced it (replayable with
:func:`replay_schedule` for debugging).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Optional, Sequence, Set, Tuple

from .properties import SafetyProperty
from .sandbox import ProgramFactory, Sandbox, _UndoSandbox

__all__ = ["Violation", "ExplorationResult", "explore", "replay_schedule"]


@dataclass(frozen=True)
class Violation:
    """A safety violation and the schedule that produced it."""

    property_name: str
    message: str
    schedule: Tuple[int, ...]

    def __repr__(self) -> str:
        return (
            f"Violation({self.property_name}: {self.message}; "
            f"schedule={list(self.schedule)})"
        )


@dataclass
class ExplorationResult:
    """Outcome of one exhaustive exploration."""

    states: int
    transitions: int
    max_depth: int
    violations: List[Violation] = field(default_factory=list)
    complete: bool = True  # False when state/violation limits stopped it
    terminal_states: int = 0  # states where no process could step
    parked: int = 0  # states where max_ops stopped some process (module docstring)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"ExplorationResult({status}, states={self.states}, "
            f"transitions={self.transitions}, max_depth={self.max_depth}, "
            f"complete={self.complete}, parked={self.parked})"
        )


def replay_schedule(
    factories: Dict[int, ProgramFactory], schedule: Sequence[int], max_ops: int
) -> Sandbox:
    """Re-execute a schedule (e.g. one attached to a violation)."""
    sandbox = Sandbox(factories, max_ops=max_ops)
    for pid in schedule:
        sandbox.step(pid)
    return sandbox


def explore(
    factories: Dict[int, ProgramFactory],
    properties: Sequence[SafetyProperty],
    max_ops: int = 60,
    max_states: int = 500_000,
    stop_at_first_violation: bool = True,
    on_terminal: Optional[Callable[[Sandbox], Optional[str]]] = None,
) -> ExplorationResult:
    """Exhaustively explore all interleavings of the given programs.

    Parameters
    ----------
    factories:
        pid -> factory producing a *fresh* program for that pid.
    properties:
        Safety properties checked at every reached state.
    max_ops:
        Per-process shared-step bound (processes park there; the result's
        ``parked`` says in how many states one did).
    max_states:
        Hard cap on distinct states; exceeding it marks the result
        incomplete rather than raising.
    stop_at_first_violation:
        Stop early (with ``complete=False``) once any violation is found.
    on_terminal:
        Optional extra check invoked at quiescent states (all processes
        done or parked) — e.g. "all processes decided" for termination
        claims under bounded schedules.
    """
    result = ExplorationResult(states=0, transitions=0, max_depth=0)
    sandbox = _UndoSandbox(factories, max_ops=max_ops)
    bit = sandbox.bit
    # The states expanded with nothing asleep, which nothing can wake; the
    # others, with the pids still asleep there (module docstring).
    closed: Set[Hashable] = set()
    asleep_at: Dict[Hashable, int] = {}
    schedule: List[int] = []

    def arrive(sleep: int) -> Optional[List[Any]]:
        """Check the state just reached with the pids of ``sleep`` asleep.
        Its node on the path (the pids to try from it, the pids asleep
        there, the pids tried: none yet), or ``None`` to abort the whole
        search."""
        fingerprint = sandbox.fingerprint()
        if fingerprint in closed:
            return [iter(()), 0, 0]
        asleep = asleep_at.get(fingerprint)
        if asleep is not None:
            # Try what slept when the state was expanded and is awake on
            # this path; what sleeps on both stays asleep, here and from
            # now on (Godefroid's rule for a state met again).
            woken = asleep & ~sleep
            if not woken:
                return [iter(()), 0, 0]
            asleep &= sleep
            if asleep:
                asleep_at[fingerprint] = asleep
            else:
                del asleep_at[fingerprint]
                closed.add(fingerprint)
            todo = [pid for pid in sandbox.enabled() if bit[pid] & woken]
            return [iter(todo), asleep, 0]
        if result.states >= max_states:
            result.complete = False
            return None
        if sleep:
            asleep_at[fingerprint] = sleep
        else:
            closed.add(fingerprint)
        result.states += 1
        result.max_depth = max(result.max_depth, len(schedule))
        if sandbox.parked:
            result.parked += 1

        for prop in properties:
            message = prop.check(sandbox)
            if message is not None:
                result.violations.append(
                    Violation(prop.name, message, tuple(schedule))
                )
                if stop_at_first_violation:
                    result.complete = False
                    return None

        enabled = sandbox.enabled()
        if not enabled:
            result.terminal_states += 1
            if on_terminal is not None:
                message = on_terminal(sandbox)
                if message is not None:
                    result.violations.append(
                        Violation("terminal", message, tuple(schedule))
                    )
                    if stop_at_first_violation:
                        result.complete = False
                        return None
        if sleep:
            enabled = [pid for pid in enabled if not bit[pid] & sleep]
        return [iter(enabled), sleep, 0]

    start = arrive(0)
    # path[d] is the node of the state d steps down the current schedule.
    path: List[List[Any]] = [] if start is None else [start]
    while path:
        node = path[-1]
        pid = next(node[0], None)
        if pid is None:
            path.pop()
            if schedule:
                sandbox.undo()
                schedule.pop()
            continue
        # Asleep after this step: what sleeps here or was tried from here
        # and commutes with it.
        sleep = sandbox.commuting(pid, node[1] | node[2])
        node[2] |= bit[pid]
        result.transitions += 1
        sandbox.step(pid)
        schedule.append(pid)
        reached = arrive(sleep)
        if reached is None:
            break
        path.append(reached)
    return result
