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
lint rule TMF003).  Two prunings bound the search:

* **state memoization** — a state already seen is not expanded again.
  The search recognises a state by the undo sandbox's incrementally
  maintained 128-bit digest, which merges two different states only by a
  collision of probability at most (pairs of states) · 2⁻¹²⁸ (the
  :mod:`~repro.verify.sandbox` docstring has the argument);
* a per-process operation bound (``max_ops``) — necessary because e.g.
  consensus under adversarial asynchrony legitimately runs forever (FLP).

What a verdict means depends on whether the bound ever bit, which
:attr:`ExplorationResult.parked` counts.  ``complete and parked == 0``:
every transition of every reachable state was taken, so the verdict
covers every execution of any length — a proof for that configuration,
and the same counts for every larger ``max_ops``.  With ``parked > 0``
every counted state and every reported witness is real and within the
bound, but a frame state first reached with little budget left is not
expanded again when it is reached with more, so the search covers less
than every prefix up to the bound: raise ``max_ops`` until nothing parks,
or read a clean result as "no violation found", not as a proof.

:func:`explore` returns statistics plus every violation found, each with
the exact schedule that produced it (replayable with
:func:`replay_schedule` for debugging).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Set, Tuple

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
    seen: Set[Hashable] = set()
    sandbox = _UndoSandbox(factories, max_ops=max_ops)
    schedule: List[int] = []

    def arrive() -> Optional[Sequence[int]]:
        """Check the state just reached; the pids to try from it, or
        ``None`` to abort the whole search."""
        fingerprint = sandbox.fingerprint()
        if fingerprint in seen:
            return ()
        if result.states >= max_states:
            result.complete = False
            return None
        seen.add(fingerprint)
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
        return enabled

    start = arrive()
    # untried[d]: the pids not yet tried from the state d steps down the
    # current schedule.
    untried: List[Iterator[int]] = [] if start is None else [iter(start)]
    while untried:
        pid = next(untried[-1], None)
        if pid is None:
            untried.pop()
            if schedule:
                sandbox.undo()
                schedule.pop()
            continue
        result.transitions += 1
        sandbox.step(pid)
        schedule.append(pid)
        todo = arrive()
        if todo is None:
            break
        untried.append(iter(todo))
    return result
