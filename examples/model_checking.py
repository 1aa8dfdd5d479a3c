"""Machine-checking the paper's safety claims (and finding Fischer's bug).

Run::

    python examples/model_checking.py

The model checker explores *every* interleaving of shared-memory steps —
which, for safety, is exactly the set of executions available to an
unrestricted timing-failure adversary.  Three demonstrations:

1. Fischer's algorithm: the checker *finds* the mutual-exclusion
   violation and prints the schedule — the classic six-step interleaving
   the paper's §3.1 describes in prose;
2. Algorithm 3: the same property, exhaustively verified — zero violating
   interleavings (stabilization, machine-checked), and with nobody ever
   stopped by the op bound that covers executions of any length;
3. Algorithm 1: validity and agreement verified over every interleaving
   of a conflicting-inputs configuration (Theorems 2.2/2.3 for n = 2,
   rounds capped at 2 — under asynchrony they need never run out, FLP —
   with a process past the cap polling ``decide`` forever: a loop the
   checker closes).
"""

from repro.algorithms import FischerLock, mutex_session
from repro.core.consensus import TimeResilientConsensus, labeled_decision
from repro.core.mutex import default_time_resilient_mutex
from repro.verify import (
    AgreementProperty,
    MutualExclusionProperty,
    ValidityProperty,
    explore,
    replay_schedule,
)


def check_fischer() -> None:
    print("=== 1. Fischer (Algorithm 2) under arbitrary asynchrony ===")
    lock = FischerLock(delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in (0, 1)
    }
    result = explore(factories, [MutualExclusionProperty()], max_ops=30)
    violation = result.violations[0]
    print(f"explored {result.states} states -> VIOLATION FOUND")
    print(f"schedule (pids in linearization order): {list(violation.schedule)}")
    sandbox = replay_schedule(factories, violation.schedule, max_ops=30)
    print(f"replayed: processes {sorted(sandbox.in_cs)} are in the CS together")
    print("(a delayed write to x outlives the other's delay(Δ) — §3.1)")


def check_algorithm3() -> None:
    print("\n=== 2. Algorithm 3, same property, exhaustively ===")
    lock = default_time_resilient_mutex(2, delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in (0, 1)
    }
    result = explore(factories, [MutualExclusionProperty()], max_ops=1000)
    print(f"explored {result.states} states, complete={result.complete}, "
          f"parked={result.parked} -> {len(result.violations)} violations")
    assert result.ok and result.complete and result.parked == 0
    print("(the state space closed: every execution, of any length)")


def check_algorithm1() -> None:
    print("\n=== 3. Algorithm 1: agreement + validity (Theorems 2.2/2.3) ===")
    consensus = TimeResilientConsensus(delta=1.0, max_rounds=2)
    inputs = {0: 0, 1: 1}
    factories = {
        pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
        for pid in inputs
    }
    result = explore(
        factories,
        [AgreementProperty(), ValidityProperty(inputs)],
        max_ops=30,
    )
    print(f"explored {result.states} states, complete={result.complete}, "
          f"parked={result.parked} -> {len(result.violations)} violations")
    assert result.ok and result.complete and result.parked == 0


if __name__ == "__main__":
    check_fischer()
    check_algorithm3()
    check_algorithm1()
    print("\nFischer breaks; the paper's algorithms do not — machine-checked.")
