"""Tuning optimistic(Δ) online, as §1.2/§3.3 of the paper suggests.

Run::

    python examples/optimistic_tuning.py

Part 1 — the simulator: sweep the delay estimate against the worst legal
schedule (every step within the true Δ, maximally adversarial).  Estimates
below Δ never decide; estimates above pay linearly.  Then let an AIMD
estimator (the paper's TCP-congestion-control suggestion) discover the
knee from a 20x underestimate, with safety guaranteed at every step.

Part 2 — the real machine: measure the host's actual inter-step gaps under
thread contention (GIL included) and show how enormous a *sound* Δ would
be compared to an optimistic p99 choice — the practical motivation for
the whole idea.
"""

from repro.core.consensus import run_consensus
from repro.core.optimistic import AimdEstimator, tune
from repro.sim import ConstantTiming, HookTiming
from repro.sim.adversary import round_conflict_hook
from repro.sim.timing import measure_host_delta

TRUE_DELTA = 1.0


def one_instance(estimate: float):
    """One consensus instance against the worst legal schedule."""
    timing = HookTiming(
        ConstantTiming(0.01 * TRUE_DELTA), round_conflict_hook(TRUE_DELTA)
    )
    result = run_consensus(
        [0, 1], delta=TRUE_DELTA, timing=timing,
        algorithm_delta=estimate, max_time=120.0,
    )
    assert result.verdict.safe  # at *every* estimate
    decided = result.verdict.terminated
    cost = (result.max_decision_time or 120.0) / TRUE_DELTA
    return decided, cost


def sweep() -> None:
    print("=== estimate sweep (true Δ = 1.0, worst legal schedule) ===")
    print(f"{'estimate':>9}  {'decided':>7}  {'time (Δ)':>9}")
    for estimate in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0, 6.0):
        decided, cost = one_instance(estimate)
        cost_text = f"{cost:9.2f}" if decided else "   capped"
        print(f"{estimate:9.2f}  {'yes' if decided else 'no':>7}  {cost_text}")
    print("-> the cliff sits exactly at Δ; above it latency grows with "
          "the estimate")


def aimd_demo() -> None:
    print("\n=== AIMD tuning from a 20x underestimate ===")
    estimator = AimdEstimator(
        initial=0.05 * TRUE_DELTA, increase_factor=2.0,
        decrease_step=0.02 * TRUE_DELTA, patience=5,
    )
    steps = tune(estimator, lambda est: one_instance(est), instances=15)
    for step in steps:
        outcome = "decided" if step.success else "failed "
        print(f"instance {step.instance:2d}: estimate {step.estimate:5.2f}Δ "
              f"-> {outcome} (cost {step.cost:6.2f}Δ)")
    print(f"-> settled at {estimator.current():.2f}Δ after "
          f"{estimator.failures} failures; safety never depended on it")


def host_measurement() -> None:
    print("\n=== the host's real step times (why optimistic(Δ) matters) ===")
    report = measure_host_delta(threads=4, steps_per_thread=3_000)
    print(report)
    sound = report.maximum
    optimistic = report.optimistic(0.99)
    print(f"a sound Δ (max observed)     : {sound * 1e6:10.1f} us")
    print(f"optimistic(Δ) (p99 observed) : {optimistic * 1e6:10.1f} us")
    if optimistic > 0:
        print(f"-> the sound bound is {sound / optimistic:.1f}x larger; "
              f"running with it would make every delay statement that much "
              f"slower, for failures that almost never happen")


if __name__ == "__main__":
    sweep()
    aimd_demo()
    host_measurement()
