"""The per-experiment drivers (E1..E13 from DESIGN.md §4).

Each ``run_eN`` function executes the workloads for one reproduced
table/figure and returns an :class:`~repro.analysis.tables.ExperimentTable`
whose rows are what EXPERIMENTS.md records.  The shape suite
(``tests/shapes``) calls the same drivers (usually with reduced
parameters) and asserts the *shape* claims — who wins, by what rough
factor, where behaviour changes.

This module is also the one command line for every table — the E*
experiments here, the A1..A4 ablations (:mod:`.ablations`) and the
X1..X3 extension tables (:mod:`.extensions`)::

    python -m repro.analysis.experiments            # all tables
    python -m repro.analysis.experiments E1 E7      # a subset
    python -m repro.analysis.experiments A1 X2
"""

from __future__ import annotations

import argparse
import random
import sys
from typing import Callable, Dict, List, Optional, Sequence

from ..algorithms import (
    AatConsensus,
    AtConsensus,
    BakeryLock,
    BarDavidLock,
    FilterLock,
    FischerLock,
    LamportFastLock,
    MutexAlgorithm,
    TournamentLock,
    mutex_session,
)
from ..core.consensus import TimeResilientConsensus, labeled_decision, run_consensus
from ..core.derived import LeaderElection, MultivaluedConsensus, Renaming
from ..core.derived import TestAndSet as TasObject
from ..core.mutex import TimeResilientMutex, default_time_resilient_mutex
from ..core.optimistic import AimdEstimator, FixedEstimate, tune
from ..core.resilience import check_resilience
from ..net import (
    DelaySpike,
    NetFaultPlan,
    Partition,
    QuorumSystem,
    convergence_start,
)
from ..sim import (
    ConstantTiming,
    CrashSchedule,
    Engine,
    FailureWindowTiming,
    HookTiming,
    PerProcessTiming,
    PidOrderTieBreak,
    RandomTieBreak,
    RunStatus,
    UniformTiming,
    failure_window,
    stall_write_to,
)
from ..sim.adversary import round_conflict_hook
from ..sim.registers import RegisterNamespace
from ..spec import check_consensus, check_mutual_exclusion, time_complexity
from ..verify import (
    AgreementProperty,
    MutualExclusionProperty,
    ValidityProperty,
    explore,
)
from .ablations import run_a1, run_a2, run_a3, run_a4
from .extensions import run_x1, run_x2, run_x3
from .metrics import delay_count, rounds_used, solo_steps_to_decision
from .tables import ExperimentTable

__all__ = [
    "run_e1", "run_e2", "run_e3", "run_e4", "run_e5", "run_e6", "run_e7",
    "run_e8", "run_e9", "run_e10", "run_e11", "run_e12", "run_e13",
    "run_e1_net", "run_e8_net",
    "ALL_EXPERIMENTS", "run_all", "main",
]

DELTA = 1.0


def consensus_inputs(n: int, pattern: str = "split", seed: int = 0) -> List[int]:
    """Binary proposal vectors.

    Patterns: ``unanimous0``, ``unanimous1``, ``split`` (alternating — the
    maximally conflicted deterministic vector), ``random``.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if pattern == "unanimous0":
        return [0] * n
    if pattern == "unanimous1":
        return [1] * n
    if pattern == "split":
        return [i % 2 for i in range(n)]
    if pattern == "random":
        rng = random.Random(seed)
        return [rng.randint(0, 1) for _ in range(n)]
    raise ValueError(f"unknown pattern {pattern!r}")


def _run_lock(
    lock: MutexAlgorithm,
    n: int,
    sessions: int,
    timing,
    cs: float = 0.2,
    ncs: float = 0.2,
    max_time: float = 100_000.0,
    tie=None,
    starts: Optional[Sequence[float]] = None,
):
    engine = Engine(delta=DELTA, timing=timing, max_time=max_time, tie_break=tie)
    for pid in range(n):
        engine.spawn(
            mutex_session(
                lock, pid, sessions, cs_duration=cs, ncs_duration=ncs,
                start_delay=0.0 if starts is None else starts[pid],
            ),
            pid=pid,
        )
    return engine.run()


# ---------------------------------------------------------------------------
# E1 — Theorem 2.1(1): decision within 15·Δ without timing failures.
# ---------------------------------------------------------------------------

def run_e1(ns: Sequence[int] = (1, 2, 4, 8, 16, 32), seeds: Sequence[int] = (0, 1, 2)) -> ExperimentTable:
    table = ExperimentTable(
        "E1",
        "Consensus decision time without timing failures (bound: 15·Δ)",
        ["n", "worst time (Δ)", "mean time (Δ)", "worst rounds", "within 15Δ"],
    )
    for n in ns:
        worst = 0.0
        total = 0.0
        count = 0
        worst_rounds = 0
        for seed in seeds:
            r = run_consensus(
                consensus_inputs(n, "split"),
                delta=DELTA,
                timing=UniformTiming(0.2 * DELTA, DELTA, seed=seed),
                tie_break=RandomTieBreak(seed),
            )
            assert r.verdict.ok, r.verdict
            worst = max(worst, r.max_decision_time_in_deltas)
            for pid in range(n):
                total += r.run.trace.decision_time(pid) / DELTA
                count += 1
                worst_rounds = max(worst_rounds, rounds_used(r.run.trace, pid))
        table.add_row(n, worst, total / count, worst_rounds, worst <= 15.0)
    table.notes.append(
        "split inputs (maximal conflict); uniform step jitter within Δ"
    )
    return table


# ---------------------------------------------------------------------------
# E2 — Theorem 2.1(2): after failures stop, decided within ~2 rounds.
# ---------------------------------------------------------------------------

def run_e2(window_lengths: Sequence[float] = (2.0, 5.0, 10.0, 20.0), n: int = 3) -> ExperimentTable:
    table = ExperimentTable(
        "E2",
        "Recovery after a timing-failure window (bound: decide by round r+1)",
        ["window (Δ)", "decided", "post-failure rounds (worst)",
         "post-failure time (Δ)", "within bound"],
    )
    for length in window_lengths:
        timing = FailureWindowTiming(
            ConstantTiming(0.8 * DELTA),
            [failure_window(0.0, length * DELTA, stretch=30.0)],
        )
        r = run_consensus(
            consensus_inputs(n, "split"), delta=DELTA, timing=timing,
            max_time=50_000.0,
        )
        assert r.verdict.safe
        trace = r.run.trace
        last_failure = trace.last_failure_time
        worst_rounds = 0
        worst_time = 0.0
        for pid in range(n):
            late_delays = len(
                [e for e in trace.for_pid(pid)
                 if e.kind == "delay" and e.issued >= last_failure]
            )
            worst_rounds = max(worst_rounds, late_delays + 1)
            t = trace.decision_time(pid)
            if t is not None:
                worst_time = max(worst_time, (t - last_failure) / DELTA)
        table.add_row(
            length, r.verdict.terminated, worst_rounds, worst_time,
            worst_rounds <= 2,
        )
    table.notes.append("post-failure rounds = delays issued after the last failure + 1")
    return table


# ---------------------------------------------------------------------------
# E3 — Theorem 2.1(3)/2.4: wait-freedom under crashes.
# ---------------------------------------------------------------------------

def run_e3(ns: Sequence[int] = (2, 4, 8, 16)) -> ExperimentTable:
    table = ExperimentTable(
        "E3",
        "Wait-freedom: survivors decide despite k crash failures",
        ["n", "crashed k", "survivors decided", "worst time (Δ)", "agreed"],
    )
    for n in ns:
        for k in sorted({1, n // 2, n - 1}):
            if k < 1:
                continue
            # Crash within the first few steps, so every scheduled crash
            # really happens (a process that decides first never crashes).
            crashes = CrashSchedule(
                after_steps={pid: 1 + (pid % 4) for pid in range(k)}
            )
            r = run_consensus(
                consensus_inputs(n, "split"),
                delta=DELTA,
                timing=UniformTiming(0.2, 1.0, seed=n * 31 + k),
                crashes=crashes,
            )
            assert r.verdict.ok, r.verdict
            survivors = n - k
            crashed = set(r.run.crashed_pids)
            decided = len([pid for pid in r.decisions if pid not in crashed])
            table.add_row(
                n, k, f"{decided}/{survivors}",
                r.max_decision_time_in_deltas, r.verdict.agreed,
            )
    return table


# ---------------------------------------------------------------------------
# E4 — Theorem 2.1(4): the 7-step contention-free fast path.
# ---------------------------------------------------------------------------

def run_e4() -> ExperimentTable:
    table = ExperimentTable(
        "E4",
        "Contention-free fast path (bound: 7 own steps, no delay)",
        ["scenario", "steps to decide", "delay stmts", "decided"],
    )
    # Solo, clean timing.
    r = run_consensus([1], delta=DELTA, timing=ConstantTiming(0.8))
    table.add_row("solo, clean", solo_steps_to_decision(r.run.trace, 0),
                  delay_count(r.run.trace, 0), True)
    # Solo, while the whole system violates Δ (failures don't matter solo).
    timing = FailureWindowTiming(
        ConstantTiming(0.8), [failure_window(0.0, 1000.0, stretch=10.0)]
    )
    r = run_consensus([1], delta=DELTA, timing=timing, max_time=10_000.0)
    table.add_row("solo, during timing failures",
                  solo_steps_to_decision(r.run.trace, 0),
                  delay_count(r.run.trace, 0), True)
    # Late arrival after a standing decision.
    r = run_consensus([1, 1], delta=DELTA, timing=ConstantTiming(0.8),
                      start_times=[0.0, 40.0])
    table.add_row("late arrival (decision standing)",
                  solo_steps_to_decision(r.run.trace, 1),
                  delay_count(r.run.trace, 1), True)
    # Unanimous burst: round 1 decides, no delays anywhere.
    r = run_consensus([1, 1, 1, 1], delta=DELTA, timing=ConstantTiming(0.8))
    table.add_row("unanimous x4",
                  max(solo_steps_to_decision(r.run.trace, p) for p in range(4)),
                  delay_count(r.run.trace), True)
    return table


# ---------------------------------------------------------------------------
# E5 — Theorem 2.1(5): unbounded participants; flat per-process time.
# ---------------------------------------------------------------------------

def run_e5(ns: Sequence[int] = (2, 8, 32, 128)) -> ExperimentTable:
    table = ExperimentTable(
        "E5",
        "Scaling in n: per-process decision time flat, total steps linear",
        ["n", "worst time (Δ)", "total shared steps", "steps per process"],
    )
    for n in ns:
        r = run_consensus(
            consensus_inputs(n, "split"), delta=DELTA, timing=ConstantTiming(0.8)
        )
        assert r.verdict.ok
        steps = r.run.trace.shared_step_count()
        table.add_row(n, r.max_decision_time_in_deltas, steps, steps / n)
    table.notes.append("no process ever reads n: participation is open")
    return table


# ---------------------------------------------------------------------------
# E6 — Theorems 2.2/2.3: safety, exhaustively and statistically.
# ---------------------------------------------------------------------------

def run_e6(random_seeds: int = 200, mc_max_ops: int = 28) -> ExperimentTable:
    table = ExperimentTable(
        "E6",
        "Safety of Algorithm 1 (validity + agreement) under adversity",
        ["check", "executions / states", "violations"],
    )
    # Exhaustive: n=2, conflicting inputs, bounded rounds.
    consensus = TimeResilientConsensus(delta=DELTA, max_rounds=2)
    inputs = {0: 0, 1: 1}
    factories = {
        pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
        for pid in inputs
    }
    res = explore(
        factories, [AgreementProperty(), ValidityProperty(inputs)],
        max_ops=mc_max_ops,
    )
    table.add_row("model checking n=2 (all interleavings)",
                  f"{res.states} states", len(res.violations))
    table.notes.append(
        f"model checking: {res.parked} states with a process stopped at "
        f"max_ops={mc_max_ops} (at 0 the state space closed: rounds are "
        f"capped at 2, a process past the cap polls `decide`, and the row "
        f"covers executions of any length)"
    )
    # Randomized: failure windows + jitter + crashes.
    violations = 0
    for seed in range(random_seeds):
        timing = FailureWindowTiming(
            UniformTiming(0.05, 1.0, seed=seed),
            [failure_window(float(seed % 5), float(seed % 5) + 4.0,
                            stretch=20.0)],
        )
        crashes = (
            CrashSchedule(after_steps={seed % 3: seed % 7})
            if seed % 2 == 0
            else None
        )
        r = run_consensus(
            consensus_inputs(3, "random", seed=seed), delta=DELTA,
            timing=timing, tie_break=RandomTieBreak(seed), crashes=crashes,
            max_time=5_000.0,
        )
        if not r.verdict.safe:
            violations += 1
    table.add_row(f"randomized adversity ({random_seeds} seeds)",
                  f"{random_seeds} runs", violations)
    table.notes.append("contrast: the same schedules break AT consensus — see E13")
    return table


# ---------------------------------------------------------------------------
# E7 — §3 headline: time complexity O(Δ) vs asynchronous baselines.
# ---------------------------------------------------------------------------

def _lock_for(name: str, n: int) -> MutexAlgorithm:
    ns = RegisterNamespace(("e7", name, n))
    if name == "alg3":
        return default_time_resilient_mutex(n, delta=DELTA, namespace=ns)
    if name == "fischer":
        return FischerLock(delta=DELTA, namespace=ns)
    if name == "lamport_fast":
        return LamportFastLock(n, namespace=ns)
    if name == "bakery":
        return BakeryLock(n, namespace=ns)
    if name == "tournament":
        return TournamentLock(n, namespace=ns)
    if name == "filter":
        return FilterLock(n, namespace=ns)
    raise ValueError(name)


def run_e7(ns: Sequence[int] = (2, 4, 8, 16), sessions: int = 3) -> ExperimentTable:
    table = ExperimentTable(
        "E7",
        "Mutex time complexity (paper's metric) without timing failures",
        ["algorithm"] + [f"n={n}" for n in ns] + ["grows with n"],
    )
    locks = ["alg3", "fischer", "lamport_fast", "tournament", "bakery", "filter"]
    for name in locks:
        metrics = []
        for n in ns:
            lock = _lock_for(name, n)
            res = _run_lock(lock, n, sessions, ConstantTiming(0.2 * DELTA))
            assert res.status is RunStatus.COMPLETED, (name, n)
            assert check_mutual_exclusion(res.trace) == []
            metrics.append(time_complexity(res.trace) / DELTA)
        grows = metrics[-1] > metrics[0] * 2.0
        table.add_row(name, *metrics, grows)
    table.notes.append(
        "metric: longest interval with a waiter and an empty CS, in Δ units; "
        "timing-based locks stay O(Δ), scan-based locks grow with n"
    )
    return table


# ---------------------------------------------------------------------------
# E8 — Theorems 3.2/3.3: convergence after a doorway breach.
# ---------------------------------------------------------------------------

def _flood_run(variant: str, n: int = 5, victim: int = 0, max_time: float = 400.0):
    ns = RegisterNamespace(("e8", variant))
    if variant == "deadlock_free":
        inner: MutexAlgorithm = LamportFastLock(n, namespace=ns.child("lf"))
    else:
        inner = BarDavidLock(
            LamportFastLock(n, namespace=ns.child("lf")), n,
            namespace=ns.child("gate"),
        )
    lock = TimeResilientMutex(inner, delta=DELTA, namespace=ns.child("door"))
    base = PerProcessTiming({victim: DELTA}, default=0.05 * DELTA)
    hook = stall_write_to(lock.x.name, duration=2.5 * DELTA, pids=[victim], count=1)
    engine = Engine(
        delta=DELTA, timing=HookTiming(base, hook), max_time=max_time,
        tie_break=PidOrderTieBreak([1, 2, 3, 4, victim]),
    )
    for pid in range(n):
        sessions = 1 if pid == victim else 10_000
        start = 0.0 if pid in (victim, 1) else 4.0
        engine.spawn(
            mutex_session(lock, pid, sessions, cs_duration=0.05,
                          ncs_duration=0.0, start_delay=start),
            pid=pid,
        )
    return engine.run()


def run_e8() -> ExperimentTable:
    table = ExperimentTable(
        "E8",
        "Convergence after a doorway breach: deadlock-free vs starvation-free A",
        ["embedded A", "exclusion held", "victim drained at (Δ)",
         "victim drain vs SF (x)", "total CS entries"],
    )
    results = {}
    for variant in ("starvation_free", "deadlock_free"):
        res = _flood_run(variant)
        entries = res.trace.cs_intervals(pid=0)
        drained = entries[0].enter / DELTA if entries else None
        results[variant] = (res, drained)
    sf_drain = results["starvation_free"][1]
    for variant in ("starvation_free", "deadlock_free"):
        res, drained = results[variant]
        ratio = (drained / sf_drain) if (drained and sf_drain) else None
        table.add_row(
            "bar_david(lamport_fast)" if variant == "starvation_free" else "lamport_fast",
            check_mutual_exclusion(res.trace) == [],
            drained,
            ratio,
            len(res.trace.cs_intervals()),
        )
    table.notes.append(
        "Theorem 3.2 is an existence claim (no convergence bound exists for "
        "deadlock-free A); with a duration-bounded adversary we measure the "
        "victim's drain-time blow-up rather than outright non-termination"
    )
    return table


# ---------------------------------------------------------------------------
# E9 — Theorem 3.1: register counts vs the n lower bound.
# ---------------------------------------------------------------------------

def run_e9(n: int = 8) -> ExperimentTable:
    table = ExperimentTable(
        "E9",
        f"Shared registers used (n = {n}; Theorem 3.1 lower bound: n for "
        f"time-resilient mutex)",
        ["algorithm", "claimed", "touched in run", ">= n", "resilient"],
    )
    entries = [
        ("fischer", FischerLock(delta=DELTA), False),
        ("lamport_fast", LamportFastLock(n), False),
        ("bakery", BakeryLock(n), False),
        ("tournament", TournamentLock(n), False),
        ("bar_david(lamport)", BarDavidLock(LamportFastLock(n), n), False),
        ("alg3 (time-resilient)", default_time_resilient_mutex(n, delta=DELTA), True),
    ]
    for name, lock, resilient in entries:
        res = _run_lock(lock, n, 2, ConstantTiming(0.3))
        claimed = lock.register_count(n)
        touched = res.memory.register_count
        table.add_row(name, claimed, touched,
                      claimed is not None and claimed >= n, resilient)
    table.notes.append(
        "Fischer's single register is exactly what Theorem 3.1 forbids for "
        "time-resilient algorithms; Algorithm 3 pays the Θ(n) the bound demands"
    )
    return table


# ---------------------------------------------------------------------------
# E10 — optimistic(Δ): estimate sweep and AIMD tuning.
# ---------------------------------------------------------------------------

def run_e10(
    ratios: Sequence[float] = (0.1, 0.25, 0.5, 0.9, 1.0, 2.0, 5.0),
    cap: float = 200.0,
) -> ExperimentTable:
    """Sweep the delay estimate against the worst legal schedule.

    Under :func:`~repro.sim.adversary.round_conflict_hook` (every step
    within Δ, i.e. zero timing failures) the behaviour has a sharp
    threshold: estimates below Δ lose every round — the run is capped,
    undecided, but *safe* — while estimates at or above Δ decide in round
    2 with latency growing linearly in the estimate.  That cliff-then-
    slope is the quantitative case for tuning optimistic(Δ) online.
    """
    table = ExperimentTable(
        "E10",
        "optimistic(Δ) vs the worst legal schedule (true Δ = 1, cap "
        f"{cap:.0f}Δ)",
        ["estimate/Δ", "decided", "time (Δ)", "rounds (p0)", "safe"],
    )

    def one_instance(estimate: float):
        timing = HookTiming(
            ConstantTiming(0.01 * DELTA), round_conflict_hook(DELTA)
        )
        r = run_consensus(
            [0, 1], delta=DELTA, timing=timing,
            algorithm_delta=estimate, max_time=cap * DELTA,
        )
        decided = r.verdict.terminated
        time = (r.max_decision_time or cap * DELTA) / DELTA
        return r.verdict.safe, decided, time, rounds_used(r.run.trace, 0)

    for ratio in ratios:
        safe, decided, time, rounds = one_instance(ratio * DELTA)
        table.add_row(ratio, decided, time if decided else None,
                      rounds, safe)

    # AIMD tuning: start far too small; failures double the estimate until
    # it crosses Δ, then the run decides promptly every time.
    estimator = AimdEstimator(initial=0.05 * DELTA, increase_factor=2.0,
                              decrease_step=0.02 * DELTA, patience=5)

    def tuned_instance(estimate: float):
        ok, decided, t, rds = one_instance(estimate)
        return (decided and rds <= 2), t

    steps = tune(estimator, tuned_instance, instances=20)
    first_success = next((s.instance for s in steps if s.success), None)
    table.notes.append(
        f"AIMD from 0.05Δ: first success at instance {first_success}, "
        f"final estimate {estimator.current():.2f}Δ (the knee sits at Δ); "
        f"safety held at every estimate"
    )
    return table


# ---------------------------------------------------------------------------
# E11 — vs the unknown-bound algorithm of [3].
# ---------------------------------------------------------------------------

def run_e11(est_ratios: Sequence[float] = (1.0, 0.25, 0.0625, 0.015625)) -> ExperimentTable:
    """Known Δ vs unknown bound, against the worst legal schedule.

    Both algorithms face :func:`~repro.sim.adversary.round_conflict_hook`
    (all steps within Δ).  Algorithm 1, knowing Δ, decides in round 2 at
    ``c·Δ``.  The unknown-bound algorithm must *discover* Δ by doubling:
    it loses one round per doubling, so its decision time grows by
    ``log2(Δ / est0)`` rounds — the separation the lower bound of [3]
    proves unavoidable in the unknown-bound model.
    """
    table = ExperimentTable(
        "E11",
        "Known Δ (Algorithm 1) vs unknown bound (AAT doubling estimates)",
        ["initial est/Δ", "alg1 time (Δ)", "alg1 rounds", "aat time (Δ)",
         "aat rounds", "aat/alg1"],
    )

    def adversarial_timing():
        return HookTiming(ConstantTiming(0.01 * DELTA), round_conflict_hook(DELTA))

    r1 = run_consensus([0, 1], delta=DELTA, timing=adversarial_timing())
    assert r1.verdict.ok
    alg1_time = r1.max_decision_time_in_deltas
    alg1_rounds = rounds_used(r1.run.trace, 0)
    for ratio in est_ratios:
        algo = AatConsensus(initial_estimate=ratio * DELTA,
                            namespace=RegisterNamespace(("e11", ratio)))
        engine = Engine(delta=DELTA, timing=adversarial_timing(),
                        max_time=50_000.0)
        for pid, v in enumerate([0, 1]):
            engine.spawn(algo.propose(pid, v), pid=pid)
        res = engine.run()
        decisions = res.trace.decisions()
        worst = max(t for t, _ in decisions.values()) / DELTA
        aat_rounds = rounds_used(res.trace, 0)
        table.add_row(ratio, alg1_time, alg1_rounds, worst, aat_rounds,
                      worst / alg1_time)
    table.notes.append(
        "every step in these runs is within Δ — the adversary needs no "
        "timing failures, only worst-case (legal) step durations"
    )
    return table


# ---------------------------------------------------------------------------
# E12 — derived wait-free objects under failure injection.
# ---------------------------------------------------------------------------

def run_e12(n: int = 4) -> ExperimentTable:
    table = ExperimentTable(
        "E12",
        f"Derived objects (n = {n}): latency and safety, clean vs failures",
        ["object", "clean time (Δ)", "with failures (Δ)", "safe under failures"],
    )
    # A system-wide window mid-run: everyone's steps blow through Δ.
    windows = [failure_window(1.0, 7.0, stretch=10.0)]

    def election_run(timing):
        el = LeaderElection(n=n, delta=DELTA,
                            namespace=RegisterNamespace(("e12", "el", id(timing))))
        eng = Engine(delta=DELTA, timing=timing, max_time=50_000.0)
        for pid in range(n):
            eng.spawn(el.elect(pid), pid=pid)
        res = eng.run()
        leaders = set(res.returns.values())
        return res.end_time / DELTA, len(leaders) == 1

    def tas_run(timing):
        tas = TasObject(n=n, delta=DELTA,
                        namespace=RegisterNamespace(("e12", "tas", id(timing))))
        eng = Engine(delta=DELTA, timing=timing, max_time=50_000.0)
        for pid in range(n):
            eng.spawn(tas.test_and_set(pid), pid=pid)
        res = eng.run()
        wins = [v for v in res.returns.values() if v == 0]
        return res.end_time / DELTA, len(wins) == 1

    def renaming_run(timing):
        rn = Renaming(n=n, delta=DELTA,
                      namespace=RegisterNamespace(("e12", "rn", id(timing))))
        eng = Engine(delta=DELTA, timing=timing, max_time=50_000.0)
        for pid in range(n):
            eng.spawn(rn.acquire(pid), pid=pid)
        res = eng.run()
        names = list(res.returns.values())
        return res.end_time / DELTA, len(names) == len(set(names))

    for name, runner in (
        ("leader election", election_run),
        ("test-and-set", tas_run),
        ("n-renaming", renaming_run),
    ):
        clean_time, clean_ok = runner(ConstantTiming(0.5))
        assert clean_ok
        fail_timing = FailureWindowTiming(ConstantTiming(0.5), windows)
        fail_time, fail_ok = runner(fail_timing)
        table.add_row(name, clean_time, fail_time, fail_ok)
    table.notes.append("latency = end-to-end completion of all n participants")
    return table


# ---------------------------------------------------------------------------
# E13 — Fischer violated vs Algorithm 3 immune (model checking).
# ---------------------------------------------------------------------------

def run_e13(max_ops: int = 100) -> ExperimentTable:
    table = ExperimentTable(
        "E13",
        "Mutual exclusion under arbitrary asynchrony (= timing failures)",
        ["algorithm", "states explored", "violating interleavings",
         "shortest witness", "bound reached"],
    )
    # Fischer: every state in which two processes overlap.
    fischer = FischerLock(delta=DELTA, namespace=RegisterNamespace(("e13", "f")))
    fischer_factories = {
        pid: (lambda p: mutex_session(fischer, p, sessions=1, cs_duration=1.0))
        for pid in range(2)
    }
    res_f = explore(fischer_factories, [MutualExclusionProperty()],
                    max_ops=max_ops, stop_at_first_violation=False,
                    max_states=300_000)
    shortest = min((len(v.schedule) for v in res_f.violations), default=None)
    table.add_row("fischer (Algorithm 2)", res_f.states, len(res_f.violations),
                  shortest, res_f.parked)
    # Algorithm 3: zero violations, exhaustively.
    lock3 = default_time_resilient_mutex(
        2, delta=DELTA, namespace=RegisterNamespace(("e13", "a3"))
    )
    alg3_factories = {
        pid: (lambda p: mutex_session(lock3, p, sessions=1, cs_duration=1.0))
        for pid in range(2)
    }
    res_3 = explore(alg3_factories, [MutualExclusionProperty()],
                    max_ops=max_ops, max_states=300_000)
    table.add_row("Algorithm 3", res_3.states, len(res_3.violations), None,
                  res_3.parked)
    table.notes.append(
        "asynchronous interleavings are exactly executions with unrestricted "
        "timing failures; Fischer admits violations, Algorithm 3 none"
    )
    table.notes.append(
        "bound reached = states with a process stopped at max_ops; at 0 the "
        "state space closed and the row covers executions of any length"
    )
    return table


# ---------------------------------------------------------------------------
# E1N — E1 on the networked substrate: decision within 15·Δ_net.
# ---------------------------------------------------------------------------

def run_e1_net(
    ns: Sequence[int] = (2, 3), seeds: Sequence[int] = (0, 1)
) -> ExperimentTable:
    """E1 re-run over quorum-emulated registers (unit: ``Δ_net``).

    The resilience bridge (:mod:`repro.net.resilience`) reads Theorem
    2.1(1) with the emulated-operation bound ``Δ_net`` in place of ``Δ``;
    Algorithm 1 itself is byte-identical to the shared-memory runs — only
    the substrate changed.
    """
    table = ExperimentTable(
        "E1N",
        "Networked consensus decision time over ABD quorum registers "
        "(bound: 15·Δ_net)",
        ["n", "Δ_net", "worst time (Δ_net)", "mean time (Δ_net)",
         "messages", "quorum RTTs", "within 15Δ_net"],
    )
    for n in ns:
        worst = 0.0
        total = 0.0
        count = 0
        messages = 0
        rtts = 0
        delta_net = 0.0
        for seed in seeds:
            inputs = dict(enumerate(consensus_inputs(n, "split")))
            system = QuorumSystem(clients=n, seed=seed)
            delta_net = system.delta
            consensus = TimeResilientConsensus(delta=system.delta)
            programs = [
                labeled_decision(consensus.propose(pid, inputs[pid]))
                for pid in range(n)
            ]
            result = system.run(programs)
            verdict = check_consensus(
                result, inputs, expected_decided=system.client_pids
            )
            assert verdict.ok, verdict
            for pid in range(n):
                t = result.trace.decision_time(pid)
                worst = max(worst, t / system.delta)
                total += t / system.delta
                count += 1
            messages += system.transport.stats.messages_sent
            rtts += system.transport.stats.quorum_rtts
        table.add_row(
            n, delta_net, worst, total / count, messages, rtts, worst <= 15.0
        )
    table.notes.append(
        "a shared step is one emulated quorum operation, so the theorem's "
        "unit is Δ_net = emulated_op_bound(delivery bound); split inputs"
    )
    return table


# ---------------------------------------------------------------------------
# E8N — convergence on the networked substrate after a fault window.
# ---------------------------------------------------------------------------

def run_e8_net(n: int = 2, sessions: int = 2) -> ExperimentTable:
    """Algorithm 3 mutex over the quorum under healing fault windows.

    Unlike E8 (a doorway-breach flood, a shared-memory adversary with no
    message-level analogue), the networked convergence claim is the
    resilience theorems' own: exclusion holds *throughout* the window and
    critical-section progress resumes once deliveries respect the bound
    again (:func:`repro.net.convergence_start`).
    """
    bound = 1.0
    replicas = 3
    # Pids 0..n-1 are clients, n..n+replicas-1 are replicas; the partition
    # cuts a majority of replicas off, so operations *block* inside the
    # window (retransmission carries them over the heal).
    cut = tuple(range(n + 1, n + replicas))
    rest = tuple(pid for pid in range(n + replicas) if pid not in cut)
    plans = [
        ("none", NetFaultPlan.none()),
        ("delay-spike (6Δ_link)", NetFaultPlan(spikes=(
            DelaySpike(start=2.0, end=2.0 + 6.0 * bound,
                       stretch=4.0, extra=bound),
        ))),
        ("partition (6Δ_link, majority cut)", NetFaultPlan(partitions=(
            Partition(start=2.0, end=2.0 + 6.0 * bound, groups=(rest, cut)),
        ))),
    ]
    table = ExperimentTable(
        "E8N",
        "Networked mutex (Algorithm 3 over quorum registers) under fault "
        "windows",
        ["fault plan", "exclusion held", "CS entries",
         "entries after window", "converged"],
    )
    for name, faults in plans:
        system = QuorumSystem(
            clients=n, replicas=replicas, bound=bound, seed=0, faults=faults
        )
        lock = default_time_resilient_mutex(n, delta=system.delta)
        programs = [
            mutex_session(lock, pid, sessions, cs_duration=0.2,
                          ncs_duration=0.2)
            for pid in range(n)
        ]
        result = system.run(programs)
        exclusion = check_mutual_exclusion(result.trace) == []
        entries = result.trace.cs_intervals()
        resume_at = convergence_start(faults)
        after = [iv for iv in entries if iv.enter >= resume_at]
        converged = (
            result.status is RunStatus.COMPLETED
            and len(entries) == n * sessions
            and (resume_at == 0.0 or len(after) > 0)
        )
        table.add_row(name, exclusion, len(entries), len(after), converged)
    table.notes.append(
        "exclusion must hold even inside the windows (safety never rests); "
        "convergence = every session completes and entries resume after "
        "the last window closes"
    )
    return table


# ---------------------------------------------------------------------------

ALL_EXPERIMENTS: Dict[str, Callable[[], ExperimentTable]] = {
    "E1": run_e1,
    "E2": run_e2,
    "E3": run_e3,
    "E4": run_e4,
    "E5": run_e5,
    "E6": run_e6,
    "E7": run_e7,
    "E8": run_e8,
    "E9": run_e9,
    "E10": run_e10,
    "E11": run_e11,
    "E12": run_e12,
    "E13": run_e13,
    "E1N": run_e1_net,
    "E8N": run_e8_net,
    "A1": run_a1,
    "A2": run_a2,
    "A3": run_a3,
    "A4": run_a4,
    "X1": run_x1,
    "X2": run_x2,
    "X3": run_x3,
}


def _experiment_order(experiment_id: str):
    """E*, then A*, then X*; numeric-then-suffix within each: E1, E1N, E2,
    ..., E8, E8N, E9, E10, ..., A1, ..., X3."""
    digits = "".join(ch for ch in experiment_id if ch.isdigit())
    return ("EAX".index(experiment_id[0]), int(digits), experiment_id)


def _unknown_id(ids: Sequence[str]) -> Optional[str]:
    """The error for the first id that names no experiment, if any."""
    for experiment_id in ids:
        if experiment_id.upper() not in ALL_EXPERIMENTS:
            return (f"unknown experiment {experiment_id!r}; choose from "
                    + " ".join(sorted(ALL_EXPERIMENTS, key=_experiment_order)))
    return None


def run_all(ids: Optional[Sequence[str]] = None) -> List[ExperimentTable]:
    chosen = list(ids) if ids else sorted(ALL_EXPERIMENTS, key=_experiment_order)
    error = _unknown_id(chosen)
    if error:
        raise SystemExit(error)
    return [ALL_EXPERIMENTS[experiment_id.upper()]() for experiment_id in chosen]


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.experiments",
        description="Run experiment tables and print them (all when no id is given).",
        epilog="experiment ids: "
        + " ".join(sorted(ALL_EXPERIMENTS, key=_experiment_order)),
    )
    parser.add_argument("ids", nargs="*", metavar="ID",
                        help="experiment ids, case-insensitive")
    parser.add_argument("--markdown", action="store_true",
                        help="print markdown tables instead of text")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    error = _unknown_id(args.ids)
    if error:
        parser.error(error)
    for experiment_table in run_all(args.ids or None):
        if args.markdown:
            print(experiment_table.to_markdown())
        else:
            print(experiment_table.render())
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
