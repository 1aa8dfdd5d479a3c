"""The benchmark scenario registry.

A *scenario* is a named, deterministic workload: micro-scenarios drive
the engine's event loop and the explorer directly, experiment scenarios
wrap the :mod:`repro.analysis.experiments` drivers (usually at reduced
parameters so the quick suite stays CI-sized).  The runner executes each
scenario inside a :func:`~repro.sim.instrument.probe_scope`, so every
:class:`~repro.sim.Engine` the workload builds reports its work counters
without the workload knowing it is being measured.

A scenario callable may return an extra ``{counter: int}`` dict for
deterministic numbers the probe cannot see (the explorer's state counts);
those are merged into the scenario's counter block under the returned
names.

Quick scenarios (``quick=True``) are the CI set — they must finish in a
few seconds each and their counters are regression-gated against the
committed ``BENCH_core.json``.  The full set is a superset (same
definitions, plus the heavier experiment drivers), so a full run is
directly comparable to a quick baseline on the shared names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..algorithms import FischerLock, mutex_session
from ..analysis import experiments
from ..net import QuorumSystem
from ..sim import (
    ConstantTiming,
    CrashSchedule,
    Engine,
    Program,
    RandomTieBreak,
    UniformTiming,
    ops,
)
from ..sim.registers import Array, Register, RegisterNamespace
from ..verify import MutualExclusionProperty, explore

__all__ = ["Scenario", "SCENARIOS", "scenario_names", "get_scenario"]

_DELTA = 1.0
# Named bounds for the micro-scenarios' delay/local phases (timing
# assumptions stay auditable — see lint rule TMF005).
_THINK = 0.4 * _DELTA
_PAUSE = 0.6 * _DELTA


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark workload."""

    name: str
    description: str
    quick: bool
    fn: Callable[[], Optional[Dict[str, int]]]


# ---------------------------------------------------------------------------
# Micro-scenarios: the engine event loop and the explorer, isolated.
# ---------------------------------------------------------------------------


def _pingpong_prog(reg: Register, rounds: int) -> Program:
    for _ in range(rounds):
        value = yield reg.read()
        yield reg.write(value + 1)


def _engine_pingpong() -> None:
    """Private-register read/write churn: pure event-loop throughput."""
    slots = Array("bench_slot", 0)
    engine = Engine(delta=_DELTA, timing=ConstantTiming(0.5 * _DELTA))
    for pid in range(8):
        engine.spawn(_pingpong_prog(slots[pid], 120), pid=pid)
    result = engine.run()
    assert result.completed


def _engine_contention() -> None:
    """Everyone hammers one register under jitter and random tie-breaks."""
    hot = Register("bench_hot", 0)
    engine = Engine(
        delta=_DELTA,
        timing=UniformTiming(0.2 * _DELTA, _DELTA, seed=7),
        tie_break=RandomTieBreak(seed=11),
    )
    for pid in range(6):
        engine.spawn(_pingpong_prog(hot, 60), pid=pid)
    result = engine.run()
    assert result.completed


def _mixed_prog(reg: Register, rounds: int) -> Program:
    for _ in range(rounds):
        yield ops.delay(_THINK)
        yield reg.write(1)
        yield ops.local_work(_PAUSE)
        yield reg.write(0)


def _engine_delays_and_crashes() -> None:
    """Delay/local-work paths plus the crash machinery, one run."""
    slots = Array("bench_mixed", 0)
    engine = Engine(
        delta=_DELTA,
        timing=ConstantTiming(0.3 * _DELTA),
        crashes=CrashSchedule(after_steps={0: 25}, at_time={1: 30.0}),
    )
    for pid in range(4):
        engine.spawn(_mixed_prog(slots[pid], 40), pid=pid)
    engine.run()


def _explorer_fischer() -> Dict[str, int]:
    """Exhaustive interleaving exploration; counters from the result."""
    lock = FischerLock(delta=_DELTA, namespace=RegisterNamespace(("bench", "f")))
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in range(2)
    }
    result = explore(
        factories,
        [MutualExclusionProperty()],
        max_ops=12,
        stop_at_first_violation=False,
    )
    return {
        "explorer_states": result.states,
        "explorer_transitions": result.transitions,
        "explorer_max_depth": result.max_depth,
        "explorer_violations": len(result.violations),
    }


# ---------------------------------------------------------------------------
# Net scenarios: the message fabric and the ABD quorum emulation.
# ---------------------------------------------------------------------------


def _abd_prog(reg: Register, rounds: int) -> Program:
    for i in range(rounds):
        yield reg.write(i)
        yield reg.read()


def _net_abd_read_write() -> None:
    """Two clients churn one ABD quorum register (message + RTT counters)."""
    reg = Register("bench_net", 0)
    system = QuorumSystem(clients=2, replicas=3, bound=_DELTA, seed=3)
    result = system.run([_abd_prog(reg, 12) for _ in range(2)])
    assert result.completed


# ---------------------------------------------------------------------------
# Observability scenarios: the structured tracer's cost and neutrality.
# ---------------------------------------------------------------------------


def _obs_trace_overhead() -> Dict[str, int]:
    """The same quorum run untraced, then traced: counters must not drift.

    This is the tracer's zero-perturbation contract made a regression
    gate.  The workload runs twice under *private* probes (the runner's
    ambient probe therefore sees no engine work, exactly like the chaos
    and lint scenarios): the baseline untraced, the second inside a
    :func:`~repro.obs.trace_scope`.  Any counter drift means tracing
    changed scheduling, RNG draws, or message flow — the bug the
    ``tracer is not None`` guards exist to prevent — and the scenario
    fails loudly rather than reporting numbers for a perturbed run.
    ``obs_trace_records`` regression-gates the trace's size (record
    vocabulary changes show up here); ``obs_counter_drift`` must stay 0.
    """
    from repro.obs import Tracer, trace_scope

    from ..sim.instrument import EngineProbe, probe_scope

    def run_once() -> Dict[str, int]:
        probe = EngineProbe()
        reg = Register("bench_obs", 0)
        with probe_scope(probe):
            system = QuorumSystem(clients=2, replicas=3, bound=_DELTA, seed=5)
            result = system.run([_abd_prog(reg, 8) for _ in range(2)])
        assert result.completed
        return probe.snapshot()

    baseline = run_once()
    tracer = Tracer()
    with trace_scope(tracer):
        traced = run_once()
    drift = sum(1 for key in baseline if baseline[key] != traced[key])
    assert drift == 0, f"tracing perturbed the run: {baseline} vs {traced}"
    return {
        "obs_trace_records": len(tracer),
        "obs_counter_drift": drift,
        "obs_probe_events": baseline["events"],
        "obs_messages_sent": baseline["messages_sent"],
    }


# ---------------------------------------------------------------------------
# Chaos scenarios: fault campaigns + counterexample shrinking.
# ---------------------------------------------------------------------------


def _chaos_fischer_campaign() -> Dict[str, int]:
    """Find a Fischer n=3 violation under a 6-window campaign, then shrink.

    The whole pipeline runs on the untimed sandbox, so the probe sees no
    engine work; the returned counters are the pipeline's own
    deterministic sizes — any drift means the scheduler, the monitors or
    the shrinker changed behaviour.
    """
    # Imported here to keep repro.bench importable without the chaos layer.
    from ..chaos import run_sim_campaign, sample_sim_campaign, shrink_sim, sim_target

    target = sim_target("fischer_n3")
    campaign = sample_sim_campaign("demo-a", pids=target.pids, windows=6)
    report = run_sim_campaign(target, campaign, schedules=20)
    outcome = report.failing
    assert outcome is not None
    violation = outcome.find("mutual_exclusion")
    shrunk = shrink_sim(target, campaign, outcome.schedule,
                        monitor="mutual_exclusion")
    return {
        "chaos_schedules_run": report.schedules_run,
        "chaos_schedule_steps": len(outcome.schedule),
        "chaos_violation_step": violation.step,
        "chaos_shrunk_steps": len(shrunk.payload),
        "chaos_shrunk_faults": shrunk.campaign.fault_count,
        "chaos_shrink_executions": shrunk.executions,
    }


def _recover_stabilize_n3() -> Dict[str, int]:
    """Recover campaign on the DG stabilizing mutex: corrupt, crash, converge.

    Three fixed-seed schedules of corruption bursts plus crash/restart
    pairs, each required to end in a stabilization verdict.  All counters
    are deterministic pipeline sizes — drift means the recover scheduler,
    the restart fast-forward, or the stabilization monitor changed
    behaviour.
    """
    # Imported here to keep repro.bench importable without the chaos layer.
    from ..chaos import run_sim_campaign, sample_recover_campaign, sim_target

    target = sim_target("dg_mutex_n3")
    # This seed draws 2 corruption bursts AND 2 crash/restart pairs, so
    # the scenario covers the whole recover machinery, fast-forward
    # included.
    campaign = sample_recover_campaign(
        "bench-recover-4", pids=target.pids,
        corruption_registers=target.corruptible,
    )
    assert campaign.recover_at, "seed must draw at least one restart"
    report = run_sim_campaign(target, campaign, schedules=3)
    assert report.ok and report.converged
    verdict = report.first_verdict
    assert verdict is not None
    return {
        "recover_schedules_run": report.schedules_run,
        "recover_verdicts": report.verdicts,
        "recover_fault_count": campaign.fault_count,
        "recover_restarts": len(campaign.recover_at),
        "recover_first_verdict_step": verdict.step,
    }


# ---------------------------------------------------------------------------
# Parallel scenarios: the seed-sharded worker fabric.
# ---------------------------------------------------------------------------


def _parallel_shard_overhead() -> Dict[str, int]:
    """Shard a Fischer fuzz campaign 4 ways in-process, then merge.

    ``workers=1`` keeps execution in this process (the pickling-free
    fallback path), so the scenario measures exactly the fabric's own
    overhead: shard construction, sub-seed derivation, per-shard
    dispatch, and the deterministic merge.  The counters are the
    pipeline's deterministic sizes — a drift in ``parallel_steps`` or
    ``parallel_merge_items`` on an unchanged tree means sharding changed
    *what* the campaign explores, which is exactly the bug the
    determinism contract forbids.
    """
    # Imported here to keep repro.bench importable without these layers.
    from ..parallel import WorkerPool, make_shards, merge_fuzz_results
    from ..verify.fuzz import _campaign_shard

    schedules = 48
    shards = make_shards(schedules, 4, master_seed=0)
    with WorkerPool(1) as pool:
        results = pool.run(_campaign_shard, shards, ("fischer_n3", 0, False))
    merged = merge_fuzz_results([r.value for r in results])
    return {
        "parallel_shards": len(shards),
        "parallel_shard_schedules": max(s.count for s in shards),
        "parallel_merge_items": len(merged.failures),
        "parallel_schedules_run": merged.schedules_run,
        "parallel_steps": merged.steps_taken,
    }


# ---------------------------------------------------------------------------
# Serve scenarios: the lease-service keeper workload on the sim substrate.
# ---------------------------------------------------------------------------


def _serve_lease_churn() -> Dict[str, int]:
    """The lease service's keeper workload under the deterministic engine.

    Two shards, two contending keepers each: every cycle a keeper locks
    its shard's Algorithm 3 mutex, reserves a fencing-token block
    through the ``hwm`` quorum register, and churns grant/release pairs
    through the shared :class:`~repro.serve.service.LeaseCore`.  The
    workload asserts its own safety (per-shard keeper exclusion, zero
    fencing violations) and returns the lease ledger as counters; the
    probe contributes the quorum RTT / message / linearization counts.
    A drift in either on an unchanged tree means the keeper protocol
    changed behaviour.
    """
    # Imported here to keep repro.bench importable without repro.serve.
    from ..serve.workload import lease_churn_sim

    counters = lease_churn_sim(
        shards=2, keepers_per_shard=2, replicas=3, cycles=2, grants_per_cycle=4
    )
    return {
        "lease_granted": counters["granted"],
        "lease_released": counters["released"],
        "lease_refills": counters["refills"],
        "lease_stale_refills": counters["stale_refills"],
        "lease_tokens_reserved": counters["tokens_reserved"],
        "lease_keeper_cs": counters["keeper_cs"],
        "lease_violations": counters["lease_violations"],
    }


# ---------------------------------------------------------------------------
# Lint scenarios: the flow analyzer over the shipped tree.
# ---------------------------------------------------------------------------


def _lint_flow_tree() -> Dict[str, int]:
    """Build flow fact bases for every module under ``src/repro``.

    Pure static analysis — the probe sees no engine work; the returned
    counters are the analyzer's own deterministic sizes.  A drift in
    ``flow_cfg_nodes``/``flow_facts`` on an unchanged tree means the CFG
    builder or the abstract interpreter changed behaviour.
    """
    import os

    # Imported here to keep repro.bench importable without the lint layer.
    from ..lint import iter_python_files
    from ..lint.context import build_context
    from ..lint.flow import ModuleFlow

    package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    flows: List[ModuleFlow] = []
    for path in sorted(iter_python_files([package_root])):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        flows.append(ModuleFlow(build_context(path, source)))
    return {
        "flow_files": len(flows),
        "flow_cfg_nodes": sum(f.cfg_node_count for f in flows),
        "flow_facts": sum(f.fact_count for f in flows),
    }


# ---------------------------------------------------------------------------
# Experiment scenarios: the paper's drivers, instrumented from outside.
# ---------------------------------------------------------------------------


def _experiment(fn: Callable, *args, **kwargs) -> Callable[[], None]:
    def run() -> None:
        fn(*args, **kwargs)

    return run


_REGISTRY: List[Scenario] = [
    Scenario(
        "engine/pingpong",
        "8 processes x 120 private read/write rounds (event-loop throughput)",
        quick=True,
        fn=_engine_pingpong,
    ),
    Scenario(
        "engine/contention",
        "6 processes x 60 rounds on one register, jitter + random tie-breaks",
        quick=True,
        fn=_engine_contention,
    ),
    Scenario(
        "engine/delays_crashes",
        "4 processes mixing delay/local-work/writes with two crash kinds",
        quick=True,
        fn=_engine_delays_and_crashes,
    ),
    Scenario(
        "explorer/fischer_n2",
        "exhaustive exploration of Fischer n=2 (max_ops=12, all violations)",
        quick=True,
        fn=_explorer_fischer,
    ),
    Scenario(
        "net/abd_read_write",
        "2 clients x 12 write/read rounds on one quorum register (3 replicas)",
        quick=True,
        fn=_net_abd_read_write,
    ),
    Scenario(
        "net/consensus_n4",
        "E1N (reduced): networked consensus n=4, one seed",
        quick=True,
        fn=_experiment(experiments.run_e1_net, ns=(4,), seeds=(0,)),
    ),
    Scenario(
        "obs/trace_overhead",
        "one quorum run untraced vs traced: counters must match exactly",
        quick=True,
        fn=_obs_trace_overhead,
    ),
    Scenario(
        "chaos/fischer_campaign",
        "chaos campaign on Fischer n=3: find a violation, ddmin-shrink it",
        quick=True,
        fn=_chaos_fischer_campaign,
    ),
    Scenario(
        "recover/stabilize_n3",
        "recover campaign on the DG ring: corrupt + crash/restart, 3 verdicts",
        quick=True,
        fn=_recover_stabilize_n3,
    ),
    Scenario(
        "parallel/fuzz_shard_overhead",
        "Fischer fuzz sharded 4 ways in-process: shard + dispatch + merge",
        quick=True,
        fn=_parallel_shard_overhead,
    ),
    Scenario(
        "lint/flow_tree",
        "flow analysis (CFG + facts) over every module in src/repro",
        quick=True,
        fn=_lint_flow_tree,
    ),
    Scenario(
        "serve/lease_churn",
        "2 shards x 2 keepers reserving fencing-token blocks under Algorithm 3",
        quick=True,
        fn=_serve_lease_churn,
    ),
    Scenario(
        "experiments/e4_fastpath",
        "E4: contention-free fast path scenarios",
        quick=True,
        fn=_experiment(experiments.run_e4),
    ),
    Scenario(
        "experiments/e5_scaling",
        "E5 (reduced): open participation scaling, n in (2, 8, 32)",
        quick=True,
        fn=_experiment(experiments.run_e5, ns=(2, 8, 32)),
    ),
    Scenario(
        "experiments/e7_mutex",
        "E7 (reduced): mutex time complexity, n in (2, 4), 2 sessions",
        quick=True,
        fn=_experiment(experiments.run_e7, ns=(2, 4), sessions=2),
    ),
    Scenario(
        "experiments/e9_space",
        "E9 (reduced): register counts vs the lower bound, n=4",
        quick=True,
        fn=_experiment(experiments.run_e9, n=4),
    ),
    # -- full-only: the heavier drivers ------------------------------------
    Scenario(
        "experiments/e1_decision_time",
        "E1 (reduced): decision time without failures, n in (1..8), 2 seeds",
        quick=False,
        fn=_experiment(experiments.run_e1, ns=(1, 2, 4, 8), seeds=(0, 1)),
    ),
    Scenario(
        "experiments/e2_recovery",
        "E2: recovery after timing-failure windows",
        quick=False,
        fn=_experiment(experiments.run_e2),
    ),
    Scenario(
        "experiments/e3_waitfree",
        "E3 (reduced): wait-freedom under crashes, n in (2, 4, 8)",
        quick=False,
        fn=_experiment(experiments.run_e3, ns=(2, 4, 8)),
    ),
    Scenario(
        "experiments/e6_safety",
        "E6 (reduced): exhaustive + 50 randomized adversity seeds",
        quick=False,
        fn=_experiment(experiments.run_e6, random_seeds=50),
    ),
    Scenario(
        "experiments/e8_convergence",
        "E8: convergence after a doorway breach",
        quick=False,
        fn=_experiment(experiments.run_e8),
    ),
    Scenario(
        "experiments/e10_optimistic",
        "E10: optimistic delay-estimate sweep with AIMD tuning",
        quick=False,
        fn=_experiment(experiments.run_e10),
    ),
    Scenario(
        "experiments/e11_unknown_bound",
        "E11: known bound vs doubling estimates",
        quick=False,
        fn=_experiment(experiments.run_e11),
    ),
    Scenario(
        "experiments/e12_derived",
        "E12: derived wait-free objects under failure injection",
        quick=False,
        fn=_experiment(experiments.run_e12),
    ),
    Scenario(
        "experiments/e13_model_checking",
        "E13 (reduced): Fischer vs Algorithm 3 under the model checker",
        quick=False,
        fn=_experiment(experiments.run_e13, max_ops=22),
    ),
]

SCENARIOS: Dict[str, Scenario] = {s.name: s for s in _REGISTRY}


def scenario_names(mode: str = "quick") -> List[str]:
    """Scenario names for a mode (``quick`` is a subset of ``full``)."""
    if mode == "quick":
        return [s.name for s in _REGISTRY if s.quick]
    if mode == "full":
        return [s.name for s in _REGISTRY]
    raise ValueError(f"unknown mode {mode!r}; expected 'quick' or 'full'")


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None
