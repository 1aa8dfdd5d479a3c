"""Executing campaigns: targets, schedule generation, deterministic replay.

**Sim substrate.**  A chaos run drives the asynchronous sandbox
(:class:`~repro.verify.sandbox.Sandbox`) with a *campaign-aware* random
scheduler over the logical clock (number of shared steps executed):

* a :class:`~repro.sim.failures.TimingFailureWindow` active at the
  current clock **stalls** its affected processes — their pending step
  "takes longer than Δ", i.e. it completes only once the scheduler
  leaves the window (unless every runnable process is stalled, in which
  case one of them completes anyway: a timing failure delays steps, it
  cannot stop the whole system);
* crash entries permanently remove a process from scheduling at a
  logical time (``crash_at``) or after a number of its own steps
  (``crash_after``);
* :class:`~repro.chaos.plan.MemCorruption` entries poke the named
  register at their logical instant.

With no faults at all this is the schedule fuzzer (:mod:`repro.verify.fuzz`),
and ``python -m repro.chaos run --windows 0`` runs its campaigns.

The recorded pid sequence plus the campaign's *state-affecting* faults
(crashes, corruptions) fully determine the run, so
:func:`run_sim` doubles as the deterministic replay function: pass the
recorded ``schedule`` back and the identical execution — violations
included — is reproduced.  Replay is *tolerant*: a scheduled pid that is
finished, crashed, or suspended is skipped without advancing the clock,
which is what lets the shrinker evaluate arbitrary subsequences.
(Timing windows bias generation only; under the asynchronous semantics
any recorded schedule is self-justifying, which is why the shrinker can
usually delete every window — see :mod:`repro.chaos.shrink`.)

**Net substrate.**  A chaos run is a seeded client workload over the ABD
quorum emulation under the campaign's fault plan, checked against the
atomic-register linearizability spec — through
:func:`repro.net.fuzz.run_workload`, with the explicit (campaign,
workload, seed) triple the shrinker and the artifacts need.

**Campaigns.**  Both substrates share one campaign loop,
:func:`_campaign_runs`, over a range of global run indices; a substrate
supplies only how one run seed executes (:func:`_sim_run` generates a
schedule, :func:`_net_run` samples and runs a workload).  One dispatch,
:func:`_run_campaign`, runs the loop in-process over the whole range or
slices it over shard workers, and
:func:`repro.parallel.merge.merge_campaign_runs` folds the records into
a :class:`CampaignReport` either way.  :class:`SimOutcome` and
:class:`NetOutcome` answer the loop the same questions: ``ok``,
``steps``, ``verdicts`` and ``find(monitor)``.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    ClassVar,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.tracer import Tracer, active_tracer, trace_scope

from ..parallel import WorkerPool, make_shards, timing_rows
from ..parallel.merge import RunRecord, merge_campaign_runs
from ..sim.failures import TimingFailureWindow
from ..sim.registers import Register
from ..verify.properties import (
    AgreementProperty,
    MutualExclusionProperty,
    SafetyProperty,
    ValidityProperty,
)
from ..verify.sandbox import ProgramFactory, Sandbox, op_kind, op_register
from .monitors import (
    ChaosMonitor,
    ChaosViolation,
    default_monitors,
    stabilization_monitors,
)
from .plan import Campaign

if TYPE_CHECKING:  # the net substrate loads only when a net run asks for it
    from ..net.fuzz import Workload

__all__ = [
    "SimTarget",
    "SIM_TARGETS",
    "sim_target",
    "SimOutcome",
    "seed_key",
    "run_sim",
    "CampaignReport",
    "run_sim_campaign",
    "NetParams",
    "NetOutcome",
    "sample_net_workload",
    "run_net",
    "run_net_campaign",
]

DEFAULT_MAX_STEPS = 400

# Post-fault steps a recover target gets to become legal again before any
# further safety violation is a real failure.  Deliberately much tighter
# than the convergence budget (which bounds *termination*): Dijkstra's
# ring drains corruption in O(n·(n+K)) moves, so 150 logical steps is
# generous for the n=3 targets while keeping the window's close well
# inside the default step budget — a window the run never outlives would
# make "no violations after the window" vacuous.
STABILIZATION_WINDOW = 150


# ---------------------------------------------------------------------------
# Sim targets: named program-under-test configurations.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimTarget:
    """A named sandbox configuration a campaign can be thrown at.

    ``build`` returns fresh ``(factories, properties, registers)`` per
    run — generators cannot be rewound, and ``registers`` (name ->
    handle) is how :class:`~repro.chaos.plan.MemCorruption` entries are
    resolved.
    """

    name: str
    description: str
    build: Callable[
        [], Tuple[Dict[int, ProgramFactory], List[SafetyProperty], Dict[str, Register]]
    ]
    max_ops: int
    pids: Tuple[int, ...]
    expect_violation: bool  # documentation: does a violation exist at all?
    # Stabilizing/recoverable targets: judged with stabilization monitors
    # (transient violations tolerated inside the window, convergence
    # verdicted) instead of the default set, and the natural prey of
    # recover campaigns (crash+restart pairs, corruption bursts).
    recover: bool = False
    # Register names a recover campaign may corrupt.  Sampling guidance
    # only — resolution still goes through the ``build()`` registers
    # table, which stays the single source of truth for validation.
    corruptible: Tuple[str, ...] = ()


def _build_fischer_n3():
    from ..algorithms import FischerLock, mutex_session

    lock = FischerLock(delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=2, cs_duration=1.0))
        for pid in range(3)
    }
    return factories, [MutualExclusionProperty()], {"x": lock.x}


def _build_alg3_n4():
    from ..algorithms import mutex_session
    from ..core.mutex import default_time_resilient_mutex

    lock = default_time_resilient_mutex(4, delta=1.0)
    factories = {
        pid: (lambda p: mutex_session(lock, p, sessions=1, cs_duration=1.0))
        for pid in range(4)
    }
    return factories, [MutualExclusionProperty()], {}


def _build_consensus_n4():
    from ..core.consensus import TimeResilientConsensus, labeled_decision

    consensus = TimeResilientConsensus(delta=1.0, max_rounds=3)
    inputs = {pid: pid % 2 for pid in range(4)}
    factories = {
        pid: (lambda p: labeled_decision(consensus.propose(p, inputs[p])))
        for pid in inputs
    }
    return factories, [AgreementProperty(), ValidityProperty(inputs)], {}


def _build_dg_mutex_n3():
    from ..algorithms import stabilizing_ring

    lock, factory = stabilizing_ring(3, sessions=1, cs_duration=1.0)
    factories = {pid: factory for pid in range(3)}
    registers = {f"S{i}": lock.cells[i] for i in range(3)}
    return factories, [MutualExclusionProperty()], registers


def _build_golab_consensus_n3():
    from ..algorithms import RecoverableConsensus

    consensus = RecoverableConsensus()
    inputs = {pid: pid + 1 for pid in range(3)}  # None encodes ⊥: stay nonzero
    factories = {
        pid: (lambda p: consensus.propose(p, inputs[p])) for pid in inputs
    }
    # No corruptible registers: scrambling the persistent decision record
    # forges a decision, which is outside the crash-recovery contract
    # (see repro.algorithms.recoverable) — so none are declared.
    return factories, [AgreementProperty(), ValidityProperty(inputs)], {}


SIM_TARGETS: Dict[str, SimTarget] = {
    t.name: t
    for t in (
        SimTarget(
            "fischer_n3",
            "Fischer's lock, 3 processes, 2 sessions (violation exists)",
            _build_fischer_n3,
            max_ops=40,
            pids=(0, 1, 2),
            expect_violation=True,
        ),
        SimTarget(
            "alg3_n4",
            "Algorithm 3 mutex, 4 processes (must stay safe)",
            _build_alg3_n4,
            max_ops=120,
            pids=(0, 1, 2, 3),
            expect_violation=False,
        ),
        SimTarget(
            "consensus_n4",
            "Algorithm 1 consensus, 4 processes (must stay safe)",
            _build_consensus_n4,
            max_ops=80,
            pids=(0, 1, 2, 3),
            expect_violation=False,
        ),
        SimTarget(
            "dg_mutex_n3",
            "DG self-stabilizing token mutex, 3 processes (must converge)",
            _build_dg_mutex_n3,
            max_ops=300,
            pids=(0, 1, 2),
            expect_violation=False,
            recover=True,
            corruptible=("S0", "S1", "S2"),
        ),
        SimTarget(
            "golab_consensus_n3",
            "Golab recoverable consensus, 3 processes (survives restarts)",
            _build_golab_consensus_n3,
            max_ops=60,
            pids=(0, 1, 2),
            expect_violation=False,
            recover=True,
        ),
    )
}


def sim_target(name: str) -> SimTarget:
    try:
        return SIM_TARGETS[name]
    except KeyError:
        raise KeyError(
            f"unknown sim target {name!r}; known: {', '.join(sorted(SIM_TARGETS))}"
        ) from None


# ---------------------------------------------------------------------------
# Sim execution: one function for generation AND replay.
# ---------------------------------------------------------------------------


@dataclass
class SimOutcome:
    """One sim chaos execution, generated or replayed."""

    campaign: Campaign
    schedule: Tuple[int, ...]
    violations: List[ChaosViolation] = field(default_factory=list)
    steps: int = 0
    done: bool = False  # every process ran to completion
    run_seed: Optional[str] = None
    # Positive evidence from monitors that measure rather than reject —
    # e.g. the StabilizationMonitor's convergence verdict.  Only produced
    # on runs that end without a violation stopping them.
    verdicts: List[ChaosViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def find(self, monitor: str) -> Optional[ChaosViolation]:
        """The first violation from the named monitor, if any."""
        for violation in self.violations:
            if violation.monitor == monitor:
                return violation
        return None

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"SimOutcome({status}, steps={self.steps}, "
            f"schedule_len={len(self.schedule)}, done={self.done})"
        )


def seed_key(campaign: Campaign, run_seed: Optional[str]) -> str:
    """What a run's RNG is seeded with; a net run's other streams add a suffix."""
    return f"chaos:{campaign.seed}:{run_seed}"


def _stalls(
    windows: Sequence[TimingFailureWindow], everyone: FrozenSet[int], clock: int
) -> Tuple[FrozenSet[int], float]:
    """The pids the windows stall at the integer ``clock``, and the first
    clock after it at which that set can change.

    On integers ``start <= clock < end`` flips only at the window edges
    ``ceil(start)`` and ``ceil(end)``, so the set holds until the next
    edge past ``clock`` (infinity when none is).  A ``pids=None`` window
    stalls ``everyone``.
    """
    stalled: FrozenSet[int] = frozenset()
    until = math.inf
    for window in windows:
        for edge in (window.start, window.end):
            if clock < edge < until:  # so never an infinite edge
                until = math.ceil(edge)
        if window.start <= clock < window.end:
            stalled |= everyone if window.pids is None else window.pids
    return stalled, until


def run_sim(
    target: SimTarget,
    campaign: Campaign,
    schedule: Optional[Sequence[int]] = None,
    run_seed: Optional[str] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    monitors: Optional[List[ChaosMonitor]] = None,
    stop_monitor: Optional[str] = None,
) -> SimOutcome:
    """Execute one sim chaos run.

    With ``schedule=None`` the campaign-aware scheduler (seeded with
    :func:`seed_key`) generates one; otherwise the given
    schedule is replayed deterministically.  ``stop_monitor`` stops the
    run as soon as that monitor fires (the shrinker's fast path);
    otherwise the run continues to its natural end collecting every
    monitor's first violation.
    """
    if campaign.substrate != "sim":
        raise ValueError(f"expected a sim campaign, got {campaign.substrate!r}")
    factories, properties, registers = target.build()
    # Validate the corruption plan eagerly: a typo'd register name must
    # fail loudly up front, not silently no-op because the clock never
    # reached the corruption instant (or worse, only explode mid-run).
    for corruption in campaign.corruptions:
        if corruption.register not in registers:
            raise ValueError(
                f"campaign corrupts unknown register {corruption.register!r}; "
                f"target {target.name!r} declares {sorted(registers)}"
            )
    if monitors is None:
        # Busy-wait step complexity is unbounded under adversarial
        # interleavings, so the "still churning" budget scales with the
        # target's total op budget rather than using a fixed constant.
        budget = max(200, 2 * target.max_ops * len(target.pids))
        if target.recover:
            monitors = stabilization_monitors(
                properties, campaign,
                convergence_budget=budget, window=STABILIZATION_WINDOW,
            )
        else:
            monitors = default_monitors(
                properties, campaign, convergence_budget=budget
            )
    for monitor in monitors:
        monitor.reset()
    sandbox = Sandbox(factories, max_ops=target.max_ops)

    # Ambient tracing (repro.obs): logical-clock substrate — each shared
    # step spans [clock, clock+1].  Pure observation; scheduling, RNG
    # draws and monitor decisions are identical with or without it.
    tracer = active_tracer()
    if tracer is not None:
        tracer.run_marker(
            "steps",
            target=target.name,
            seed=campaign.seed,
            run_seed=run_seed,
            pids=list(target.pids),
        )
        for window in campaign.windows:
            tracer.window(
                float(window.start),
                float(window.end),
                None if window.pids is None else sorted(window.pids),
                "timing",
            )

    crash_at = dict(campaign.crash_at)
    crash_after = dict(campaign.crash_after)
    recover_at = dict(campaign.recover_at)
    corruptions = sorted(campaign.corruptions, key=lambda c: c.at)
    next_corruption = 0
    windows = campaign.windows
    # The pids the windows stall at the current clock, recomputed only when
    # the clock reaches the next window edge, ``stall_until`` (never, with
    # no windows: the set stays empty and the filter below is skipped).
    everyone = frozenset(factories)
    stalled, stall_until = _stalls(windows, everyone, 0)
    generating = schedule is None
    # The scheduler's draw is random.Random.choice, inlined: k bits, drawn
    # again while they name no runnable pid — the same stream of
    # getrandbits calls, so the same schedules (TestInlinedDraw pins it).
    getrandbits = (
        random.Random(seed_key(campaign, run_seed)).getrandbits if generating else None
    )

    recorded: List[int] = []
    violations: List[ChaosViolation] = []
    clock = 0
    halted: set = set()
    inf = math.inf
    # What settle() leaves behind: the halted set as monitors see it, the
    # next instant a corruption, restart or crash_at falls due, and
    # whether a crash_after can still fire.  Until one comes due, settle()
    # is a no-op (unless a restart waits on an idle system): it is skipped.
    frozen_halted: FrozenSet[int] = frozenset()
    due = min([c.at for c in corruptions] + [*crash_at.values(), *recover_at.values()],
              default=inf)
    crash_after_pending = bool(crash_after)

    def settle() -> None:
        # Fault bookkeeping before scheduling: corruptions and restarts
        # due at the current instant, then fresh crashes.  When every
        # process is done or crashed but a restart is still scheduled,
        # idle time passes — jump the clock to the next restart instead
        # of abandoning the run with a recovery forever pending.  The
        # jump is a function of the reached state, so generation and
        # replay fast-forward identically.
        nonlocal clock, next_corruption, frozen_halted, due, crash_after_pending
        while True:
            while next_corruption < len(corruptions) and corruptions[next_corruption].at <= clock:
                corruption = corruptions[next_corruption]
                sandbox.memory.poke(registers[corruption.register], corruption.value)
                if tracer is not None:
                    tracer.fault(corruption.register, float(clock))
                next_corruption += 1
            # Restarts run before crashes, so a restart instant at-or-before
            # the crash instant is a no-op (entry consumed, pid not yet
            # halted) — as is an entry whose pid never crashed or finished
            # first.  Orphaned entries are legal: the shrinker relies on it.
            for pid, when in list(recover_at.items()):
                if clock < when:
                    continue
                del recover_at[pid]
                if pid not in halted:
                    continue
                halted.discard(pid)
                crash_at.pop(pid, None)
                crash_after.pop(pid, None)
                sandbox.restart(pid, factories[pid])
                if tracer is not None:
                    tracer.restart(pid, float(clock))
            for pid in sandbox.enabled():
                if pid in halted:
                    continue
                if clock >= crash_at.get(pid, inf) or sandbox.op_count(pid) >= crash_after.get(pid, inf):
                    halted.add(pid)
                    if tracer is not None:
                        tracer.crash(pid, float(clock))
            if any(p not in halted for p in sandbox.enabled()):
                break
            pending = [
                when for pid, when in recover_at.items() if pid in halted
            ]
            if not pending:
                break
            # Everything due was consumed above, so the earliest pending
            # restart is strictly in the future: ceil advances.
            clock = max(clock, math.ceil(min(pending)))
        frozen_halted = frozenset(halted)
        # A crash_at still at or before the clock belongs to a pid that is
        # halted, finished or at its op bound: it cannot fire again.
        upcoming = [c.at for c in corruptions[next_corruption:next_corruption + 1]]
        upcoming += [when for when in crash_at.values() if when > clock]
        due = min(upcoming + list(recover_at.values()), default=inf)
        crash_after_pending = any(pid not in halted for pid in crash_after)

    stopped = False
    step = sandbox.step
    record = recorded.append
    for pid in itertools.repeat(None) if generating else schedule:
        if generating and clock >= max_steps:
            break
        # The sandbox keeps its runnable list current (finished, at the op
        # bound, restarted) and this loop only reads it, before the step
        # that may change it; the crashed pids are this loop's to drop.
        runnable = sandbox._runnable
        if halted:
            runnable = [p for p in runnable if p not in halted]
        if clock >= due or crash_after_pending or (recover_at and not runnable):
            settle()
            runnable = [p for p in sandbox._runnable if p not in halted]
        if pid is None:
            if not runnable:
                break
            if clock >= stall_until:
                stalled, stall_until = _stalls(windows, everyone, clock)
            if stalled:
                free = [p for p in runnable if p not in stalled]
                runnable = free or runnable
            n = len(runnable)
            k = n.bit_length()
            r = getrandbits(k)
            while r >= n:
                r = getrandbits(k)
            pid = runnable[r]
        elif pid not in runnable:
            continue  # tolerant replay: skip unrunnable slots
        pending = sandbox.pending_op(pid) if tracer is not None else None
        step(pid)
        record(pid)
        clock += 1
        if tracer is not None:
            tracer.op(
                op_kind(pending), pid, op_register(pending),
                float(clock - 1), float(clock),
            )
        for monitor in monitors:
            message = monitor.on_step(sandbox, clock, frozen_halted)
            if message is not None:
                violations.append(ChaosViolation(monitor.name, message, clock))
                if tracer is not None:
                    tracer.violation(monitor.name, float(clock))
                if monitor.name == stop_monitor:
                    stopped = True
                    break
        if stopped:
            break

    done = (not stopped) and all(sandbox.done(pid) for pid in factories)
    verdicts: List[ChaosViolation] = []
    if not stopped:
        for monitor in monitors:
            message = monitor.finalize(sandbox, clock, frozen_halted)
            if message is not None:
                violations.append(ChaosViolation(monitor.name, message, clock))
                if tracer is not None:
                    tracer.violation(monitor.name, float(clock))
        verdicts = [
            monitor.verdict
            for monitor in monitors
            if getattr(monitor, "verdict", None) is not None
        ]
    if tracer is not None:
        for pid in sorted(factories):
            if sandbox.done(pid):
                tracer.done(pid, float(clock))
    return SimOutcome(
        campaign=campaign,
        schedule=tuple(recorded),
        violations=violations,
        steps=clock,
        done=done,
        run_seed=run_seed,
        verdicts=verdicts,
    )


@dataclass
class CampaignReport:
    """Aggregate of many runs of one campaign."""

    campaign: Campaign
    schedules_run: int = 0
    total_steps: int = 0
    failing: Optional[Any] = None  # first failing SimOutcome / NetOutcome
    shard_timing: Optional[List[Dict[str, Any]]] = None  # telemetry only
    # Recover targets: how many runs produced a stabilization verdict,
    # and the first such verdict (the evidence --expect recover checks).
    verdicts: int = 0
    first_verdict: Optional[ChaosViolation] = None
    # (global run index, repro.obs records) per traced run, in index
    # order, so concatenating is byte-identical across worker counts.
    trace_chunks: List[Tuple[int, List[Dict[str, Any]]]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return self.failing is None

    @property
    def converged(self) -> bool:
        """Every run finished clean with a stabilization verdict."""
        return self.ok and self.verdicts == self.schedules_run

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"failing at run {self.failing.run_seed!r}"
        return (
            f"CampaignReport({status}, schedules={self.schedules_run}, "
            f"steps={self.total_steps})"
        )


def _campaign_runs(
    run: Callable[[str], Any], indices: Sequence[int], trace: bool
) -> List[RunRecord]:
    """The campaign loop, either substrate: runs up to the first failure.

    ``run(run_seed)`` executes one run (:func:`_sim_run`, :func:`_net_run`)
    and returns its outcome.  Each run is seeded by its global index, so
    a slice of the index range is exactly that slice of the whole
    campaign; runs past the globally-first failure are discarded by the
    merge, so stopping at the slice's own first failure only saves work.
    ``trace`` records each run under a private tracer (otherwise an
    ambient one, if any, sees the runs unchunked).
    """
    tracer = Tracer() if trace else active_tracer()
    records: List[RunRecord] = []
    for index in indices:
        with trace_scope(tracer):
            outcome = run(str(index))
        records.append(
            RunRecord(
                index=index,
                steps=outcome.steps,
                outcome=None if outcome.ok else outcome,
                verdict=outcome.verdicts[0] if outcome.verdicts else None,
                trace=tracer.take() if trace else None,
            )
        )
        if not outcome.ok:
            break
    return records


def _sim_run(
    target: SimTarget, campaign: Campaign, max_steps: int
) -> Callable[[str], SimOutcome]:
    """One generated sim run per run seed."""
    return lambda run_seed: run_sim(
        target, campaign, run_seed=run_seed, max_steps=max_steps
    )


def _sim_shard(shard, payload) -> List[RunRecord]:
    """Shard worker (module-level for the spawn pool).

    The target travels by *name* — its build closures cannot cross a
    process boundary — while the frozen campaign pickles as-is.
    """
    target_name, campaign, max_steps, trace = payload
    return _campaign_runs(
        _sim_run(sim_target(target_name), campaign, max_steps),
        range(shard.start, shard.stop), trace,
    )


def _run_campaign(
    campaign: Campaign,
    schedules: int,
    run: Callable[[str], Any],
    trace: bool,
    worker,
    payload,
    workers: int,
    pool,
) -> CampaignReport:
    """Both substrates' campaign dispatch.

    The sequential campaign is :func:`_campaign_runs` over the whole
    range in-process; ``workers > 1`` or a ``pool`` maps ``worker`` (the
    same loop over one shard's range, rebuilt from the picklable
    ``payload``) over shards.  One merge folds either, so only
    ``shard_timing`` depends on the worker count.
    """
    if workers == 1 and pool is None:
        return merge_campaign_runs(
            campaign, [_campaign_runs(run, range(schedules), trace)]
        )
    own_pool = pool is None
    if own_pool:
        pool = WorkerPool(workers)
    shards = make_shards(schedules, pool.workers, master_seed=str(campaign.seed))
    try:
        results = pool.run(worker, shards, payload)
    finally:
        if own_pool:
            pool.close()
    report = merge_campaign_runs(campaign, [r.value for r in results])
    report.shard_timing = timing_rows(results, campaign=str(campaign.seed))
    return report


def run_sim_campaign(
    target: SimTarget,
    campaign: Campaign,
    schedules: int = 20,
    max_steps: int = DEFAULT_MAX_STEPS,
    workers: int = 1,
    pool=None,
    trace: bool = False,
) -> CampaignReport:
    """Run ``schedules`` generated executions; stop at the first failure.

    ``workers > 1`` shards the run-index range over processes (reusing
    ``pool``, a :class:`repro.parallel.WorkerPool`, when given).  The
    sequential campaign is the shard body over the whole range, folded
    by the same merge, so the report — failing outcome,
    ``schedules_run``, ``total_steps``, verdict counts, trace chunks —
    is identical for every worker count; only ``shard_timing`` differs.
    ``trace=True`` records each run under a private ``repro.obs`` tracer
    and collects the chunks on the report in run-index order.
    """
    return _run_campaign(
        campaign, schedules, _sim_run(target, campaign, max_steps), trace,
        _sim_shard, (target.name, campaign, max_steps, trace), workers, pool,
    )


# ---------------------------------------------------------------------------
# Net substrate: explicit workloads over the quorum emulation.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NetParams:
    """The fixed shape of a net chaos run (serialized into artifacts)."""

    clients: int = 2
    replicas: int = 3
    registers: int = 2
    ops_per_client: int = 3
    bound: float = 1.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "clients": self.clients,
            "replicas": self.replicas,
            "registers": self.registers,
            "ops_per_client": self.ops_per_client,
            "bound": self.bound,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "NetParams":
        return cls(
            clients=int(data["clients"]),
            replicas=int(data["replicas"]),
            registers=int(data["registers"]),
            ops_per_client=int(data["ops_per_client"]),
            bound=float(data["bound"]),
        )


@dataclass
class NetOutcome:
    """One net chaos execution (linearizability verdict per register)."""

    campaign: Campaign
    workload: Workload
    violations: List[ChaosViolation] = field(default_factory=list)
    operations: int = 0
    pending: int = 0
    status: str = ""
    run_seed: Optional[str] = None
    # Transport telemetry (NetStats.snapshot()); serialized into repro
    # artifacts so a counterexample ships with its wire-level counters.
    net_stats: Optional[Dict[str, int]] = None
    # The linearizability check only rejects: a net run has no verdicts.
    verdicts: ClassVar[Tuple[ChaosViolation, ...]] = ()

    # The campaign loop and the artifact replay ask both outcomes alike.
    ok = SimOutcome.ok
    find = SimOutcome.find

    @property
    def steps(self) -> int:
        """What a campaign counts per net run: completed operations."""
        return self.operations

    def __repr__(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"NetOutcome({status}, operations={self.operations}, "
            f"pending={self.pending}, status={self.status})"
        )


def sample_net_workload(
    campaign: Campaign, run_seed: str, params: NetParams
) -> Workload:
    """Draw the per-client read/write choices for one run."""
    from ..net.fuzz import sample_workload

    return sample_workload(
        random.Random(seed_key(campaign, run_seed) + ":workload"),
        params.clients, params.ops_per_client, params.registers,
    )


def run_net(
    campaign: Campaign,
    workload: Workload,
    params: NetParams = NetParams(),
    run_seed: Optional[str] = None,
) -> NetOutcome:
    """Execute one net chaos run and check linearizability per register.

    Deterministic in ``(campaign, workload, run_seed)``: the transport's
    RNG is seeded from the campaign seed and ``run_seed``, the fault
    environment comes from the campaign's adapters, and the workload is
    explicit data — exactly the triple the shrinker minimizes.
    """
    if campaign.substrate != "net":
        raise ValueError(f"expected a net campaign, got {campaign.substrate!r}")
    if len(workload) != params.clients:
        raise ValueError(
            f"workload has {len(workload)} clients, params say {params.clients}"
        )
    tracer = active_tracer()
    if tracer is not None:
        tracer.run_marker(
            "net",
            seed=campaign.seed,
            run_seed=run_seed,
            pids=list(range(params.clients + params.replicas)),
        )
    from ..net.fuzz import run_workload

    crashed = campaign.crash_at or campaign.crash_after
    run = run_workload(
        workload, params.registers, params.replicas, params.bound,
        seed_key(campaign, run_seed) + ":transport",
        campaign.net_plan(), campaign.crash_schedule() if crashed else None,
    )
    outcome = NetOutcome(
        campaign=campaign,
        workload=workload,
        operations=run.operations,
        pending=run.pending,
        status=run.status,
        run_seed=run_seed,
        net_stats=run.net_stats,
    )
    for name, completed, pending in run.failing:
        outcome.violations.append(
            ChaosViolation(
                monitor="linearizability",
                message=(
                    f"register {name!r}: {completed} completed "
                    f"+ {pending} pending operations admit no legal "
                    f"sequential order"
                ),
                step=completed,
            )
        )
        if tracer is not None:
            tracer.violation("linearizability", run.end_time)
    return outcome


def _net_run(campaign: Campaign, params: NetParams) -> Callable[[str], NetOutcome]:
    """One sampled net run per run seed: the workload is drawn from the
    campaign seed and the run seed, then executed."""

    def run(run_seed: str) -> NetOutcome:
        workload = sample_net_workload(campaign, run_seed, params)
        return run_net(campaign, workload, params=params, run_seed=run_seed)

    return run


def _net_shard(shard, payload) -> List[RunRecord]:
    """Shard worker (module-level for the spawn pool)."""
    campaign, params, trace = payload
    return _campaign_runs(
        _net_run(campaign, params), range(shard.start, shard.stop), trace
    )


def run_net_campaign(
    campaign: Campaign,
    schedules: int = 10,
    params: NetParams = NetParams(),
    workers: int = 1,
    pool=None,
    trace: bool = False,
) -> CampaignReport:
    """Run ``schedules`` sampled workloads; stop at the first failure.

    Sharding and ``trace`` semantics are those of
    :func:`run_sim_campaign`: worker count never changes the report,
    only ``shard_timing``.
    """
    return _run_campaign(
        campaign, schedules, _net_run(campaign, params), trace,
        _net_shard, (campaign, params, trace), workers, pool,
    )
