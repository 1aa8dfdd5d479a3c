"""Fuzzing the quorum register emulation against the atomicity spec.

Each schedule builds a fresh :class:`~repro.net.quorum.QuorumSystem`,
runs a few clients through a random read/write workload under a rotating
fault plan, extracts the per-register operation history from the trace,
and asks :func:`repro.spec.check_linearizability` whether the emulation
really behaved like atomic registers (:class:`RegisterModel`).

Fault-plan rotation (one plan kind per schedule, round-robin):

* ``clean`` — fault-free network (the baseline atomicity check);
* ``crash-minority`` — a minority of replicas crash mid-run: the ABD
  majority argument says clients must not notice;
* ``delay-spike`` — deliveries exceed the bound for a window (the
  networked timing failure);
* ``partition`` — a minority of replicas is isolated for a window, then
  the partition heals;
* ``loss`` — messages vanish with some probability for a window (the
  retransmitting phases must still converge);
* ``client-crash`` — a *client* crashes mid-operation, exercising the
  pending-operation side of the checker (a crashed write may or may not
  have taken effect; both must be explainable).

Every random draw derives from ``Random(f"{seed}:{index}")``, so a
(seed, index) pair replays exactly — the same convention as
:mod:`repro.verify.fuzz`, which exposes this module via
``python -m repro.verify.fuzz --substrate net``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import Tracer, active_tracer, trace_scope

from ..sim import ops
from ..sim.failures import CrashSchedule
from ..sim.process import Program
from ..sim.registers import Register
from ..spec.histories import INVOKE, RESPOND, history_from_trace, pending_from_trace
from ..spec.linearizability import RegisterModel, check_linearizability
from .faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from .quorum import QuorumSystem

__all__ = [
    "PLAN_KINDS",
    "ScheduleOutcome",
    "NetFuzzReport",
    "Workload",
    "WorkloadRun",
    "sample_workload",
    "run_workload",
    "fuzz_quorum_register",
]

PLAN_KINDS: Tuple[str, ...] = (
    "clean",
    "crash-minority",
    "delay-spike",
    "partition",
    "loss",
    "client-crash",
)


@dataclass(frozen=True)
class ScheduleOutcome:
    """One fuzzed schedule's verdict."""

    index: int
    plan: str
    linearizable: bool
    operations: int  # completed object operations across all registers
    pending: int  # unanswered invocations (crashed or stalled clients)
    status: str  # engine RunStatus value


@dataclass
class NetFuzzReport:
    """Aggregate of one fuzzing campaign over the quorum register."""

    seed: Any
    schedules: int
    outcomes: List[ScheduleOutcome] = field(default_factory=list)
    # Per-schedule trace chunks, ``(global index, records)`` — populated
    # only under ``fuzz_quorum_register(..., trace=True)`` and merged in
    # global-index order by :func:`repro.parallel.merge.merge_net_reports`.
    trace_chunks: List[Tuple[int, List[Any]]] = field(default_factory=list)

    @property
    def violations(self) -> List[ScheduleOutcome]:
        return [o for o in self.outcomes if not o.linearizable]

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_plan(self) -> List[Tuple[str, int, int]]:
        """(plan kind, schedules run, violations) in rotation order."""
        rows = []
        for kind in PLAN_KINDS:
            ran = [o for o in self.outcomes if o.plan == kind]
            bad = [o for o in ran if not o.linearizable]
            rows.append((kind, len(ran), len(bad)))
        return rows

    def summary(self) -> str:
        lines = [
            f"net fuzz: {self.schedules} schedules, seed={self.seed!r}, "
            f"{len(self.violations)} linearizability violations"
        ]
        for kind, ran, bad in self.by_plan():
            verdict = "ok" if bad == 0 else f"{bad} VIOLATIONS"
            lines.append(f"  {kind:<15} {ran:>5} schedules  {verdict}")
        return "\n".join(lines)


def _make_plan(
    kind: str, rng: random.Random, clients: int, replicas: int, bound: float
) -> Tuple[NetFaultPlan, Optional[CrashSchedule]]:
    """The fault environment for one schedule of the given plan kind."""
    replica_pids = list(range(clients, clients + replicas))
    if kind == "clean":
        return NetFaultPlan.none(), None
    if kind == "crash-minority":
        minority = replicas // 2
        victims = rng.sample(replica_pids, minority) if minority else []
        times = {pid: rng.uniform(0.0, 10.0 * bound) for pid in victims}
        return NetFaultPlan.none(), CrashSchedule(at_time=times)
    if kind == "delay-spike":
        start = rng.uniform(0.0, 5.0 * bound)
        spike = DelaySpike(
            start=start,
            end=start + rng.uniform(2.0, 6.0) * bound,
            stretch=rng.uniform(2.0, 5.0),
            extra=rng.uniform(0.0, 2.0 * bound),
        )
        return NetFaultPlan(spikes=(spike,)), None
    if kind == "partition":
        start = rng.uniform(0.0, 5.0 * bound)
        isolated = tuple(rng.sample(replica_pids, max(1, replicas // 2)))
        rest = tuple(
            pid for pid in range(clients + replicas) if pid not in isolated
        )
        partition = Partition(
            start=start,
            end=start + rng.uniform(2.0, 8.0) * bound,
            groups=(rest, isolated),
        )
        return NetFaultPlan(partitions=(partition,)), None
    if kind == "loss":
        start = rng.uniform(0.0, 5.0 * bound)
        loss = MessageLoss(
            rate=rng.uniform(0.05, 0.3),
            start=start,
            end=start + rng.uniform(2.0, 8.0) * bound,
        )
        return NetFaultPlan(losses=(loss,)), None
    if kind == "client-crash":
        victim = rng.randrange(clients)
        crash_at = rng.uniform(bound, 8.0 * bound)
        return NetFaultPlan.none(), CrashSchedule(at_time={victim: crash_at})
    raise ValueError(f"unknown plan kind {kind!r}")


# A workload is one ops tuple per client; each op is ("write", reg, value)
# or ("read", reg, None).
Workload = Tuple[Tuple[Tuple[str, int, Any], ...], ...]


def sample_workload(
    rng: random.Random, clients: int, ops_per_client: int, registers: int
) -> Workload:
    """Draw each client's read/write choices (written values are unique)."""
    value = 1
    workload: List[Tuple[Tuple[str, int, Any], ...]] = []
    for _client in range(clients):
        choices: List[Tuple[str, int, Any]] = []
        for _ in range(ops_per_client):
            if rng.random() < 0.5:
                choices.append(("write", rng.randrange(registers), value))
                value += 1
            else:
                choices.append(("read", rng.randrange(registers), None))
        workload.append(tuple(choices))
    return tuple(workload)


def _client_workload(
    choices: Sequence[Tuple[str, int, Any]], registers: Sequence[Register]
) -> Program:
    """A register-level program executing pre-drawn reads and writes.

    Every operation is bracketed with the INVOKE/RESPOND labels the
    history extractor keys on; the quorum facade passes labels through,
    so invocation/response times bracket the full emulated operation.
    """
    for op_kind, reg_index, value in choices:
        register = registers[reg_index]
        if op_kind == "write":
            yield ops.label(INVOKE, (register.name, "write", (value,)))
            yield register.write(value)
            yield ops.label(RESPOND, (register.name, None))
        else:
            yield ops.label(INVOKE, (register.name, "read", ()))
            result = yield register.read()
            yield ops.label(RESPOND, (register.name, result))


@dataclass(frozen=True)
class WorkloadRun:
    """One workload's execution over the ABD emulation, judged."""

    status: str  # engine RunStatus value
    end_time: float
    operations: int  # completed object operations across all registers
    pending: int  # unanswered invocations (crashed or stalled clients)
    net_stats: Dict[str, int]  # NetStats.snapshot() of the run's transport
    # (register name, completed, pending) per register whose history
    # admits no legal sequential order.
    failing: Tuple[Tuple[Any, int, int], ...]


def run_workload(
    workload: Workload,
    registers: int,
    replicas: int,
    bound: float,
    seed: str,
    faults: NetFaultPlan,
    crashes: Optional[CrashSchedule],
) -> WorkloadRun:
    """Run ``workload`` on a fresh quorum system; judge every register.

    The one harness behind :func:`fuzz_quorum_register` and
    :func:`repro.chaos.runner.run_net`: deterministic in its arguments
    (``seed`` seeds the transport).  The plan's fault windows go to the
    ambient tracer, which the engine built inside ``system.run`` (and
    through it the transport) binds too; run markers and violation
    records stay with the callers, whose trace formats differ.
    """
    tracer = active_tracer()
    if tracer is not None:
        for fault, windows in (("loss", faults.losses), ("spike", faults.spikes)):
            for window in windows:
                tracer.window(
                    float(window.start), float(window.end),
                    None if window.pids is None else sorted(window.pids), fault,
                )
        for partition in faults.partitions:
            tracer.window(
                float(partition.start), float(partition.end),
                sorted(p for group in partition.groups for p in group),
                "partition",
            )
    regs = [Register(f"r{i}") for i in range(registers)]
    system = QuorumSystem(
        len(workload),
        replicas=replicas,
        bound=bound,
        seed=seed,
        faults=faults,
        crashes=crashes,
        max_time=200.0 * bound,
    )
    result = system.run([_client_workload(choices, regs) for choices in workload])
    operations = 0
    pending_count = 0
    failing = []
    for register in regs:
        history = history_from_trace(result.trace, obj=register.name)
        pending = pending_from_trace(result.trace, obj=register.name)
        check = check_linearizability(
            history, RegisterModel(initial=register.initial), pending=pending
        )
        operations += len(history)
        pending_count += len(pending)
        if not check.ok:
            failing.append((register.name, len(history), len(pending)))
    return WorkloadRun(
        status=result.status.value,
        end_time=result.end_time,
        operations=operations,
        pending=pending_count,
        net_stats=system.transport.stats.snapshot(),
        failing=tuple(failing),
    )


def fuzz_quorum_register(
    schedules: int = 200,
    seed: Any = 0,
    clients: int = 2,
    replicas: int = 3,
    ops_per_client: int = 3,
    registers: int = 2,
    bound: float = 1.0,
    progress: Optional[Callable[[ScheduleOutcome], None]] = None,
    first_index: int = 0,
    trace: bool = False,
) -> NetFuzzReport:
    """Run ``schedules`` fuzzed net schedules; report linearizability.

    Raises nothing on violations — inspect :attr:`NetFuzzReport.ok` /
    :attr:`~NetFuzzReport.violations` (the CLI and tests turn those into
    exit codes and assertions).

    ``first_index`` offsets the global schedule index: every draw (RNG
    seed, plan-kind rotation, transport seed) derives from
    ``first_index + local``, so a shard covering ``[first_index,
    first_index + schedules)`` reproduces exactly that slice of the
    sequential campaign (see :mod:`repro.parallel`).

    ``trace=True`` records every schedule as a ``repro.obs`` trace chunk
    in :attr:`NetFuzzReport.trace_chunks` (net substrate: engine op
    spans, message send/deliver/drop lifecycles, quorum phases, fault
    windows).  Pure observation — the transport draws no extra RNG and
    consumes no sequence numbers for it, so verdicts are identical with
    or without tracing.  With ``trace=False`` an *ambient* tracer still
    receives the same records, unchunked (as in
    :func:`repro.verify.fuzz.fuzz`).
    """
    if first_index < 0:
        raise ValueError(f"first_index must be >= 0, got {first_index}")
    report = NetFuzzReport(seed=seed, schedules=schedules)
    tracer = Tracer() if trace else active_tracer()
    for index in range(first_index, first_index + schedules):
        rng = random.Random(f"{seed}:{index}")
        kind = PLAN_KINDS[index % len(PLAN_KINDS)]
        faults, crashes = _make_plan(kind, rng, clients, replicas, bound)
        workload = sample_workload(rng, clients, ops_per_client, registers)
        if tracer is not None:
            tracer.run_marker(
                "net",
                index=index,
                plan=kind,
                seed=seed,
                pids=list(range(clients + replicas)),
            )
        with trace_scope(tracer):
            run = run_workload(
                workload, registers, replicas, bound,
                f"{seed}:{index}:transport", faults, crashes,
            )
        outcome = ScheduleOutcome(
            index=index,
            plan=kind,
            linearizable=not run.failing,
            operations=run.operations,
            pending=run.pending,
            status=run.status,
        )
        if tracer is not None and run.failing:
            tracer.violation("linearizability", run.end_time)
        if trace:
            report.trace_chunks.append((index, tracer.take()))
        report.outcomes.append(outcome)
        if progress is not None:
            progress(outcome)
    return report
