"""The ABD workload harness: random register workloads, judged for atomicity.

One net chaos run (:func:`repro.chaos.runner.run_net`) is one call to
:func:`run_workload`: it builds a fresh
:class:`~repro.net.quorum.QuorumSystem`, runs the clients through a
pre-drawn read/write workload (:func:`sample_workload`) under the
campaign's fault plan and crash schedule, extracts the per-register
operation history from the trace, and asks
:func:`repro.spec.check_linearizability` whether the emulation really
behaved like atomic registers (:class:`RegisterModel`).  A crashed
client leaves pending invocations; a crashed write may or may not have
taken effect, and both must be explainable.

The fault plans themselves come from
:func:`repro.chaos.plan.sample_net_campaign` (loss, delay spikes,
partitions, a crashed replica minority, a crashed client), and campaigns
of many runs from :func:`repro.chaos.runner.run_net_campaign`::

    python -m repro.chaos run --substrate net --expect clean
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.tracer import active_tracer

from ..sim import ops
from ..sim.failures import CrashSchedule
from ..sim.process import Program
from ..sim.registers import Register
from ..spec.histories import INVOKE, RESPOND, history_from_trace, pending_from_trace
from ..spec.linearizability import RegisterModel, check_linearizability
from .faults import NetFaultPlan
from .quorum import QuorumSystem

__all__ = ["Workload", "WorkloadRun", "sample_workload", "run_workload"]

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

    The harness behind :func:`repro.chaos.runner.run_net`: deterministic in its arguments
    (``seed`` seeds the transport).  The plan's fault windows go to the
    ambient tracer, which the engine built inside ``system.run`` (and
    through it the transport) binds too; run markers and violation
    records stay with the caller.
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

