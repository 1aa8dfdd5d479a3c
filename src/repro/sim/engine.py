"""The discrete-event engine: the paper's timing-based system, executable.

The engine realizes the paper's model directly:

* shared memory is a set of atomic registers (:class:`~repro.sim.registers.Memory`);
* each process is a generator program yielding operations;
* every shared-memory access takes a duration chosen by the
  :class:`~repro.sim.timing.TimingModel` — at most ``Δ`` in a well-behaved
  system, more than ``Δ`` during a *timing failure*;
* ``delay(d)`` suspends the process for (at least) ``d`` time units;
* an operation's atomic effect (its linearization point) happens at its
  completion instant; same-instant completions linearize in the order the
  configured :class:`~repro.sim.scheduler.TieBreak` dictates.

With a ``transport`` attached the engine also carries the three message
operations (``Send``/``Broadcast``/``Recv``): handing a message to the
network costs ``send_cost`` local time (the *delivery* delay is the
transport's job), collecting costs ``recv_cost``.  Both must be positive
— a zero cost would let a polling loop livelock the event loop, the same
reason shared steps must take positive time.  Registers, delays, labels,
crashes, restarts and run limits are unchanged, so programs may freely
mix shared-memory steps and messages.

Crash failures (for the wait-freedom experiments) are pre-scheduled from a
:class:`~repro.sim.failures.CrashSchedule`: a crashed process takes no
further steps, and an in-flight operation whose completion would linearize
at or after the crash instant is discarded — the crash really does strike
"between the invocation and the effect".  A crashed process's queued
messages stay undelivered on the transport, so a crash really does
silence an endpoint mid-conversation; if it restarts, the successor's
first ``Recv`` collects whatever arrived while it was down.

Determinism: given the same programs, timing model (with its seed), tie
break and crash schedule, a run is bit-for-bit reproducible.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.tracer import Tracer, active_tracer

from .clock import VirtualClock
from .failures import CrashSchedule, MemoryFault, RecoverSchedule
from .instrument import EngineProbe, active_probe
from .ops import Label, Op, SimulationError
from .process import Process, ProcessState, Program, ProgramFactory
from .registers import Memory
from .scheduler import FifoTieBreak, TieBreak
from .timing import TimingModel
from .trace import FAULT_PID, EventKind, Trace, TraceEvent

if TYPE_CHECKING:  # pragma: no cover - repro.net imports this module
    from repro.net.transport import Transport

__all__ = ["Engine", "RunResult", "RunStatus", "SimulationError"]

# Relative tolerance when classifying a step as a timing failure; guards
# against float noise in duration arithmetic.
_DELTA_TOLERANCE = 1e-9

# How many consecutive zero-duration operations (labels) a process may
# execute before the engine declares it livelocked.
_MAX_ZERO_DURATION_RUN = 10_000


class RunStatus(enum.Enum):
    """Why :meth:`Engine.run` returned."""

    COMPLETED = "completed"  # every process finished or crashed
    TIME_LIMIT = "time_limit"  # virtual max_time reached
    STEP_LIMIT = "step_limit"  # max_total_steps shared accesses reached


@dataclass
class RunResult:
    """Everything observable about one simulation run."""

    status: RunStatus
    trace: Trace
    memory: Memory
    processes: Dict[int, Process]
    end_time: float

    @property
    def returns(self) -> Dict[int, Any]:
        """pid -> program return value, for processes that finished."""
        return {
            pid: p.result
            for pid, p in self.processes.items()
            if p.state is ProcessState.DONE
        }

    @property
    def completed(self) -> bool:
        return self.status is RunStatus.COMPLETED

    @property
    def crashed_pids(self) -> List[int]:
        return sorted(
            pid
            for pid, p in self.processes.items()
            if p.state is ProcessState.CRASHED
        )

    @property
    def live_pids(self) -> List[int]:
        """Processes still running when the run stopped (limits only)."""
        return sorted(pid for pid, p in self.processes.items() if p.alive)

    def __repr__(self) -> str:
        return (
            f"RunResult(status={self.status.value}, end={self.end_time:.3f}, "
            f"events={len(self.trace)}, done={len(self.returns)}, "
            f"crashed={len(self.crashed_pids)})"
        )


# Internal event actions.
_START = "start"
_COMPLETE = "complete"
_CRASH = "crash"
_RESTART = "restart"
_FAULT = "fault"

# Heap entries are plain tuples, ordered lexicographically by
# (time, priority, seq).  ``seq`` is unique per entry, so comparison never
# reaches the payload fields behind it:
#
#     (time, priority, seq, pid, action, op, issued, payload)
#
# Tuples instead of a dataclass keep the hot loop free of per-event object
# construction and rich-comparison dispatch (~20% of event-loop time on
# a private-register read/write ping-pong).


class Engine:
    """Discrete-event executor for generator programs.

    Parameters
    ----------
    delta:
        The paper's ``Δ`` — the *known* upper bound on step time.  Only
        used for classification (which steps count as timing failures) and
        by metrics; the actual durations come from ``timing``.
    timing:
        The :class:`TimingModel` assigning a duration to every operation.
    tie_break:
        Linearization order for same-instant completions.
    crashes:
        Optional :class:`CrashSchedule`.
    recoveries:
        Optional :class:`RecoverSchedule` — crash-recovery restarts.  A
        restarting process gets a fresh program instance built by the
        factory passed to :meth:`spawn` while shared registers persist.
    max_time / max_total_steps:
        Run limits; exceeding one stops the run with the corresponding
        :class:`RunStatus` (needed because asynchronous adversaries can
        make consensus run forever — FLP — and busy-wait loops never
        terminate on their own).
    probe:
        Optional :class:`~repro.sim.instrument.EngineProbe` accumulating
        deterministic work counters.  Defaults to the ambient
        :func:`~repro.sim.instrument.probe_scope` probe, i.e. ``None``
        outside any scope — in which case instrumentation costs nothing.
    tracer:
        Optional :class:`~repro.obs.tracer.Tracer` receiving structured
        span/event records.  Defaults to the ambient
        :func:`~repro.obs.tracer.trace_scope` tracer, i.e. ``None``
        outside any scope.  Tracing is pure observation: a traced run is
        bit-identical to an untraced one.
    transport:
        Optional :class:`~repro.net.transport.Transport` carrying this
        run's messages; without one, message ops are rejected.  One
        transport per engine — its RNG and queues are consumed by the
        run.  Trace records then carry substrate ``"net"`` instead of
        ``"sim"``, and the probe picks up the transport's counters.
    send_cost / recv_cost:
        Local duration of handing a message to (collecting messages
        from) the network.  Default: ``bound / 20`` of the transport —
        small against the delivery bound, but positive.
    """

    def __init__(
        self,
        delta: float,
        timing: TimingModel,
        tie_break: Optional[TieBreak] = None,
        crashes: Optional[CrashSchedule] = None,
        recoveries: Optional[RecoverSchedule] = None,
        max_time: float = math.inf,
        max_total_steps: float = math.inf,
        memory: Optional[Memory] = None,
        faults: Optional[List[MemoryFault]] = None,
        probe: Optional[EngineProbe] = None,
        tracer: Optional[Tracer] = None,
        transport: Optional["Transport"] = None,
        send_cost: Optional[float] = None,
        recv_cost: Optional[float] = None,
    ) -> None:
        if delta <= 0:
            raise ValueError(f"delta must be positive, got {delta}")
        self.delta = float(delta)
        self.timing = timing
        self.tie_break = tie_break if tie_break is not None else FifoTieBreak()
        self.crashes = crashes if crashes is not None else CrashSchedule.none()
        self.recoveries = (
            recoveries if recoveries is not None else RecoverSchedule.none()
        )
        self.max_time = max_time
        self.max_total_steps = max_total_steps
        self.memory = memory if memory is not None else Memory()

        self.clock = VirtualClock()
        self.trace = Trace(delta)
        self.processes: Dict[int, Process] = {}
        self._heap: List[Tuple] = []
        self._seq = itertools.count()
        self._event_seq = itertools.count()
        self.total_shared_steps = 0
        self._ran = False
        self._probe = probe if probe is not None else active_probe()
        self._tracer = tracer if tracer is not None else active_tracer()
        if self._tracer is not None:
            self._tracer.bind_clock(self.clock)
        # FifoTieBreak priorities are just the issue sequence number; skip
        # the method call and the 1-tuple per push for the default policy.
        self._fifo = type(self.tie_break) is FifoTieBreak
        self.transport = transport
        if transport is not None:
            # An explicitly-passed tracer must also see the wire: mirror it
            # onto the transport (which defaulted to the ambient tracer).
            if tracer is not None:
                transport.tracer = tracer
            default_cost = transport.bound / 20.0
            self.send_cost = send_cost if send_cost is not None else default_cost
            self.recv_cost = recv_cost if recv_cost is not None else default_cost
            if self.send_cost <= 0 or self.recv_cost <= 0:
                raise ValueError(
                    f"send/recv costs must be positive, got "
                    f"{self.send_cost}/{self.recv_cost} (zero would livelock "
                    f"polling loops)"
                )
        for fault in faults or ():
            self._push(fault.at, FAULT_PID, _FAULT, payload=fault)

    # -- setup ---------------------------------------------------------------

    def spawn(
        self,
        program: Program,
        pid: Optional[int] = None,
        name: Optional[str] = None,
        start_time: float = 0.0,
        factory: Optional[ProgramFactory] = None,
    ) -> Process:
        """Register a program as a process starting at ``start_time``.

        ``factory`` rebuilds the program for a crash-recovery restart; it
        is required for any pid the :class:`RecoverSchedule` restarts
        (local state is volatile — only registers survive the crash).
        """
        if self._ran:
            raise RuntimeError("cannot spawn after run() — build a new Engine")
        if start_time < 0:
            raise ValueError(f"start_time must be >= 0, got {start_time}")
        if pid is None:
            pid = len(self.processes)
        if pid in self.processes:
            raise ValueError(f"pid {pid} already spawned")
        if self.transport is not None and not 0 <= pid < self.transport.n:
            raise ValueError(
                f"pid {pid} is not an endpoint of the transport "
                f"(0..{self.transport.n - 1})"
            )
        proc = Process(pid, program, name, factory=factory)
        proc.started_at = start_time
        proc.crash_time = self.crashes.crash_time(pid)
        proc.crash_step = self.crashes.crash_step(pid)
        self.processes[pid] = proc
        self._push(start_time, pid, _START)
        if math.isfinite(proc.crash_time):
            # Stamp the crash with the incarnation it belongs to so a
            # restarted process is not killed by its predecessor's event.
            self._push(proc.crash_time, pid, _CRASH, payload=0)
        recover_time = self.recoveries.recover_time(pid)
        if math.isfinite(recover_time):
            if factory is None:
                raise ValueError(
                    f"pid {pid} has a scheduled recovery but no program "
                    f"factory: restarts need a fresh program instance"
                )
            self._push(recover_time, pid, _RESTART)
        return proc

    # -- event plumbing --------------------------------------------------------

    def _push(self, time: float, pid: int, action: str, payload: Any = None) -> None:
        """Schedule a lifecycle event (start, crash, restart, fault); an
        operation's completion is pushed by :meth:`_resume` itself."""
        seq = next(self._seq)
        priority: Any = seq if self._fifo else self.tie_break.priority(pid, seq)
        probe = self._probe
        if probe is not None:
            probe.heap_pushes += 1
        heapq.heappush(
            self._heap,
            (time, priority, next(self._event_seq), pid, action, None, 0.0, payload),
        )

    # -- main loop ---------------------------------------------------------------

    def run(self) -> RunResult:
        """Execute until every process finishes/crashes or a limit trips."""
        if self._ran:
            raise RuntimeError("Engine.run() may only be called once")
        self._ran = True
        tracer = self._tracer
        if tracer is not None:
            tracer.engine_run(
                "sim" if self.transport is None else "net",
                self.delta,
                list(self.processes),
            )
        status = RunStatus.COMPLETED
        # The event loop is the simulator's hot path: bind everything it
        # touches per event to locals once, and order the action checks by
        # frequency (completions dominate every workload).
        heap = self._heap
        heappop = heapq.heappop
        processes = self.processes
        advance_to = self.clock.advance_to
        max_time = self.max_time
        complete = self._complete
        probe = self._probe
        running = ProcessState.RUNNING
        while heap:
            if self.total_shared_steps >= self.max_total_steps:
                status = RunStatus.STEP_LIMIT
                break
            time, _priority, _seq, pid, action, op, issued, payload = heappop(heap)
            if time > max_time:
                status = RunStatus.TIME_LIMIT
                break
            if probe is not None:
                probe.events += 1
            if action == _COMPLETE:
                proc = processes[pid]
                if proc.state is not running or payload != proc.incarnation:
                    # Stale event: the process crashed, or this completion
                    # belongs to an incarnation that died before a restart
                    # (a live process with an operation in flight is RUNNING:
                    # READY ends at _start, before the first operation).
                    continue
                advance_to(time)
                complete(proc, op, issued, time)
                continue
            if action == _FAULT:
                advance_to(time)
                fault: MemoryFault = payload
                self.memory.poke(fault.register, fault.value)
                self.trace.append(
                    TraceEvent(
                        next(self._event_seq), FAULT_PID, EventKind.FAULT,
                        time, time, fault.register.name, fault.value,
                    )
                )
                if tracer is not None:
                    tracer.fault(fault.register.name, time)
                continue
            proc = processes[pid]
            if action == _CRASH:
                if payload == proc.incarnation:
                    self._crash(proc, time)
                continue
            if action == _RESTART:
                advance_to(time)
                self._restart(proc, time)
                continue
            if not proc.alive:
                continue  # stale event for a crashed process
            advance_to(time)
            if action == _START:
                self._start(proc, time)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event action {action!r}")
        self.trace.finalize()
        if probe is not None:
            probe.runs += 1
            probe.ops_linearized += sum(
                p.total_ops for p in self.processes.values()
            )
            probe.shared_steps += self.total_shared_steps
            probe.trace_events += len(self.trace)
            probe.reads += self.memory.read_count
            probe.writes += self.memory.write_count
            probe.rmws += self.memory.rmw_count
            probe.registers_touched += self.memory.register_count
            if self.transport is not None:
                stats = self.transport.stats
                probe.messages_sent += stats.messages_sent
                probe.messages_delivered += stats.messages_delivered
                probe.messages_dropped += stats.messages_dropped
                probe.quorum_rtts += stats.quorum_rtts
        return RunResult(
            status=status,
            trace=self.trace,
            memory=self.memory,
            processes=self.processes,
            end_time=self.clock.now,
        )

    # -- lifecycle -------------------------------------------------------------

    def _start(self, proc: Process, now: float) -> None:
        if proc.crash_step <= 0:
            self._crash(proc, now)
            return
        proc.state = ProcessState.RUNNING
        self._resume(proc, None, now)

    def _crash(self, proc: Process, now: float) -> None:
        if not proc.alive:
            return
        proc.state = ProcessState.CRASHED
        proc.finished_at = now
        self.trace.append(
            TraceEvent(next(self._event_seq), proc.pid, EventKind.CRASH, now, now)
        )
        if self._tracer is not None:
            self._tracer.crash(proc.pid, now)
        proc.program.close()

    def _restart(self, proc: Process, now: float) -> None:
        """Crash-recovery: fresh program instance, persistent registers.

        Only a CRASHED process restarts — a process that finished (or was
        never crashed because its crash time never fired) ignores the
        event.  One restart per pid: the recovered incarnation has no
        further crash scheduled.
        """
        if proc.state is not ProcessState.CRASHED or proc.factory is None:
            return
        proc.incarnation += 1
        proc.program = proc.factory(proc.pid)
        proc.state = ProcessState.RUNNING
        proc.finished_at = None
        proc.crash_time = math.inf
        proc.crash_step = math.inf
        self.trace.append(
            TraceEvent(
                next(self._event_seq), proc.pid, EventKind.RESTART, now, now,
                None, proc.incarnation,
            )
        )
        if self._tracer is not None:
            self._tracer.restart(proc.pid, now)
        self._resume(proc, None, now)

    def _complete(self, proc: Process, op: Op, issued: float, now: float) -> None:
        """Apply an in-flight operation's effect at its completion instant."""
        pid = proc.pid
        send_value = op.perform(self, pid, now)
        target, value = op.trace_fields(self, pid, send_value)
        kind = op.trace_kind
        shared = op.is_shared
        # Only a shared step can be a timing failure.
        exceeded = shared and (now - issued) > self.delta * (1.0 + _DELTA_TOLERANCE)
        self.trace.record(
            next(self._event_seq), pid, kind, issued, now, target, value, None,
            exceeded,
        )
        if self._tracer is not None:
            self._tracer.op(kind, pid, target, issued, now, exceeded)
        proc.total_ops += 1
        if shared:
            proc.shared_steps += 1
            self.total_shared_steps += 1
            if proc.shared_steps >= proc.crash_step:
                self._crash(proc, now)
                return
        self._resume(proc, send_value, now)

    def _resume(self, proc: Process, send_value: Any, now: float) -> None:
        """Pull operations from the program until one consumes time."""
        pid = proc.pid
        for _ in range(_MAX_ZERO_DURATION_RUN):
            try:
                op = proc.program.send(send_value)
            except StopIteration as stop:
                proc.state = ProcessState.DONE
                proc.result = stop.value
                proc.finished_at = now
                self.trace.append(
                    TraceEvent(
                        next(self._event_seq), pid, EventKind.DONE, now, now,
                        None, stop.value,
                    )
                )
                if self._tracer is not None:
                    self._tracer.done(pid, now)
                return
            except Exception as exc:
                proc.state = ProcessState.FAILED
                proc.error = exc
                raise SimulationError(
                    f"process {pid} ({proc.name}) raised {exc!r} at time {now}"
                ) from exc

            if isinstance(op, Label):
                self.trace.record(
                    next(self._event_seq), pid, EventKind.LABEL, now, now,
                    None, op.payload, op.kind,
                )
                if self._tracer is not None:
                    self._tracer.label(pid, op.kind, now)
                proc.total_ops += 1
                send_value = None
                continue

            if not isinstance(op, Op):
                Op.charge(op, self, proc, now)  # not an Op: the base rule refuses it
            # What the operation costs is the operation's to say (ops.py).
            # Its completion goes on the heap here, not through _push (this
            # is the push every event pays for), in the same draw order:
            # duration, then priority, then the entry's sequence number.
            duration = op.charge(self, proc, now)
            seq = next(self._seq)
            priority: Any = seq if self._fifo else self.tie_break.priority(pid, seq)
            if self._probe is not None:
                self._probe.heap_pushes += 1
            heapq.heappush(
                self._heap,
                (now + duration, priority, next(self._event_seq), pid, _COMPLETE,
                 op, now, proc.incarnation),
            )
            return
        raise SimulationError(
            f"process {pid} ({proc.name}) executed {_MAX_ZERO_DURATION_RUN} "
            f"consecutive zero-duration operations at time {now}: livelock"
        )
