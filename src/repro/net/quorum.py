"""ABD-style atomic registers emulated over crash-prone messages.

Following Attiya–Bar-Noy–Dolev and Mostéfaoui–Raynal's time-efficient
formulation, a :class:`QuorumSystem` builds atomic read/write registers
*from* unreliable messages, so every register-only algorithm in this repo
— Algorithm 1 consensus, Fischer, Algorithm 3 mutex — runs over a
network without source changes.

Roles: ``clients`` (pids ``0..c-1``) run the algorithm programs;
``replicas`` (pids ``c..c+r-1``) each hold a timestamped copy of every
register.  Each value carries a timestamp ``(number, writer_pid)``,
ordered lexicographically, so concurrent writers are totally ordered.

* **write**: query a majority for the highest timestamp, then store the
  value under a strictly larger timestamp at a majority (majority-ack).
* **read**: query a majority, pick the timestamped maximum, then *write
  it back* to a majority before returning (read-repair) — without the
  write-back two sequential reads could see new-then-old, breaking
  atomicity.

Any two majorities intersect, so a write's timestamp is visible to every
later operation even when a *minority* of replicas has crashed — the
crash-minority assumption; lose a majority and operations block until a
partition heals (they never return wrong values).

The facade :meth:`QuorumSystem.emulate_registers` makes the emulation
invisible: it wraps a register-level program, intercepts its ``Read`` /
``Write`` ops and replaces each with the corresponding quorum phases,
passing delays, local work and labels straight through.
"""

# repro-lint: messages-only — this module IS the register emulation; it
# speaks raw Send/Recv and must never create real registers itself.

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Dict, Hashable, Optional, Sequence, Tuple

from ..sim import ops
from ..sim.engine import Engine, RunResult
from ..sim.failures import CrashSchedule
from ..sim.process import Program
from ..sim.scheduler import TieBreak
from ..sim.timing import ConstantTiming, TimingModel
from . import resilience
from .faults import NetFaultPlan
from .transport import Transport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..sim.registers import Register

__all__ = ["QuorumSystem", "ZERO_TS"]

# Timestamp every replica starts from; strictly below any write's
# timestamp because writer pids are >= 0.
ZERO_TS: Tuple[int, int] = (0, -1)

# Message kinds (first element of every payload tuple).
_QUERY = "qr"
_QUERY_ACK = "qr-ack"
_UPDATE = "qw"
_UPDATE_ACK = "qw-ack"
_BYE = "bye"


class QuorumSystem:
    """A crash-prone message network emulating atomic registers.

    Parameters
    ----------
    clients:
        How many algorithm processes will run (pids ``0..clients-1``).
    replicas:
        How many register servers back the emulation; a minority of them
        may crash without affecting any client.
    bound:
        The per-link delivery bound (the networked ``Δ``); message
        handling costs and polling granularity are derived from it via
        :func:`repro.net.resilience.default_costs`.
    seed:
        Seeds the transport (delivery delays and loss draws).
    faults / crashes:
        The run's :class:`NetFaultPlan` and
        :class:`~repro.sim.failures.CrashSchedule` (crash *replica* pids
        for the crash-minority experiments, client pids to exercise
        pending operations).
    max_time:
        Engine run limit; also the replicas' default service lifetime —
        replicas retire early once every client has said goodbye, so
        well-behaved runs end long before this.  A replica measures its
        lifetime by adding up the model cost of the ops it issues, which
        is a clock only under the engine: on a live ``substrate`` a nap
        ends when a request arrives, a busy replica books minutes of
        model time per real second, and the default lifetime is
        unbounded — live replicas retire on goodbyes or cancellation.
    fault_tolerance:
        The number of replica crashes the deployment is declared to
        survive.  Validated at construction: ``replicas >= 2*f + 1``
        must hold or no majority survives every crash pattern, and the
        system would wedge opaquely mid-run instead.  Defaults to the
        largest tolerable minority, ``(replicas - 1) // 2``.
    substrate:
        An explicit :class:`repro.serve.substrate.Substrate` to carry
        the messages instead of a fresh in-simulation ``Transport`` —
        this is how :mod:`repro.serve` runs the same quorum phases over
        real sockets.  A system built on a live substrate cannot
        :meth:`build_engine`; its programs are driven by
        :class:`repro.serve.driver.AsyncioDriver` instead.
    """

    def __init__(
        self,
        clients: int,
        replicas: int = 3,
        bound: float = 1.0,
        seed: Any = 0,
        faults: Optional[NetFaultPlan] = None,
        crashes: Optional[CrashSchedule] = None,
        timing: Optional[TimingModel] = None,
        delta: Optional[float] = None,
        max_time: float = 2_000.0,
        lifetime: Optional[float] = None,
        tie_break: Optional[TieBreak] = None,
        fault_tolerance: Optional[int] = None,
        substrate: Optional[Any] = None,
    ) -> None:
        if not isinstance(clients, int) or isinstance(clients, bool):
            raise TypeError(f"clients must be an int, got {clients!r}")
        if not isinstance(replicas, int) or isinstance(replicas, bool):
            raise TypeError(f"replicas must be an int, got {replicas!r}")
        if clients < 1:
            raise ValueError(f"need at least one client, got {clients}")
        if replicas < 1:
            raise ValueError(f"need at least one replica, got {replicas}")
        if fault_tolerance is None:
            # The tolerance this replica count actually provides: the
            # largest minority.
            fault_tolerance = (replicas - 1) // 2
        elif not isinstance(fault_tolerance, int) or isinstance(fault_tolerance, bool):
            raise TypeError(
                f"fault_tolerance must be an int, got {fault_tolerance!r}"
            )
        elif fault_tolerance < 0:
            raise ValueError(
                f"fault_tolerance must be >= 0, got {fault_tolerance}"
            )
        elif replicas < 2 * fault_tolerance + 1:
            # Fail here, with the arithmetic spelled out, instead of
            # wedging mid-run when a "tolerable" crash kills a majority.
            raise ValueError(
                f"tolerating f={fault_tolerance} crashed replicas needs a "
                f"majority to survive every crash pattern: replicas >= "
                f"2*f+1 = {2 * fault_tolerance + 1}, got {replicas}"
            )
        self.clients = clients
        self.replicas = replicas
        self.fault_tolerance = fault_tolerance
        self.majority = replicas // 2 + 1
        if substrate is not None and substrate.n != clients + replicas:
            raise ValueError(
                f"substrate has {substrate.n} endpoints but "
                f"{clients} clients + {replicas} replicas need "
                f"{clients + replicas}"
            )
        self.bound = float(substrate.bound if substrate is not None else bound)
        costs = resilience.default_costs(self.bound)
        self.send_cost = costs["send_cost"]
        self.recv_cost = costs["recv_cost"]
        self.poll = costs["poll"]
        # After this many empty polls (~2.5 bounds) assume the request or
        # its acks were lost and retransmit.
        self.retry_polls = 10
        self.client_pids: Tuple[int, ...] = tuple(range(clients))
        self.replica_pids: Tuple[int, ...] = tuple(range(clients, clients + replicas))
        self.faults = faults if faults is not None else NetFaultPlan.none()
        self.crashes = crashes
        # The substrate seam (see repro.serve.substrate): the quorum
        # phases only ever use the Substrate surface — peers, send,
        # collect, stats, tracer — so any conforming fabric slots in.
        # Default: the deterministic in-simulation Transport.
        if substrate is not None:
            self.transport = substrate
        else:
            self.transport = Transport(
                clients + replicas, bound=self.bound, seed=seed, faults=self.faults
            )
        self.timing = timing if timing is not None else ConstantTiming(self.send_cost)
        self.delta = delta if delta is not None else resilience.delta_net(self)
        self.max_time = max_time
        if lifetime is None:
            lifetime = max_time if isinstance(self.transport, Transport) else math.inf
        self.lifetime = lifetime
        self.tie_break = tie_break
        self._req_ids = itertools.count(1)
        self._ran = False
        # Final replica stores, recorded as each replica retires (absent for
        # replicas that crashed or were cut off by the run limit).
        self.replica_stores: Dict[int, Dict[Hashable, Tuple[Tuple[int, int], Any]]] = {}

    # -- client-side quorum phases (yield-from these) -----------------------

    def read(self, pid: int, register: "Register") -> Program:
        """Emulated atomic read: query a majority, repair, return the max."""
        ts, value = yield from self._query(pid, register.name, register.initial)
        yield from self._update(pid, register.name, ts, value)  # read-repair
        return value

    def write(self, pid: int, register: "Register", value: Any) -> Program:
        """Emulated atomic write: outdo the majority-max timestamp."""
        (number, _), _ = yield from self._query(pid, register.name, register.initial)
        yield from self._update(pid, register.name, (number + 1, pid), value)
        return None

    def _query(self, pid: int, name: Hashable, initial: Any) -> Program:
        """Phase 1: collect (timestamp, value) from a majority of replicas."""
        req = next(self._req_ids)
        request = (_QUERY, req, name, initial)
        acks: Dict[int, Tuple[Tuple[int, int], Any]] = {}
        tracer = self.transport.tracer
        if tracer is not None:
            tracer.phase(pid, "query", name, "start")
        yield ops.broadcast(request, dests=self.replica_pids)
        polls = 0
        while len(acks) < self.majority:
            for src, message in (yield ops.recv()):
                if message[0] == _QUERY_ACK and message[1] == req:
                    acks[src] = (message[2], message[3])
            if len(acks) < self.majority:
                yield ops.nap(self.poll)
                polls += 1
                if polls % self.retry_polls == 0:
                    # Fair-lossy links: retransmit until a majority answers
                    # (replicas answer duplicates idempotently).
                    yield ops.broadcast(request, dests=self.replica_pids)
        self.transport.stats.quorum_rtts += 1
        if tracer is not None:
            tracer.phase(pid, "query", name, "end")
        return max(acks.values(), key=lambda pair: pair[0])

    def _update(self, pid: int, name: Hashable, ts: Tuple[int, int], value: Any) -> Program:
        """Phase 2: store (ts, value) at a majority of replicas."""
        req = next(self._req_ids)
        request = (_UPDATE, req, name, ts, value)
        acked: set = set()
        tracer = self.transport.tracer
        if tracer is not None:
            tracer.phase(pid, "update", name, "start")
        yield ops.broadcast(request, dests=self.replica_pids)
        polls = 0
        while len(acked) < self.majority:
            for src, message in (yield ops.recv()):
                if message[0] == _UPDATE_ACK and message[1] == req:
                    acked.add(src)
            if len(acked) < self.majority:
                yield ops.nap(self.poll)
                polls += 1
                if polls % self.retry_polls == 0:
                    yield ops.broadcast(request, dests=self.replica_pids)
        self.transport.stats.quorum_rtts += 1
        if tracer is not None:
            tracer.phase(pid, "update", name, "end")

    # -- the RegisterNamespace-compatible facade ----------------------------

    def emulate_registers(self, pid: int, program: Program) -> Program:
        """Run a register-level program over the quorum, unchanged.

        Intercepts the wrapped program's ``Read``/``Write`` ops and
        replaces each with the corresponding quorum phases; ``Delay``,
        ``LocalWork`` and ``Label`` ops pass straight through, so
        Algorithm 1/3 and Fischer — and their trace-reading checkers —
        work as on shared memory.  Read-modify-write ops are rejected:
        the ABD emulation implements atomic read/write registers only,
        exactly the primitive set the paper's theorems assume.
        """

        def emulated() -> Program:
            send_value: Any = None
            while True:
                try:
                    op = program.send(send_value)
                except StopIteration as stop:
                    # Retire the replicas this client no longer needs.
                    yield ops.broadcast((_BYE, pid), dests=self.replica_pids)
                    return stop.value
                if isinstance(op, ops.Read):
                    send_value = yield from self.read(pid, op.register)
                elif isinstance(op, ops.Write):
                    send_value = yield from self.write(pid, op.register, op.value)
                elif op.is_shared:
                    raise TypeError(
                        f"quorum emulation supports atomic read/write "
                        f"registers only, got {op!r}"
                    )
                else:
                    # Pass-through of the wrapped program's non-shared op.
                    send_value = yield op  # repro-lint: disable=TMF001 — op came from the wrapped program, already validated above

        return emulated()

    # -- replica ------------------------------------------------------------

    def replica(self, pid: int) -> Program:
        """One register server: answer queries/updates until clients retire.

        The store maps register name to ``(timestamp, value)``; an update
        is applied only when its timestamp is strictly larger (acks are
        sent either way — the quorum intersection argument needs the ack,
        not the overwrite).  The loop tracks its own virtual elapsed time
        from the known op costs — under the engine a conservative
        undercount, so a replica never retires before ``lifetime`` even if
        clients crashed without saying goodbye.  Between batches it naps
        for ``poll``; a replica whose lifetime is unbounded (every live
        substrate's default) has no clock to keep, so its nap has no
        timeout and ends only when a message arrives — an idle live
        replica takes no step at all.

        Returns ``None`` (a replica is not a decider — the consensus spec
        reads non-``None`` returns as decisions); the final store lands in
        :attr:`replica_stores` instead.
        """
        store: Dict[Hashable, Tuple[Tuple[int, int], Any]] = {}
        byes: set = set()
        elapsed = 0.0
        pause = self.poll if self.lifetime < math.inf else math.inf
        while len(byes) < self.clients and elapsed < self.lifetime:
            messages = yield ops.recv()
            elapsed += self.recv_cost
            for src, message in messages:
                kind = message[0]
                if kind == _QUERY:
                    _, req, name, initial = message
                    ts, value = store.get(name, (ZERO_TS, initial))
                    yield ops.send(src, (_QUERY_ACK, req, ts, value))
                    elapsed += self.send_cost
                elif kind == _UPDATE:
                    _, req, name, ts, value = message
                    current = store.get(name)
                    if current is None or ts > current[0]:
                        store[name] = (ts, value)
                    yield ops.send(src, (_UPDATE_ACK, req))
                    elapsed += self.send_cost
                elif kind == _BYE:
                    byes.add(message[1])
            if len(byes) < self.clients:
                yield ops.nap(pause)
                elapsed += self.poll
        self.replica_stores[pid] = store  # repro-lint: disable=TMF003 — test-facing bookkeeping, not model state: the emulation's observable behaviour flows only through messages
        return None

    # -- running ------------------------------------------------------------

    def build_engine(self, client_programs: Sequence[Program]) -> Engine:
        """Spawn wrapped clients and replicas on a fresh :class:`Engine`."""
        if not isinstance(self.transport, Transport):
            raise RuntimeError(
                "this QuorumSystem is bound to a live substrate — drive its "
                "programs with repro.serve.AsyncioDriver, not an Engine"
            )
        if self._ran:
            raise RuntimeError(
                "QuorumSystem already ran — its transport is consumed; build "
                "a new system"
            )
        if len(client_programs) != self.clients:
            raise ValueError(
                f"expected {self.clients} client programs, got {len(client_programs)}"
            )
        self._ran = True
        engine = Engine(
            delta=self.delta,
            timing=self.timing,
            transport=self.transport,
            send_cost=self.send_cost,
            recv_cost=self.recv_cost,
            tie_break=self.tie_break,
            crashes=self.crashes,
            max_time=self.max_time,
        )
        if self.transport.tracer is None:
            # The system may be built outside a trace scope and run inside
            # one; adopt whatever tracer the engine resolved.
            self.transport.tracer = engine._tracer
        for pid, program in zip(self.client_pids, client_programs):
            engine.spawn(
                self.emulate_registers(pid, program), pid=pid, name=f"client{pid}"
            )
        for pid in self.replica_pids:
            engine.spawn(self.replica(pid), pid=pid, name=f"replica{pid}")
        return engine

    def run(self, client_programs: Sequence[Program]) -> RunResult:
        """Build the engine, run it, and return the result."""
        return self.build_engine(client_programs).run()

    def __repr__(self) -> str:
        return (
            f"QuorumSystem(clients={self.clients}, replicas={self.replicas}, "
            f"bound={self.bound}, majority={self.majority})"
        )
