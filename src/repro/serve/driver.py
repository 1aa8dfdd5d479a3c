"""The live driver: run generator programs against real time and sockets.

Everything in this repo that computes — Algorithm 3's doorway, the ABD
quorum phases, the replica service loop — is a Python generator yielding
:mod:`repro.sim.ops` operations.  On the sim substrate the discrete-event
engine decides when each takes effect; :class:`AsyncioDriver` is the
wall-clock interpreter of the *same generators*.  What an op does is the
op's own :meth:`~repro.sim.ops.Op.perform`, applied to the driver's two
resources — the live :class:`~repro.serve.substrate.Substrate` message
ops reach (``transport``: real socket writes, a non-blocking ``collect``
with the engine's poll-don't-block contract) and the
:class:`~repro.sim.registers.Memory` shared ops reach.  An op whose
resource is absent is rejected: a driver without a memory tells register
programs to go through
:meth:`repro.net.QuorumSystem.emulate_registers` first, exactly as on
the net substrate.  What is left here is scheduling:

* after a shared-memory op the program yields to the event loop, so
  register programs interleave per op — exactly the model's atomicity:
  each op is applied in one uninterrupted slice of the loop, no lock
  needed;
* a ``Broadcast`` and a ``Recv`` that returned mail do not yield: each
  is atomic by itself (socket writes, a deque drain), and no other
  program can see it before the loop reads the sockets, so going
  straight on is one interleaving the model allows.  A ``Recv`` that
  returned nothing yields — that is the turn in which the loop reads
  the sockets — so a program spinning on an empty ``Recv`` still lets
  others deliver to it;
* a ``Send`` yields, so a replica answers a batch of requests one ack
  per loop turn.  Without that pacing the ledger's ``live_faulty``, two
  shards whose keepers share the replicas, ran at 1.5 % fewer grants a
  second in half of its runs (2-vCPU VM);
* a ``Nap`` that finds a message already waiting has no effect and goes
  straight on to the ``Recv`` that follows it;
* ``Delay(d)`` — ``asyncio.sleep(d · time_scale)``.  A delay is a *real*
  suspension of at least ``d`` scaled seconds, whatever came before it
  and whatever arrives during it: Algorithm 3's doorway delay must
  genuinely elapse, so the driver never shortcuts one;
* ``Nap(d)`` — the polling pause of a quorum phase or a replica loop,
  which the program marks as such by yielding :func:`repro.sim.ops.nap`.
  It is parked on the substrate's ``wait_for_message`` and ends when a
  message for this process arrives or after ``d`` scaled seconds,
  whichever is first — waking early from a polling pause is
  indistinguishable from having polled faster, and the engine's
  semantics promise nothing about poll granularity.  A nap of unbounded
  duration (``nap(math.inf)``, an idle live replica's or keeper's) arms
  no timer and ends only when a message arrives or the substrate's
  ``wake`` rings it.  The driver looks at the op's type
  and nothing else (not at the ops around it); on a substrate without
  ``wait_for_message``, or with none at all, a nap is the plain sleep a
  ``Delay`` is, so an unbounded one there never ends;
* ``LocalWork(d)`` — also a scaled sleep (think time is think time);
* ``Label`` — a tracer record, free.

This is the substrate-interface payoff: *no algorithm code changes*
between a simulated run and a live one — only the driver differs.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, List, Optional

from repro.obs.tracer import Tracer, active_tracer
from repro.sim import ops
from repro.sim.process import Program
from repro.sim.registers import Memory
from repro.sim.trace import EventKind

from .substrate import Substrate

__all__ = ["AsyncioDriver"]


class AsyncioDriver:
    """Spawn and drive generator programs against the wall clock.

    Parameters
    ----------
    substrate:
        The :class:`~repro.serve.substrate.Substrate` message ops reach
        (kept as ``transport``), or ``None`` for register-only programs.
        The driver uses its clock when it is an
        :class:`AsyncioSubstrate` (or any object with a ``clock.now``),
        else the running loop's.
    time_scale:
        Real seconds per model time unit.  The sim substrates express
        delays in units of the delivery bound; live programs usually
        pass real-second durations directly (scale 1.0).
    memory:
        The :class:`~repro.sim.registers.Memory` shared ops reach, or
        ``None`` for message-only programs.
    """

    def __init__(
        self,
        substrate: Optional[Substrate] = None,
        time_scale: float = 1.0,
        tracer: Optional[Tracer] = None,
        memory: Optional[Memory] = None,
    ) -> None:
        if time_scale <= 0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        self.transport = substrate
        self.memory = memory
        self.time_scale = float(time_scale)
        self.tracer = tracer if tracer is not None else active_tracer()
        self.tasks: Dict[int, "asyncio.Task"] = {}
        self.returns: Dict[int, Any] = {}
        self._clock = getattr(substrate, "clock", None)
        if self.tracer is not None and self._clock is not None:
            self.tracer.bind_clock(self._clock)

    def now(self) -> float:
        if self._clock is not None:
            return self._clock.now
        return asyncio.get_running_loop().time()

    # -- spawning ------------------------------------------------------------

    def spawn(self, program: Program, pid: int, name: Optional[str] = None) -> "asyncio.Task":
        """Create the asyncio task driving ``program`` as endpoint ``pid``."""
        if pid in self.tasks:
            raise ValueError(f"pid {pid} already spawned on this driver")
        task = asyncio.get_running_loop().create_task(
            self._drive(program, pid), name=name or f"p{pid}"
        )
        self.tasks[pid] = task
        return task

    async def wait(self) -> Dict[int, Any]:
        """Await every spawned program; return ``{pid: return value}``."""
        if self.tasks:
            await asyncio.gather(*self.tasks.values())
        return dict(self.returns)

    async def cancel(self) -> None:
        """Cancel every still-running program and swallow the cancellations."""
        for task in self.tasks.values():
            if not task.done():
                task.cancel()
        await asyncio.gather(*self.tasks.values(), return_exceptions=True)

    # -- the interpreter -----------------------------------------------------

    async def _drive(self, program: Program, pid: int) -> Any:
        scale = self.time_scale
        tracer = self.tracer
        waiter = getattr(self.transport, "wait_for_message", None)
        send_value: Any = None
        while True:
            try:
                op = program.send(send_value)
            except StopIteration as stop:
                self.returns[pid] = stop.value
                if tracer is not None:
                    tracer.done(pid, self.now())
                return stop.value
            if not isinstance(op, ops.Op):
                raise TypeError(f"live driver cannot interpret {op!r}")
            if op.is_shared and self.memory is None:
                raise TypeError(
                    f"this driver has no shared memory — wrap register "
                    f"programs with QuorumSystem.emulate_registers, or pass "
                    f"AsyncioDriver(memory=...) (got {op!r})"
                )
            if op.is_message and self.transport is None:
                raise TypeError(
                    f"this driver has no substrate to carry messages — pass "
                    f"AsyncioDriver(substrate) (got {op!r})"
                )
            now = self.now()
            send_value = op.perform(self, pid, now)
            if isinstance(op, ops.Nap) and waiter is not None:
                await waiter(pid, op.duration * scale)
            elif isinstance(op, (ops.Delay, ops.LocalWork)):
                await asyncio.sleep(op.duration * scale)
            elif op.trace_kind == EventKind.LABEL:
                if tracer is not None:
                    tracer.label(pid, op.kind, now)
            elif not (
                isinstance(op, ops.Broadcast)
                or (isinstance(op, ops.Recv) and send_value)
            ):
                await asyncio.sleep(0)

    def __repr__(self) -> str:
        live = sum(1 for t in self.tasks.values() if not t.done())
        return f"AsyncioDriver({len(self.tasks)} programs, {live} running)"
