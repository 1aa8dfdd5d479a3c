"""Operation vocabulary for simulated processes.

A simulated process is a Python generator that *yields* operations and
receives their results back through ``send``.  What an operation *does*
is the same everywhere and lives on the operation: :meth:`Op.perform`
applies it to a *world* — whichever interpreter pulled it from the
generator, which owns the ``memory`` shared operations reach and the
``transport`` message operations reach.  The interpreters differ only in
*when* an operation takes effect:

* :class:`repro.sim.engine.Engine` — the discrete-event timing simulator:
  at a virtual completion instant, after a duration drawn from a
  :class:`repro.sim.timing.TimingModel` (with a ``transport`` attached it
  also carries the message operations);
* :class:`repro.verify.sandbox.Sandbox` — the model checker's untimed
  semantics: whenever the explorer picks the process (``Delay`` provides
  no guarantee there, which is exactly the paper's notion of a timing
  failure);
* :class:`repro.serve.driver.AsyncioDriver` — the wall clock: as soon as
  the event loop runs the process, with delays as real sleeps (and a
  ``Nap`` as a sleep that message arrival may end).

Only :class:`Read` and :class:`Write` touch shared memory and are therefore
"steps" in the sense of the paper's timing assumption (there is a known
upper bound ``Δ`` on the time any single such step may take).  ``Delay`` is
the paper's explicit ``delay(d)`` statement; ``Nap`` is the ``Delay`` of a
polling loop — the pause between two ``Recv``s that nothing synchronizes
on — and says so in its type, so that an interpreter with real sockets
may end it when a message arrives.  ``LocalWork`` consumes simulated time
without touching shared memory (used to model critical sections and think
times).  ``Label`` is a zero-duration annotation recorded in the trace,
used by the specification checkers (e.g. critical-section entry and exit
marks).

How long an operation *takes* is a question only the timed interpreter
asks, and the operation answers it too: :meth:`Op.charge` names the rule
of the :class:`~repro.sim.timing.TimingModel` (or the message cost) that
applies to its kind, and refuses what the model must never do — a step
that takes no time, a delay cut short.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Optional, Tuple, TYPE_CHECKING

from .timing import StepContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .process import Process
    from .registers import Register


__all__ = [
    "SimulationError",
    "Op",
    "Read",
    "Write",
    "ReadModifyWrite",
    "compare_and_swap",
    "fetch_and_add",
    "get_and_set",
    "Delay",
    "Nap",
    "LocalWork",
    "Label",
    "Send",
    "Broadcast",
    "Recv",
    "ENTRY_START",
    "CS_ENTER",
    "CS_EXIT",
    "EXIT_DONE",
    "DECIDED",
    "read",
    "write",
    "delay",
    "nap",
    "local_work",
    "label",
    "send",
    "broadcast",
    "recv",
]


class SimulationError(RuntimeError):
    """An algorithm program raised, or the simulation itself is broken."""


class Op:
    """Base class for everything a simulated process may yield.

    Every concrete subclass declares ``trace_kind``, the
    :class:`~repro.sim.trace.EventKind` string its trace record carries
    (not ``kind``: :class:`Label` has a field of that name).
    """

    __slots__ = ()

    #: True when the operation accesses shared memory (a "step").
    is_shared = False

    #: True when the operation touches the message substrate.  Message
    #: operations are the networked analogue of shared steps: the
    #: per-link delivery bound plays the role the paper's ``Δ`` plays for
    #: shared-memory steps (see :mod:`repro.net`).  They need a world
    #: with a ``transport``.
    is_message = False

    trace_kind: str

    def perform(self, world: Any, pid: int, now: Optional[float]) -> Any:
        """Apply the operation's effect to ``world`` on behalf of ``pid``.

        Returns the value sent back into the program.  ``now`` is the
        world's clock reading at the effect (``None`` where time does not
        exist).  Operations that only consume time have no effect.
        """
        return None

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        """The ``(register-or-dest, value)`` pair of the trace record,
        given the ``result`` :meth:`perform` returned."""
        return None, None

    def charge(self, world: Any, proc: "Process", now: float) -> float:
        """How long the operation issued by ``proc`` at ``now`` takes.

        ``world`` is the timed interpreter: it owns the ``timing`` model
        and, with a ``transport``, the ``send_cost``/``recv_cost`` of a
        message operation.  Every kind that consumes time overrides
        this; what is left is nothing the engine can run.
        """
        raise SimulationError(
            f"process {proc.pid} ({proc.name}) yielded a non-operation: {self!r}"
        )


def _charge_shared_step(op: Op, world: Any, proc: "Process", now: float) -> float:
    """A shared step takes what the timing model says — never no time."""
    duration = world.timing.shared_step_duration(
        StepContext(proc.pid, op, now, proc.shared_steps)
    )
    if duration <= 0:
        raise SimulationError(
            f"timing model produced nonpositive step duration {duration}"
        )
    return duration


def _charge_message(op: Op, world: Any, proc: "Process", now: float) -> float:
    """Handing messages to the network, or collecting them, costs the
    world's ``send_cost``/``recv_cost`` — the delivery delay is the
    transport's business."""
    if world.transport is None:
        raise SimulationError(
            f"process {proc.pid} ({proc.name}) yielded message op "
            f"{op!r}; message operations need a transport, and this "
            f"engine has none (pass Engine(transport=...))"
        )
    return world.recv_cost if op.trace_kind == "recv" else world.send_cost


@dataclass(frozen=True)
class Read(Op):
    """Atomically read a shared register; the register's value is sent back."""

    register: "Register"

    __slots__ = ("register",)

    is_shared = True
    trace_kind = "read"
    charge = _charge_shared_step

    def perform(self, world: Any, pid: int, now: Optional[float]) -> Any:
        return world.memory.read(self.register)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return self.register.name, result

    def __repr__(self) -> str:
        return f"Read({self.register.name!r})"


@dataclass(frozen=True)
class Write(Op):
    """Atomically write ``value`` to a shared register."""

    register: "Register"
    value: Any

    __slots__ = ("register", "value")

    is_shared = True
    trace_kind = "write"
    charge = _charge_shared_step

    def perform(self, world: Any, pid: int, now: Optional[float]) -> None:
        world.memory.write(self.register, self.value)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return self.register.name, self.value

    def __repr__(self) -> str:
        return f"Write({self.register.name!r}, {self.value!r})"


@dataclass(frozen=True)
class ReadModifyWrite(Op):
    """An atomic read-modify-write on one register (paper §4 extension).

    The paper's algorithms use reads and writes only; its Discussion
    section lists "synchronization primitives other than atomic registers"
    as an extension.  This op applies ``transform(old) -> (new, result)``
    atomically at the linearization point; the process receives
    ``result``.  ``transform`` must be pure (it may run more than once in
    replay-based exploration).

    Use the helpers :func:`compare_and_swap`, :func:`fetch_and_add` and
    :func:`get_and_set` for the classic primitives; ``name`` identifies
    the primitive in traces.
    """

    register: "Register"
    transform: "Callable[[Any], tuple]"
    name: str = "rmw"

    is_shared = True
    trace_kind = "rmw"
    charge = _charge_shared_step

    def perform(self, world: Any, pid: int, now: Optional[float]) -> Any:
        return world.memory.rmw(self.register, self.transform)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return self.register.name, result

    def __repr__(self) -> str:
        return f"ReadModifyWrite({self.register.name!r}, {self.name})"


def compare_and_swap(register: "Register", expected: Any, new: Any) -> ReadModifyWrite:
    """CAS: if the register holds ``expected``, store ``new``.

    The process receives ``True`` on success, ``False`` otherwise.
    """

    def transform(old: Any) -> tuple:
        if old == expected:
            return new, True
        return old, False

    return ReadModifyWrite(register, transform, name="cas")


def fetch_and_add(register: "Register", amount: Any = 1) -> ReadModifyWrite:
    """Atomically add ``amount``; the process receives the old value."""

    def transform(old: Any) -> tuple:
        return old + amount, old

    return ReadModifyWrite(register, transform, name="faa")


def get_and_set(register: "Register", new: Any) -> ReadModifyWrite:
    """Atomically store ``new``; the process receives the old value."""

    def transform(old: Any) -> tuple:
        return new, old

    return ReadModifyWrite(register, transform, name="gas")


@dataclass(frozen=True)
class Delay(Op):
    """The paper's explicit ``delay(d)`` statement.

    Under the timing-based semantics the process is suspended for *at
    least* ``duration`` time units (the engine charges exactly
    ``duration``, matching the paper's accounting convention).  Under
    fully asynchronous semantics — i.e. during timing failures — a delay
    provides no synchronization guarantee whatsoever, which is how the
    model checker treats it.
    """

    duration: float

    __slots__ = ("duration",)

    trace_kind = "delay"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"delay duration must be >= 0, got {self.duration}")

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return None, self.duration

    def charge(self, world: Any, proc: "Process", now: float) -> float:
        duration = world.timing.delay_duration(proc.pid, self.duration, now)
        if duration < self.duration:
            raise SimulationError(
                f"delay({self.duration}) shortened to {duration}: delay "
                f"must last at least the requested time"
            )
        return duration


class Nap(Delay):
    """A polling pause: a ``Delay`` nothing synchronizes on.

    The quorum phases and the replica loop poll — ``recv()``, and if that
    was not enough, pause a fraction of the delivery bound and look
    again.  That pause is a ``Nap``: to the engine and the model checker
    it *is* a ``Delay`` (same charge, same trace record, same absence of
    guarantees), but an interpreter may end it as soon as a message for
    this process arrives — waking early from a polling pause is
    indistinguishable from having polled faster, and the model promises
    nothing about poll granularity.  Never use it for a delay whose
    elapsing is the point (Algorithm 3's ``delay(Δ)``, a heartbeat
    period): those are ``Delay``s and always last their full duration.
    """

    __slots__ = ()


@dataclass(frozen=True)
class LocalWork(Op):
    """Local computation consuming ``duration`` time units.

    Does not touch shared memory; used to model the critical section body
    and the remainder (non-critical) section of long-lived workloads.
    """

    duration: float

    __slots__ = ("duration",)

    trace_kind = "local"

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"local work duration must be >= 0, got {self.duration}")

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return None, self.duration

    def charge(self, world: Any, proc: "Process", now: float) -> float:
        duration = world.timing.local_duration(proc.pid, self.duration, now)
        if duration < 0:
            raise SimulationError(f"local work duration must be >= 0, got {duration}")
        return duration


@dataclass(frozen=True)
class Label(Op):
    """A zero-duration trace annotation.

    The specification checkers recognise the well-known kinds below
    (``ENTRY_START``, ``CS_ENTER``, ...); arbitrary kinds may be used for
    ad-hoc instrumentation.  ``payload`` travels with the trace event.
    """

    # No __slots__ here: dataclass fields with defaults store a class
    # attribute, which conflicts with same-named slots on Python < 3.10's
    # dataclass (no ``slots=True``); Labels are rare enough not to matter.
    kind: str
    payload: Optional[Hashable] = None

    trace_kind = "label"


@dataclass(frozen=True)
class Send(Op):
    """Hand one message to the network, addressed to process ``dest``.

    The message is *in flight* from the operation's completion instant
    (its linearization point); the transport then assigns a delivery
    time within the link's delivery bound — or beyond it during a delay
    spike (the networked timing failure), or never (loss, partitions).
    The sender learns nothing about the outcome: ``None`` is sent back.
    """

    dest: int
    payload: Any

    __slots__ = ("dest", "payload")

    is_message = True
    trace_kind = "send"
    charge = _charge_message

    def perform(self, world: Any, pid: int, now: Optional[float]) -> None:
        world.transport.send(pid, self.dest, self.payload, now)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return self.dest, self.payload

    def __repr__(self) -> str:
        return f"Send(to={self.dest}, {self.payload!r})"


@dataclass(frozen=True)
class Broadcast(Op):
    """Hand one message per destination to the network.

    ``dests=None`` addresses every other process on the transport.  One
    broadcast linearizes as a single operation, but each copy travels
    (and may be dropped or delayed) independently — there is no
    reliable-broadcast guarantee, matching the crash-prone model.
    """

    payload: Any
    dests: Optional[Tuple[int, ...]] = None

    # No __slots__: a defaulted dataclass field stores a class attribute,
    # which conflicts with same-named slots before Python 3.10 (same
    # trade-off as Label above).

    is_message = True
    trace_kind = "send"
    charge = _charge_message

    def _audience(self, world: Any, pid: int) -> Tuple[int, ...]:
        return self.dests if self.dests is not None else world.transport.peers(pid)

    def perform(self, world: Any, pid: int, now: Optional[float]) -> None:
        send = world.transport.send
        for dest in self._audience(world, pid):
            send(pid, dest, self.payload, now)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return tuple(self._audience(world, pid)), self.payload

    def __repr__(self) -> str:
        to = "all" if self.dests is None else f"{list(self.dests)}"
        return f"Broadcast(to={to}, {self.payload!r})"


@dataclass(frozen=True)
class Recv(Op):
    """Collect every message delivered to this process so far.

    The process receives a list of ``(sender, payload)`` pairs, ordered
    by delivery time (ties by transport sequence).  Non-blocking: the
    list is empty when nothing has arrived — receivers poll.
    """

    __slots__ = ()

    is_message = True
    trace_kind = "recv"
    charge = _charge_message

    def perform(self, world: Any, pid: int, now: Optional[float]) -> Any:
        return world.transport.collect(pid, now)

    def trace_fields(self, world: Any, pid: int, result: Any) -> Tuple[Any, Any]:
        return None, result

    def __repr__(self) -> str:
        return "Recv()"


# Well-known label kinds used by the mutual-exclusion and consensus
# specification checkers.
ENTRY_START = "entry_start"
CS_ENTER = "cs_enter"
CS_EXIT = "cs_exit"
EXIT_DONE = "exit_done"
DECIDED = "decided"


def read(register: "Register") -> Read:
    """Convenience constructor: ``value = yield read(reg)``."""
    return Read(register)


def write(register: "Register", value: Any) -> Write:
    """Convenience constructor: ``yield write(reg, v)``."""
    return Write(register, value)


def delay(duration: float) -> Delay:
    """Convenience constructor for the paper's ``delay(d)`` statement."""
    return Delay(duration)


def nap(duration: float) -> Nap:
    """Convenience constructor: ``yield nap(poll)`` between two ``recv()``s."""
    return Nap(duration)


def local_work(duration: float) -> LocalWork:
    """Convenience constructor for local (non-shared) computation."""
    return LocalWork(duration)


def label(kind: str, payload: Optional[Hashable] = None) -> Label:
    """Convenience constructor for trace annotations."""
    return Label(kind, payload)


def send(dest: int, payload: Any) -> Send:
    """Convenience constructor: ``yield send(pid, msg)``."""
    return Send(dest, payload)


def broadcast(payload: Any, dests: Optional[Iterable[int]] = None) -> Broadcast:
    """Convenience constructor: ``yield broadcast(msg)`` (to everyone else)."""
    return Broadcast(payload, None if dests is None else tuple(dests))


def recv() -> Recv:
    """Convenience constructor: ``msgs = yield recv()``."""
    return Recv()
