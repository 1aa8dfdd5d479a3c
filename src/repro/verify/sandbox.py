"""Replayable asynchronous semantics for generator programs.

The model checker explores *arbitrary interleavings of shared-memory
steps* — the fully asynchronous semantics in which timing failures may
strike at any moment.  Accordingly:

* ``Read``/``Write`` are the scheduling points (one transition each);
* ``delay(d)`` is a no-op: under timing failures a delay provides no
  synchronization guarantee whatsoever, which is exactly what makes
  checking this semantics equivalent to checking "safety during timing
  failures";
* ``LocalWork`` with positive duration is a *pause point*: the process
  parks there for one transition.  This makes critical-section occupancy
  (which is bracketed by labels around a ``LocalWork`` body) an
  observable state — a zero-duration CS would otherwise be entered and
  left within a single advance and no interleaving could ever witness two
  processes inside.  Zero-duration local work is skipped;
* ``Label`` updates the observer state (critical-section occupancy,
  decisions) without consuming a transition.

A :class:`Sandbox` is one such execution: feed it pids with :meth:`step`
and inspect the resulting state.

Two assumptions carry everything that is memoized here.  A deterministic
program's future behaviour is a function of the sequence of values its
steps returned; and — finer, and what makes a spin loop a cycle instead
of an unrolling — it is a function of what its generator holds *now*: the
suspended frames.

* :meth:`Sandbox.fingerprint` rests on the first: ``(memory contents,
  per-process read histories, op counts, liveness)`` fully determines the
  reachable futures, and the method returns exactly that, as a tuple.  It
  is the exact reference for *one execution* and the key of the
  read-history search the tests keep as the explorer's reference.
* The explorer's :class:`_UndoSandbox` rests on the second.  Python
  generators cannot be forked, but a program's *position* — its frame
  state, and with it the pending op, whether it finished and with what —
  can be recorded: the sandbox keeps every ``(position, returned value)
  -> next position`` edge the first time a generator produces it and
  afterwards walks the recorded positions in both directions.  A
  generator is rebuilt, by re-sending the values recorded on *a* path to
  a position, only when an edge not seen before leaves a position the
  live generator is not standing at.

Frame states
------------
When a generator has been resumed along an edge not yet recorded, the
place it stops is keyed (:func:`_frame_state`): for the generator and
every generator it delegates to through ``yield from``, ``(f_code,
f_lasti, names of the bound locals, every local and evaluation-stack
slot)``, plus the pending op and what the observers hold for the pid
(``done``, the result, critical-section occupancy, the first decision).
The slots — the locals, and on the evaluation stack the iterator of a
``for`` loop around the ``yield`` or a half-evaluated expression — are
read with ``gc.get_referents``, of the generator on CPython 3.11+ and of
the frame before.  Lists, dicts, sets, cells, functions, ops and
iterators that pickle (``__reduce__``) are keyed by content, everything
else by ``==``/``hash`` — for an algorithm object, its identity; the
generator delegated to is keyed by its own frame, also where a local
holds it.  The key is looked up in a per-pid table and the position
found there is reused, so every read history that leads to one frame
state shares one position: ``await x = 0`` is an edge from a position to
itself, and a state space that is finite closes without ``max_ops``.

What a shared position cannot carry lives elsewhere: the op count and the
read-history length in the undo record, the labels an arrival emits on
the edge.  A frame that holds something the key cannot describe — a live
generator it is not delegating to, an iterator that does not pickle, an
unhashable object — gets a position of its own every time and is never
merged: sound, and as large as the read-history search.

Soundness is lint rule TMF003 — a program keeps no mutable state outside
its frames (none in a closed-over object, a global, an attribute of the
algorithm instance) — plus CPython's frame introspection showing all that
is inside them.  A program that breaks TMF003 breaks both assumptions.

The bound
---------
``max_ops`` is not part of a frame state, so "stopped by the bound" is:
a process with an op pending and its budget spent contributes one more
share to the digest (below).  Without it a state first reached parked
would prune the same frame states reached later with budget left.  The
converse pruning stays: a frame state first reached with little budget
left is not expanded again when reached with more, so a bounded search
covers less than "every prefix up to the bound" — every state it counts
and every witness it reports is real, and ``parked`` (the number of
processes the bound is stopping right now) says whether the bound
mattered at all: a search in which nothing was ever parked took every
transition of every state it counted, i.e. covered every execution of
any length.

The digest
----------
Building the reference tuple costs O(registers + depth) per state, and
storing it as much again.  :meth:`_UndoSandbox.fingerprint` is instead a
128-bit integer that is *maintained*: every position draws 128 random
bits (``z``) when it is first recorded, every ``(register name, frozen
value)`` cell draws 128 bits from a table the first time it is written,
every pid draws 128 for being parked, and the digest is the XOR of the
current positions' ``z``, the shares of the cells whose value differs
from the register's initial one and the park shares of the processes
stopped by the bound.  A step or an undo XORs one position out and one
in, and at most one cell's old share out and new share in, so recognising
a state is one set lookup of one int.  The bits come from a
``random.Random`` with a fixed seed, one per sandbox, so a run repeats.
Why this is (memory, frame states, who is parked) in disguise:

1. A position *is* a frame state: the per-pid table maps equal keys to
   one position, and positions that could not be keyed are each their
   own.  One ``z`` per position is one ``z`` per frame state.
2. A cell equal to ``register.initial`` has share 0, which is exactly
   :meth:`~repro.sim.registers.Memory.fingerprint`'s "restored to the
   default is never written".
3. All three tables (the frame keys, the ``next`` edges, the cell shares)
   are keyed by Python equality of frozen values.  So equal states give
   equal digests *exactly*, and unequal ones collide with probability at
   most ``pairs * 2**-128`` (below 1e-24 at 10**7 states); a collision
   would merge two states, i.e. prune, never invent one.
4. The digest covers mutations made through ``step``/``undo``, the only
   mutators :func:`~repro.verify.explorer.explore` has.  A
   ``memory.poke`` from outside between two steps is seen by the
   reference and not by the digest (``undo`` still restores it).
"""

from __future__ import annotations

import functools
import gc
import random
import sys
from collections.abc import Iterator
from types import CellType, FrameType, FunctionType, GeneratorType
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

from ..sim import ops as op_defs
from ..sim.ops import Label, LocalWork, Op, Read, Write
from ..sim.registers import Memory, Register, _freeze

__all__ = ["Sandbox", "ProgramFactory", "op_kind", "op_register"]

# A factory producing a fresh program for a pid (replays need fresh
# generators every time).
ProgramFactory = Callable[[int], Any]

# How many consecutive non-shared operations a program may execute before
# the sandbox declares it livelocked (labels/delays in a tight loop).
_MAX_NONSHARED_RUN = 10_000

# Read-history marker recording a crash-recovery restart.  No real read
# value can equal it (``_freeze`` never produces this tuple), so restarted
# histories stay distinct from unrestarted ones — fingerprint soundness.
_RESTART_MARK = ("__restart__",)


def op_kind(op: Optional[Op]) -> str:
    """Trace-op name for a pending op (see :meth:`Sandbox.pending_op`).

    Shared vocabulary for the harness that traces logical-clock steps,
    :func:`repro.chaos.runner.run_sim` (a fuzz run is one of its runs):
    the returned string is the ``op`` field of a ``repro.obs`` op record.
    """
    return op.trace_kind if op is not None else "step"


def op_register(op: Optional[Op]) -> Optional[str]:
    """Register name a pending op touches, or ``None`` (pause points)."""
    register = getattr(op, "register", None)
    return register.name if register is not None else None


class Sandbox:
    """One asynchronous execution, driven step by step."""

    def __init__(self, factories: Dict[int, ProgramFactory], max_ops: int) -> None:
        if max_ops < 1:
            raise ValueError(f"max_ops must be >= 1, got {max_ops}")
        self.memory = Memory()
        self.max_ops = max_ops
        self._programs: Dict[int, Any] = {}
        self._pending: Dict[int, Optional[Op]] = {}
        # Per pid, the values its reads and RMWs returned, as returned
        # (fingerprint() freezes them; a program never mutates what it read).
        self._read_history: Dict[int, List[Any]] = {}
        self._op_count: Dict[int, int] = {}
        self._done: Dict[int, bool] = {}
        self._results: Dict[int, Any] = {}
        self.in_cs: Set[int] = set()
        self.decisions: Dict[int, Any] = {}
        self.labels_seen: List[Tuple[int, str, Any]] = []
        self._pid_order = sorted(factories)
        for pid, factory in factories.items():
            self._programs[pid] = factory(pid)
            self._pending[pid] = None
            self._read_history[pid] = []
            self._op_count[pid] = 0
            self._done[pid] = False
            self._advance(pid, None)
        # What enabled() answers, kept current by step() and restart():
        # only the stepped or restarted pid can join or leave it.
        self._runnable = self._runnable_now()

    # -- driving -----------------------------------------------------------

    def enabled(self) -> List[int]:
        """Pids that can take a step right now — a shared op or a pause
        point pending, and budget left — in pid order.

        The list is the caller's: changing it leaves the sandbox alone.
        """
        return self._runnable[:]

    def _runnable_now(self) -> List[int]:
        """:meth:`enabled`, derived from every pid's pending op and budget."""
        return [
            pid
            for pid in self._pid_order
            if self._pending[pid] is not None and self._op_count[pid] < self.max_ops
        ]

    def suspended(self) -> List[int]:
        """Pids stopped only by the per-process op bound."""
        return sorted(
            pid
            for pid, op in self._pending.items()
            if op is not None and self._op_count[pid] >= self.max_ops
        )

    def step(self, pid: int) -> None:
        """Execute ``pid``'s pending shared step (its linearization)."""
        op = self._pending.get(pid)
        if op is None:
            raise ValueError(f"pid {pid} has no pending step (done or unknown)")
        count = self._op_count[pid] + 1
        if count > self.max_ops:
            raise ValueError(f"pid {pid} is suspended at the op bound")
        self._op_count[pid] = count
        # A pause point (LocalWork) just ends: its perform is the no-op.
        result = op.perform(self, pid, None)
        if op.is_shared and not isinstance(op, Write):
            # A read's value — and an RMW's result, which re-enters the
            # program the same way — must join the read history for
            # fingerprint soundness.  It joins as read: fingerprint()
            # freezes the history, and the linear callers never ask.
            self._read_history[pid].append(result)
        self._advance(pid, result)
        if count == self.max_ops or self._pending[pid] is None:
            self._runnable.remove(pid)  # at the bound, or finished

    def _advance(self, pid: int, send_value: Any) -> None:
        """Run ``pid`` forward to its next shared op (or to completion)."""
        program = self._programs[pid]
        for _ in range(_MAX_NONSHARED_RUN):
            try:
                op = program.send(send_value)
            except StopIteration as stop:
                self._pending[pid] = None
                self._done[pid] = True
                self._results[pid] = stop.value
                return
            if not isinstance(op, Op):
                raise TypeError(f"pid {pid} yielded a non-operation: {op!r}")
            if op.is_shared:
                self._pending[pid] = op  # the common case: a shared step
                return
            if op.is_message:
                raise TypeError(
                    f"pid {pid} yielded message op {op!r}; message operations "
                    f"need a transport, and the untimed sandbox has none"
                )
            if isinstance(op, LocalWork) and op.duration > 0:
                # A pause point (e.g. the CS body).
                self._pending[pid] = op
                return
            if isinstance(op, Label):
                self._observe_label(pid, op)
            # Anything else is a delay or zero-length local work, which
            # guarantee nothing under asynchrony: skip.
            send_value = None
        raise RuntimeError(
            f"pid {pid} executed {_MAX_NONSHARED_RUN} consecutive non-shared "
            f"operations: livelock in local code"
        )

    def _observe_label(self, pid: int, label: Label) -> None:
        self.labels_seen.append((pid, label.kind, label.payload))
        if label.kind == op_defs.CS_ENTER:
            if pid in self.in_cs:
                raise RuntimeError(f"pid {pid} entered CS twice without exiting")
            self.in_cs.add(pid)
        elif label.kind == op_defs.CS_EXIT:
            self.in_cs.discard(pid)
        elif label.kind == op_defs.DECIDED:
            self.decisions.setdefault(pid, label.payload)

    def restart(self, pid: int, factory: ProgramFactory) -> None:
        """Crash-recovery restart: fresh program instance, persistent memory.

        Volatile state vanishes — the generator is rebuilt from scratch and
        the per-incarnation op budget resets.  Observer state follows crash
        semantics: the dead incarnation's critical-section occupancy ended
        with it (the *registers* may still claim the lock; whether the
        algorithm copes is exactly what a recover campaign measures), while
        decisions persist — a decision, once announced, stays announced.
        """
        if pid not in self._programs:
            raise ValueError(f"unknown pid {pid}")
        self._programs[pid].close()
        self._programs[pid] = factory(pid)
        self._pending[pid] = None
        self._done[pid] = False
        self._results.pop(pid, None)
        self._op_count[pid] = 0
        self.in_cs.discard(pid)
        # The restart must stay visible to the fingerprint: two states that
        # differ only in "pid was restarted" have different futures.
        self._read_history[pid].append(_RESTART_MARK)
        self._advance(pid, None)
        self._runnable = self._runnable_now()

    # -- inspection ----------------------------------------------------------

    def pending_op(self, pid: int) -> Optional[Op]:
        """The shared op ``pid`` would execute on its next :meth:`step`.

        Observation only (tracing harnesses record the op kind/register
        before stepping); ``None`` when the process is done or unknown.
        """
        return self._pending.get(pid)

    def done(self, pid: int) -> bool:
        return self._done[pid]

    def all_quiescent(self) -> bool:
        """True when no process can take another step (done or suspended)."""
        return not self.enabled()

    def result(self, pid: int) -> Any:
        return self._results.get(pid)

    @property
    def results(self) -> Dict[int, Any]:
        return dict(self._results)

    def op_count(self, pid: int) -> int:
        return self._op_count[pid]

    def fingerprint(self) -> Hashable:
        """A sound digest: equal fingerprints have identical futures.

        A deterministic program's position is a function of the values its
        reads returned *and* the number of transitions it consumed (pause
        points advance the position without touching memory, so the op
        count is not derivable from the read history alone).
        """
        procs = tuple(self._process_key(pid) for pid in sorted(self._programs))
        return (self.memory.fingerprint(), procs)

    def _process_key(self, pid: int) -> Hashable:
        """``pid``'s share of the fingerprint (the read history frozen)."""
        return (
            pid,
            self._done[pid],
            self._op_count[pid],
            tuple(map(_freeze, self._read_history[pid])),
        )

    def __repr__(self) -> str:
        return (
            f"Sandbox(enabled={self.enabled()}, done="
            f"{sorted(p for p, d in self._done.items() if d)})"
        )


_UNDECIDED = object()

# Seed of each explorer sandbox's bit source: a constant, so a run repeats.
_DIGEST_SEED = 0x54494D494E47  # "TIMING"

# Who answers ``gc.get_referents`` with a suspended frame's locals and
# evaluation stack: the generator since CPython 3.11 (the frame is part of
# it), the frame object before.
_GENERATOR_OWNS_FRAME = sys.version_info >= (3, 11)


@functools.lru_cache(maxsize=None)
def _is_its_own_key(kind: type) -> bool:
    """Whether values of ``kind`` are keyed by their own ``==``/``hash``
    (most of what a frame holds: numbers, names, the algorithm object)."""
    return not issubclass(
        kind,
        (list, tuple, dict, set, frozenset, CellType, FunctionType, FrameType, Op, Iterator),
    )


@functools.lru_cache(maxsize=None)
def _slots_to_freeze(kinds: Tuple[type, ...]) -> Tuple[int, ...]:
    """Which of the slots holding values of these types are not their own key."""
    return tuple([slot for slot, kind in enumerate(kinds) if not _is_its_own_key(kind)])


def _slot_key(value: Any) -> Hashable:
    """``value`` as a frame-state key: equal keys, equal futures.

    Containers, cells, functions, ops and picklable iterators by content
    (type-tagged: a list is not the tuple of its items); anything else by
    its own ``==``/``hash``.  Raises ``TypeError`` for what neither covers.
    """
    kind = type(value)
    if _is_its_own_key(kind):
        return value  # unhashable after all: TypeError at the table lookup
    if isinstance(value, (list, tuple)):
        return (kind, tuple([_slot_key(item) for item in value]))
    if isinstance(value, dict):  # ordered: iteration order is behaviour
        return (kind, tuple([(_slot_key(k), _slot_key(v)) for k, v in value.items()]))
    if isinstance(value, (set, frozenset)):
        return (kind, frozenset([_slot_key(item) for item in value]))
    if kind is CellType:
        try:
            return (kind, _slot_key(value.cell_contents))
        except ValueError:  # an empty cell
            return kind
    if kind is FunctionType:
        return (value.__code__, _slot_key(value.__closure__), _slot_key(value.__defaults__))
    if isinstance(value, Op):
        fields = getattr(kind, "__dataclass_fields__", ())
        return (kind, tuple([_slot_key(getattr(value, name)) for name in fields]))
    if isinstance(value, Iterator) and kind.__reduce__ is not object.__reduce__:
        return (kind, _slot_key(value.__reduce__()))
    # A generator, an iterator that does not pickle, a frame.
    raise TypeError(f"cannot key {kind.__name__!r} object")


def _frame_state(program: Any) -> Hashable:
    """The suspended frames of ``program``, outermost first, as a key."""
    frames = []
    while True:
        frame = program.gi_frame
        named = frame.f_locals  # a dict the frame keeps, or (3.13+) a proxy
        # What a frame refers to besides its slots (the dicts before 3.11).
        scaffold = {id(frame), id(named), id(frame.f_globals), id(frame.f_builtins)}
        inner = program.gi_yieldfrom
        # A generator delegated to is keyed by its own frame, next turn;
        # here — on the stack, and in a local if one holds it — its type
        # stands for it.  Any other delegate is one more stack item.
        delegating = isinstance(inner, GeneratorType)
        # The bound locals in slot order, then the evaluation stack: the
        # names say which slots are bound, ``f_lasti`` how deep the stack
        # is, so equal tuples are equal locals and equal stacks.
        held = gc.get_referents(program if _GENERATOR_OWNS_FRAME else frame)
        for slot in _slots_to_freeze(tuple(map(type, held))):
            value = held[slot]
            if id(value) in scaffold:
                held[slot] = FrameType  # says nothing: the same in every state
            elif delegating and value is inner:
                held[slot] = GeneratorType
            else:
                held[slot] = _slot_key(value)
        frames.append((frame.f_code, frame.f_lasti, tuple(named), tuple(held)))
        if not delegating:
            return tuple(frames)
        program = inner


class _Position(NamedTuple):
    """One frame state of one program (module docstring).

    Everything the sandbox learns by resuming the generator to here, so
    that arriving a second time — or coming back — resumes nothing.
    """

    parent: Optional["_Position"]  # one step earlier on the path first taken here
    sent: Any  # the value that step returned into the program
    # By frozen returned value, as discovered: where it leads, and the
    # labels emitted on the way (what arriving appends to labels_seen).
    next: Dict[Hashable, Tuple["_Position", Tuple[Tuple[int, str, Any], ...]]]
    op: Optional[Op]
    done: bool
    result: Any
    in_cs: bool
    decision: Any
    z: int  # this position's 128-bit share of the state digest
    # The pending op's footprint: the name of the register it touches
    # (None at a pause point or the end) and whether it changes the cell.
    touches: Optional[Hashable]
    writes: bool


class _UndoSandbox(Sandbox):
    """A sandbox whose steps can be taken back, for depth-first search.

    :meth:`step` does what :meth:`Sandbox.step` does and keeps an undo
    record, but follows a recorded edge from the current position (module
    docstring) when there is one and resumes a generator only when there
    is not.  The flat per-pid state of the base class — read histories
    and ``labels_seen`` included — is kept current, so inspection and
    properties work unchanged, and :meth:`Sandbox.fingerprint` called
    unbound is still the exact reference of the execution that led here.
    :meth:`fingerprint` is the maintained digest of (memory, frame states,
    who is parked), and :meth:`commuting` says which pending steps can be
    taken in either order.
    Costs a table of positions and three of random bits (one ``z`` per
    position, one share per cell ever written, one per pid), and saves a
    tuple of all of memory and of every read history per arrival, and
    every state that differs from one already seen only in how it was
    reached.

    The linear callers (fuzz, chaos, replay) stay on the base class: a
    random run seldom meets a state again, so the memo mostly costs.  200
    ``alg3_n4`` fuzz runs on one sandbox of this class, shared across the
    runs and reset by :meth:`undo`, drew the schedules ``run_sim`` draws
    and took 207.5 ms with an empty table and 139.9 ms with the table the
    same 200 runs had filled, against 97.6 ms through ``run_sim`` on the
    base class (medians of 5, one CPython 3.11 process on a 2-vCPU VM).
    The table does not settle either: 200 more run seeds took it from 567
    to 653 keyed positions.
    """

    def __init__(self, factories: Dict[int, ProgramFactory], max_ops: int) -> None:
        self._factories = factories
        self._position: Dict[int, _Position] = {}
        # Where each live generator stands, which is not where its process
        # stands once the search has backed up.
        self._generator_at: Dict[int, _Position] = {}
        # pid -> frame-state key -> the one position that stands for it.
        self._frames: Dict[int, Dict[Hashable, _Position]] = {pid: {} for pid in factories}
        # Per step: pid, position before, register touched and what it
        # held, digest bits the cell flipped, lengths of the pid's read
        # history and of labels_seen before.
        self._undo_log: List[Tuple[int, _Position, Any, Any, int, int, int]] = []
        # The state digest: XOR of the current positions' ``z``, of the
        # shares of the cells that differ from their initial value, and of
        # the park shares of the processes stopped by the bound.
        self._digest = 0
        self._cell_share: Dict[Tuple[Hashable, Hashable], int] = {}
        self._random_bits = random.Random(_DIGEST_SEED).getrandbits
        self._park_share = {pid: self._random_bits(128) for pid in sorted(factories)}
        #: A pid's bit in the sets of pids :meth:`commuting` takes.
        self.bit = {pid: 1 << index for index, pid in enumerate(sorted(factories))}
        #: How many processes the bound is stopping in the current state.
        self.parked = 0
        super().__init__(factories, max_ops)

    def step(self, pid: int) -> None:
        """:meth:`Sandbox.step`, remembering what :meth:`undo` must restore."""
        here = self._position.get(pid)
        op = None if here is None else here.op
        if op is None:
            raise ValueError(f"pid {pid} has no pending step (done or unknown)")
        count = self._op_count[pid] + 1
        if count > self.max_ops:
            raise ValueError(f"pid {pid} is suspended at the op bound")
        self._op_count[pid] = count
        # A read changes no cell: nothing to restore, nothing to XOR.
        register = op.register if here.writes else None
        before = None if register is None else self.memory.peek(register)
        history = self._read_history[pid]
        reads, labels = len(history), len(self.labels_seen)
        # A pause point (LocalWork) just ends: its perform is the no-op.
        result = op.perform(self, pid, None)
        edge = _freeze(result)
        if here.touches is not None and not isinstance(op, Write):
            # A read's value, or an RMW's result: the read history.
            history.append(edge)
        arrival = here.next.get(edge)
        if arrival is None:
            self._resume(pid, here, result, edge)
        else:
            there, emitted = arrival
            if emitted:
                self.labels_seen.extend(emitted)
            self._place(pid, there)
        flipped = 0
        if register is not None:
            after = self.memory.peek(register)
            if after is not before:  # not rewritten with the object it held
                flipped = self._share(register, before) ^ self._share(register, after)
                self._digest ^= flipped
        if count >= self.max_ops and self._pending[pid] is not None:
            self._digest ^= self._park_share[pid]
            self.parked += 1
        self._undo_log.append((pid, here, register, before, flipped, reads, labels))

    def undo(self) -> None:
        """Take back the most recent :meth:`step` not yet undone."""
        pid, here, register, before, flipped, reads, labels = self._undo_log.pop()
        if (self.parked and self._op_count[pid] >= self.max_ops
                and self._pending[pid] is not None):
            self._digest ^= self._park_share[pid]  # a step never starts parked
            self.parked -= 1
        del self.labels_seen[labels:]
        if register is not None:
            self.memory.poke(register, before)
            self._digest ^= flipped
        self._op_count[pid] -= 1
        del self._read_history[pid][reads:]
        self._place(pid, here)

    # Steps are taken back here, so the runnable list is derived, not kept.
    enabled = Sandbox._runnable_now

    def fingerprint(self) -> int:
        """The maintained digest of the state (module docstring)."""
        return self._digest

    def commuting(self, pid: int, pids: int) -> int:
        """The pids of ``pids`` (a bitmask, see :attr:`bit`) whose pending
        steps commute with ``pid``'s.

        Taken in either order, two commuting steps reach the same state,
        and neither disables the other.  That is decided by the two
        pending ops alone: a step changes only its own process's position,
        op count and observers (``in_cs``, ``decisions``, keyed by pid)
        and the one cell its op writes, so the steps commute unless both
        touch one register and one of them writes it.  A pause point
        touches none and commutes with everything; a read commutes with
        another read of its register; a write or read-modify-write does
        not commute with any other op on its register.
        """
        step = self._position[pid]
        touches = step.touches
        if touches is None or not pids:
            return pids
        position = self._position
        for other, bit in self.bit.items():
            if pids & bit:
                there = position[other]
                if there.touches == touches and (step.writes or there.writes):
                    pids ^= bit
        return pids

    def _share(self, register: Register, value: Any) -> int:
        """The bits a cell holding ``value`` contributes to the digest."""
        if value == register.initial:
            return 0
        cell = (register.name, _freeze(value))
        share = self._cell_share.get(cell)
        if share is None:
            share = self._cell_share[cell] = self._random_bits(128)
        return share

    def restart(self, pid: int, factory: ProgramFactory) -> None:
        raise NotImplementedError("positions do not span incarnations")

    def _advance(self, pid: int, send_value: Any) -> None:
        # Only Sandbox.__init__ gets here, to find where ``pid`` starts.
        self._resume(pid, None, send_value, _freeze(send_value))

    def _resume(self, pid: int, here: Optional[_Position], sent: Any, edge: Hashable) -> None:
        """Resume ``pid``'s generator from ``here`` by ``sent`` (frozen:
        ``edge``), an edge not recorded yet, and record where it leads."""
        if self._generator_at.get(pid) is not here:
            self._rebuild(pid, here)
        mark = len(self.labels_seen)
        super()._advance(pid, sent)
        there = self._frame_position(pid, here, sent)
        if here is not None:
            here.next[edge] = (there, tuple(self.labels_seen[mark:]))
            self._digest ^= here.z
        self._digest ^= there.z
        self._position[pid] = self._generator_at[pid] = there

    def _frame_position(self, pid: int, here: Optional[_Position], sent: Any) -> _Position:
        """The position for where ``pid``'s generator has just stopped: the
        one already standing for this frame state, or a new one reached
        from ``here`` by ``sent``."""
        op, done, result = self._pending[pid], self._done[pid], self._results.get(pid)
        in_cs, decision = pid in self.in_cs, self.decisions.get(pid, _UNDECIDED)
        try:
            key: Hashable = (
                _slot_key(op), done, _slot_key(result), in_cs, _slot_key(decision),
                () if done else _frame_state(self._programs[pid]),
            )
            there = self._frames[pid].get(key)
        except (TypeError, RecursionError):
            # Something in a frame has no key: a position of its own.
            key = there = None
        if there is None:
            shared = op is not None and op.is_shared
            there = _Position(
                parent=here, sent=sent, next={}, op=op, done=done, result=result,
                in_cs=in_cs, decision=decision, z=self._random_bits(128),
                touches=op.register.name if shared else None,
                writes=shared and not isinstance(op, Read),
            )
            if key is not None:
                self._frames[pid][key] = there
        return there

    def _place(self, pid: int, position: _Position) -> None:
        """Make ``position`` the state of ``pid`` that inspection sees."""
        old = self._position[pid]
        self._digest ^= old.z ^ position.z
        self._position[pid] = position
        self._pending[pid] = position.op
        # The observers change on few steps: touch what differs.
        if position.done:
            self._done[pid] = True
            self._results[pid] = position.result
        elif old.done:
            self._done[pid] = False
            del self._results[pid]
        if position.in_cs is not old.in_cs:
            if position.in_cs:
                self.in_cs.add(pid)
            else:
                self.in_cs.discard(pid)
        if position.decision is not old.decision:
            if position.decision is _UNDECIDED:
                del self.decisions[pid]
            else:
                self.decisions[pid] = position.decision

    def _rebuild(self, pid: int, target: _Position) -> None:
        """Replace ``pid``'s generator by a fresh one driven to ``target``
        along the path that first reached it (any path to a frame state
        leaves the generator in that frame state)."""
        sent = []
        position: Optional[_Position] = target
        while position is not None:
            sent.append(position.sent)
            position = position.parent
        self._programs[pid].close()
        self._programs[pid] = self._factories[pid](pid)
        # The labels on the way are already accounted for; let the replay
        # announce them to observers nobody reads.
        observers = self.in_cs, self.decisions, self.labels_seen
        self.in_cs, self.decisions, self.labels_seen = set(), {}, []
        try:
            for value in reversed(sent):
                super()._advance(pid, value)
        finally:
            self.in_cs, self.decisions, self.labels_seen = observers
        self._generator_at[pid] = target
