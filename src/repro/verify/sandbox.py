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

One assumption carries everything that is memoized here: a deterministic
program's future behaviour is a function of the sequence of values its
steps returned.

* Fingerprints are sound because of it: ``(memory contents, per-process
  read histories, per-process liveness)`` fully determines the reachable
  futures, and :meth:`Sandbox.fingerprint` returns exactly that, as a
  tuple.  It is the exact reference; the explorer recognises a state by
  an integer digest of it (below).
* Backtracking needs no re-execution because of it.  Python generators
  cannot be forked, but a program's *position* — its pending op, the
  labels it emitted on the way there, whether it finished and with what
  — is that same function of the returned values, so the explorer's
  :class:`_UndoSandbox` records every ``(position, returned value) ->
  next position`` edge the first time a generator produces it and
  afterwards walks the recorded positions in both directions.  A
  generator is rebuilt, by re-sending the values recorded on the way to
  a position, only when an edge not seen before leaves a position the
  live generator has already moved past.

Programs that close over shared mutable state (lint rule TMF003) are not
such functions, and break both.

The digest
----------
Building the reference tuple costs O(registers + depth) per state, and
storing it as much again.  :meth:`_UndoSandbox.fingerprint` is instead a
128-bit integer that is *maintained*: every position draws 128 random
bits (``z``) when it is first recorded, every ``(register name, frozen
value)`` cell draws 128 bits from a table the first time it is written,
and the digest is the XOR of the current positions' ``z`` and the shares
of the cells whose value differs from the register's initial one.  A step
or an undo XORs one position out and one in, and at most one cell's old
share out and new share in, so recognising a state is one set lookup of
one int.  The bits come from a ``random.Random`` with a fixed seed, one
per sandbox, so a run repeats.  Why this is the reference in disguise:

1. A position *is* its ``_process_key``.  Op kinds are a function of the
   values returned so far, so ``(op count, read history)`` and the path
   of ``sent`` values from the start position determine each other, and
   ``done`` is a function of the position: one ``z`` per position is one
   ``z`` per process key.
2. A cell equal to ``register.initial`` has share 0, which is exactly
   :meth:`~repro.sim.registers.Memory.fingerprint`'s "restored to the
   default is never written".
3. Both tables (the ``next`` edges, the cell shares) are keyed by Python
   equality of frozen values, as the tuples were compared.  So equal
   reference fingerprints give equal digests *exactly* — the search never
   counts more states than the reference — and unequal ones collide with
   probability at most ``pairs * 2**-128`` (below 1e-24 at 10**7 states);
   a collision would merge two states, i.e. prune, never invent one.
4. The digest covers mutations made through ``step``/``undo``, the only
   mutators :func:`~repro.verify.explorer.explore` has.  A
   ``memory.poke`` from outside between two steps is seen by the
   reference and not by the digest (``undo`` still restores it).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

from ..sim import ops as op_defs
from ..sim.ops import Label, LocalWork, Op, Write
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

    Shared vocabulary for the harnesses that trace logical-clock steps
    (:mod:`repro.chaos.runner`, :mod:`repro.verify.fuzz`): the returned
    string is the ``op`` field of a ``repro.obs`` op record.
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
        self._read_history: Dict[int, List[Hashable]] = {}
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

    # -- driving -----------------------------------------------------------

    def enabled(self) -> List[int]:
        """Pids that can take a shared step right now."""
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
        if self._op_count[pid] >= self.max_ops:
            raise ValueError(f"pid {pid} is suspended at the op bound")
        self._op_count[pid] += 1
        # A pause point (LocalWork) just ends: its perform is the no-op.
        result = op.perform(self, pid, None)
        if op.is_shared and not isinstance(op, Write):
            # A read's value — and an RMW's result, which re-enters the
            # program the same way — must join the read history for
            # fingerprint soundness.
            self._read_history[pid].append(_freeze(result))
        self._advance(pid, result)

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
            if op.is_message:
                raise TypeError(
                    f"pid {pid} yielded message op {op!r}; message operations "
                    f"need a transport, and the untimed sandbox has none"
                )
            if op.is_shared or (isinstance(op, LocalWork) and op.duration > 0):
                # A shared step, or a pause point (e.g. the CS body).
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
        """``pid``'s share of the fingerprint."""
        return (
            pid,
            self._done[pid],
            self._op_count[pid],
            tuple(self._read_history[pid]),
        )

    def __repr__(self) -> str:
        return (
            f"Sandbox(enabled={self.enabled()}, done="
            f"{sorted(p for p, d in self._done.items() if d)})"
        )


_UNDECIDED = object()

# Seed of each explorer sandbox's bit source: a constant, so a run repeats.
_DIGEST_SEED = 0x54494D494E47  # "TIMING"


class _Position(NamedTuple):
    """Where one program stands after a given sequence of returned values.

    Everything the sandbox learns by resuming the generator to here, so
    that arriving a second time — or coming back — resumes nothing.
    """

    parent: Optional["_Position"]  # one step earlier; None at the start
    sent: Any  # the value that step returned into the program
    next: Dict[Hashable, "_Position"]  # by frozen returned value, as discovered
    op: Optional[Op]
    done: bool
    result: Any
    in_cs: bool
    decision: Any
    labels: List[Tuple[int, str, Any]]  # what arriving appends to labels_seen
    op_count: int  # transitions consumed on the way here
    reads: int  # length of the read history here (undo truncates to it)
    z: int  # this position's 128-bit share of the state digest


class _UndoSandbox(Sandbox):
    """A sandbox whose steps can be taken back, for depth-first search.

    :meth:`step` is :meth:`Sandbox.step` plus an undo record; only
    ``_advance`` differs, consulting the recorded positions (module
    docstring) before it resumes a generator.  The flat per-pid state of
    the base class is kept current, so inspection and properties work
    unchanged.  :meth:`fingerprint` is the maintained digest, not the
    reference tuple (module docstring).  Costs a table of positions and
    two tables of random bits (one ``z`` per position, one share per cell
    ever written) — which is why the linear callers (fuzz, chaos, replay)
    stay on the base class — and saves a tuple of all of memory and of
    every read history per arrival, and a copy of the read history per
    position.
    """

    def __init__(self, factories: Dict[int, ProgramFactory], max_ops: int) -> None:
        self._factories = factories
        self._position: Dict[int, _Position] = {}
        # Where each live generator stands, which is not where its process
        # stands once the search has backed up.
        self._generator_at: Dict[int, _Position] = {}
        self._undo_log: List[Tuple[int, _Position, Any, Any, int]] = []
        # The state digest: XOR of the current positions' ``z`` and of the
        # shares of the cells that differ from their initial value.
        self._digest = 0
        self._cell_share: Dict[Tuple[Hashable, Hashable], int] = {}
        self._random_bits = random.Random(_DIGEST_SEED).getrandbits
        super().__init__(factories, max_ops)

    def step(self, pid: int) -> None:
        """:meth:`Sandbox.step`, remembering what :meth:`undo` must restore."""
        here = self._position.get(pid)
        register = getattr(self._pending.get(pid), "register", None)
        before = None if register is None else self.memory.peek(register)
        super().step(pid)
        flipped = 0
        if register is not None:
            after = self.memory.peek(register)
            if after is not before:  # a read leaves the very same object
                flipped = self._share(register, before) ^ self._share(register, after)
                self._digest ^= flipped
        self._undo_log.append((pid, here, register, before, flipped))

    def undo(self) -> None:
        """Take back the most recent :meth:`step` not yet undone."""
        pid, here, register, before, flipped = self._undo_log.pop()
        arrived = len(self._position[pid].labels)
        if arrived:
            del self.labels_seen[-arrived:]
        if register is not None:
            self.memory.poke(register, before)
            self._digest ^= flipped
        self._op_count[pid] = here.op_count
        del self._read_history[pid][here.reads:]
        self._place(pid, here)

    def fingerprint(self) -> int:
        """The maintained digest of :meth:`Sandbox.fingerprint` (module docstring)."""
        return self._digest

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
        here = self._position.get(pid)  # None while __init__ finds the starts
        edge = _freeze(send_value)
        there = here.next.get(edge) if here is not None else None
        if there is not None:
            self.labels_seen.extend(there.labels)
            self._place(pid, there)
            return
        if self._generator_at.get(pid) is not here:
            self._rebuild(pid, here)
        mark = len(self.labels_seen)
        super()._advance(pid, send_value)
        there = _Position(
            parent=here,
            sent=send_value,
            next={},
            op=self._pending[pid],
            done=self._done[pid],
            result=self._results.get(pid),
            in_cs=pid in self.in_cs,
            decision=self.decisions.get(pid, _UNDECIDED),
            labels=self.labels_seen[mark:],
            op_count=self._op_count[pid],
            reads=len(self._read_history[pid]),
            z=self._random_bits(128),
        )
        if here is not None:
            here.next[edge] = there
            self._digest ^= here.z
        self._digest ^= there.z
        self._position[pid] = self._generator_at[pid] = there

    def _place(self, pid: int, position: _Position) -> None:
        """Make ``position`` the state of ``pid`` that inspection sees."""
        self._digest ^= self._position[pid].z ^ position.z
        self._position[pid] = position
        self._pending[pid] = position.op
        self._done[pid] = position.done
        if position.done:
            self._results[pid] = position.result
        else:
            self._results.pop(pid, None)
        if position.in_cs:
            self.in_cs.add(pid)
        else:
            self.in_cs.discard(pid)
        if position.decision is _UNDECIDED:
            self.decisions.pop(pid, None)
        else:
            self.decisions[pid] = position.decision

    def _rebuild(self, pid: int, target: _Position) -> None:
        """Replace ``pid``'s generator by a fresh one driven to ``target``."""
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
