"""Speculative self-stabilizing mutual exclusion (Dubois–Guerraoui).

Dubois and Guerraoui, "Introducing Speculation in Self-Stabilization"
(arXiv:1302.2217), observe that a self-stabilizing algorithm may be
*speculative*: correct under full asynchrony from **any** transient state,
while optimized for the common synchronous case.  Their exemplar — and
this module — is Dijkstra's K-state token ring:

.. code-block:: none

    shared S[0..n-1]: atomic registers, S[i] written only by process i
    privilege(0):  S[0]  = S[n-1]         move(0):  S[0] := S[0] + 1 mod K
    privilege(i):  S[i] != S[i-1], i > 0  move(i):  S[i] := S[i-1]

with ``K > n``.  A process may enter its critical section exactly while it
holds the privilege; leaving the critical section performs the move, which
passes the privilege along the ring.

**Self-stabilization** — from an *arbitrary* configuration (e.g. after a
``MemCorruption`` scrambles the token array) the ring converges to a legal
configuration with exactly one privilege in a finite number of moves:
non-root moves only copy values, so junk drains out of the ring, and the
root keeps incrementing modulo ``K`` until it holds a value appearing
nowhere else (``K > n`` guarantees one exists), which resets the ring.
During convergence several processes may be privileged simultaneously —
mutual exclusion may be violated *transiently*, which is exactly what the
chaos :class:`~repro.chaos.monitors.StabilizationMonitor` tolerates inside
its stabilization window and rejects after it.

**Speculation** — under a synchronous round-robin schedule the ring
converges within :func:`speculative_bound` sandbox steps (the fast path
the verifier checks under synchrony); under asynchrony convergence is
still guaranteed, just without the bound.
"""

# repro-lint: registers-only  (the token ring is purely asynchronous)

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..sim import ops
from ..sim.process import Program
from ..sim.registers import Array, Register, RegisterNamespace
from .base import MutexAlgorithm, MutexProperties

__all__ = [
    "DGTokenMutex",
    "stabilizing_session",
    "stabilizing_ring",
    "speculative_bound",
]


def speculative_bound(n: int, k: Optional[int] = None) -> int:
    """Shared-step bound for convergence under round-robin synchrony.

    The speculation contract: starting from *any* configuration, a
    synchronous round-robin schedule reaches a legal configuration (single
    privilege) within this many sandbox steps.  Each privilege test costs
    two reads and each move two more ops; the root needs at most ``K``
    increments to find a fresh value and each then drains around the ring,
    so ``O(n·(n+K))`` steps suffice — the constant is generous slack, not
    a tight analysis.
    """
    k = n + 1 if k is None else k
    return 8 * n * (n + k)


class DGTokenMutex(MutexAlgorithm):
    """Dijkstra's K-state token ring as a speculative self-stabilizing lock.

    Parameters
    ----------
    n:
        Ring size.  ``K > n`` is required for self-stabilization; the
        default ``K = n + 1`` is the minimum.
    k:
        Number of token states (the paper's ``K``).
    namespace:
        Register namespace; defaults to a private one.
    """

    name = "dg_mutex"

    def __init__(
        self,
        n: int,
        k: Optional[int] = None,
        namespace: Optional[RegisterNamespace] = None,
    ) -> None:
        if n < 2:
            raise ValueError(f"need at least 2 processes, got {n}")
        k = n + 1 if k is None else k
        if k <= n:
            raise ValueError(f"self-stabilization needs K > n, got K={k} n={n}")
        self.n = n
        self.k = k
        ns = namespace if namespace is not None else RegisterNamespace.unique("dg")
        #: The token array: ``s[i]`` is written only by process ``i``.
        self.s = ns.array("S", 0)
        #: Per-cell handles, for corruption tables and legality predicates.
        self.cells: List[Register] = [self.s[i] for i in range(n)]

    @property
    def properties(self) -> MutexProperties:
        return MutexProperties(
            deadlock_free=True,
            starvation_free=True,  # the privilege circulates the ring
            fast=False,  # entry waits for the token even without contention
            timing_based=False,
            exclusion_resilient=True,
        )

    def register_count(self, n: int) -> int:
        return n

    def privileged(self, pid: int) -> Program:
        """Generator returning whether ``pid`` currently holds the privilege."""
        mine = yield self.s[pid].read()
        left = yield self.s[self.n - 1 if pid == 0 else pid - 1].read()
        if pid == 0:
            return mine == left
        return mine != left

    def entry(self, pid: int) -> Program:
        while True:
            if (yield from self.privileged(pid)):
                return

    def exit(self, pid: int) -> Program:
        # The move: consume the privilege, passing it along the ring.
        if pid == 0:
            mine = yield self.s[0].read()
            yield self.s[0].write((mine + 1) % self.k)
        else:
            left = yield self.s[pid - 1].read()
            yield self.s[pid].write(left)

    def __repr__(self) -> str:
        return f"DGTokenMutex(n={self.n}, k={self.k})"


def stabilizing_session(
    lock: DGTokenMutex,
    done: Array,
    pid: int,
    sessions: int,
    cs_duration: float = 0.0,
) -> Program:
    """``sessions`` entry/CS/exit cycles, then *helper mode*.

    A token ring has a liveness quirk the plain
    :func:`~repro.algorithms.base.mutex_session` driver trips over: a
    process that simply stops after its last session freezes the token
    whenever the privilege reaches it, wedging everyone else.  Here a
    finished process raises its (single-writer) ``done`` flag and keeps
    *forwarding* the privilege — performing the move without entering the
    critical section — until every flag is up.

    Restart-safe: ``done`` is shared, so it outlives a crash.  A fresh
    incarnation that finds its own flag already up has had its sessions —
    the others may have seen every flag and left, and a ring of one never
    gets the privilege back — so it goes straight to helper mode.
    """
    if sessions < 0:
        raise ValueError(f"sessions must be >= 0, got {sessions}")
    retired = yield done[pid].read()
    for session in range(0 if retired else sessions):
        yield ops.label(ops.ENTRY_START)
        yield from lock.entry(pid)
        yield ops.label(ops.CS_ENTER, session)
        if cs_duration > 0:
            yield ops.local_work(cs_duration)
        yield ops.label(ops.CS_EXIT, session)
        yield from lock.exit(pid)
        yield ops.label(ops.EXIT_DONE, session)
    yield done[pid].write(True)
    while True:
        finished = True
        for i in range(lock.n):
            value = yield done[i].read()
            if not value:
                finished = False
                break
        if finished:
            return sessions
        if (yield from lock.privileged(pid)):
            yield from lock.exit(pid)


def stabilizing_ring(
    n: int,
    sessions: int = 1,
    cs_duration: float = 0.0,
    k: Optional[int] = None,
    namespace: Optional[RegisterNamespace] = None,
) -> Tuple[DGTokenMutex, Callable[[int], Program]]:
    """A lock plus a per-pid program factory running the stabilizing session.

    The factory shape is what crash-recovery needs: a restarted process
    gets a fresh program over the same persistent registers.
    """
    ns = (
        namespace
        if namespace is not None
        else RegisterNamespace.unique("dg_ring")
    )
    lock = DGTokenMutex(n, k=k, namespace=ns)
    done = ns.array("done", False)

    def factory(pid: int) -> Program:
        return stabilizing_session(lock, done, pid, sessions, cs_duration)

    return lock, factory
