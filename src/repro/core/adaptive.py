"""Algorithm 3 with an online-estimated Δ (§3.3, closing remark).

"If Δ (or optimistic(Δ)) is *not* a priori known, we can start with a
small estimated value and change it over time.  One potential way to
estimate Δ is to use a technique similar to the one used in TCP
congestion control."

:class:`AdaptiveMutex` realizes that remark.  The doorway delays for the
current value of a shared ``estimate`` register instead of a fixed ``Δ``:

* **safety needs nothing** — mutual exclusion comes from the embedded
  asynchronous lock ``A``, so a hopeless underestimate merely floods
  ``A`` (exactly what a timing failure would do);
* the **feedback signal** is that flood itself, sensed two ways: waiting
  at the Bar-David gate, and — the watertight one — a CS sequence number
  that changed between a process's doorway clearance and its own CS entry
  (of any two co-occupants of ``A``, the one entering the CS second
  always observes the first's increment).  Either signal *doubles* the
  shared estimate (multiplicative increase);
* after ``shrink_after`` consecutive uncontended acquisitions, a process
  nudges the estimate back down by ``shrink_step`` (additive decrease),
  restoring optimism when the environment calms.

Updates to ``estimate`` race benignly: it is a performance knob, monotone
under concurrent doublings up to interleaving noise, and never consulted
for safety.  The test suite drives the full arc: a tiny initial estimate
floods ``A``; the estimate grows past the true bound; the doorway
serializes again (embedded population returns to 1).
"""

# repro-lint: registers-only  (self-tuning Algorithm 3, atomic registers alone)

from __future__ import annotations

from typing import Optional

from ..algorithms.bar_david import BarDavidLock
from ..algorithms.base import MutexAlgorithm, MutexProperties
from ..algorithms.lamport_fast import LamportFastLock
from ..sim import ops
from ..sim.process import Program
from ..sim.registers import RegisterNamespace

__all__ = ["AdaptiveMutex", "default_adaptive_mutex"]

_FREE = None


class AdaptiveMutex(MutexAlgorithm):
    """Algorithm 3 with a self-tuning doorway delay.

    Parameters
    ----------
    inner:
        The embedded asynchronous lock ``A``.  Contention detection is
        built on the Bar-David wrapper's gate, so ``inner`` must be a
        :class:`~repro.algorithms.bar_david.BarDavidLock` (use
        :func:`default_adaptive_mutex` for the standard instantiation).
    initial_estimate:
        The optimistic starting value for the doorway delay.
    growth:
        Multiplier applied to the shared estimate on observed contention.
    shrink_after / shrink_step:
        Additive decrease after that many consecutive uncontended
        acquisitions (0 disables shrinking).
    ceiling:
        Upper clamp for the estimate.
    """

    name = "adaptive_mutex"

    def __init__(
        self,
        inner: BarDavidLock,
        initial_estimate: float,
        growth: float = 2.0,
        shrink_after: int = 0,
        shrink_step: float = 0.0,
        ceiling: float = float("inf"),
        namespace: Optional[RegisterNamespace] = None,
    ) -> None:
        if initial_estimate <= 0:
            raise ValueError(
                f"initial_estimate must be positive, got {initial_estimate}"
            )
        if growth <= 1.0:
            raise ValueError(f"growth must be > 1, got {growth}")
        if shrink_after < 0 or shrink_step < 0:
            raise ValueError("shrink parameters must be >= 0")
        self.inner = inner
        ns = namespace if namespace is not None else RegisterNamespace.unique("adaptive")
        self.x = ns.register("x", _FREE)
        self.estimate = ns.register("estimate", float(initial_estimate))
        self.cs_seq = ns.register("cs_seq", 0)
        self.growth = float(growth)
        self.shrink_after = shrink_after
        self.shrink_step = float(shrink_step)
        self.ceiling = float(ceiling)
        # Per-process uncontended streaks.  Each process reads and writes
        # only its own cell, so these are honest single-writer registers —
        # keeping them in shared memory (rather than instance state) keeps
        # the model checker's fingerprints and the threaded backend sound.
        self.streaks = ns.array("streak", 0)  # repro-lint: single-writer
        self.name = f"adaptive({inner.name})"

    @property
    def properties(self) -> MutexProperties:
        return MutexProperties(
            deadlock_free=True,
            starvation_free=False,
            fast=self.inner.properties.fast,
            timing_based=True,
            exclusion_resilient=True,
        )

    def register_count(self, n: int) -> Optional[int]:
        inner_count = self.inner.register_count(n)
        if inner_count is None:
            return None
        # x, estimate, cs_seq; plus one streak cell per process when the
        # shrink policy is active (the only regime that touches them).
        extra = n if self.shrink_after else 0
        return inner_count + 3 + extra

    def entry(self, pid: int) -> Program:
        # Doorway with the *current shared estimate* as the delay.
        while True:
            while True:
                value = yield self.x.read()
                if value is _FREE:
                    break
            yield self.x.write(pid)
            current = yield self.estimate.read()
            yield ops.delay(current)
            value = yield self.x.read()
            if value == pid:
                break
        # Breach sensing: remember the critical-section sequence number at
        # doorway clearance and compare it on CS entry.  In the serialized
        # regime nobody enters the CS between the two points (the previous
        # holder's increment happened before it re-opened the doorway), so
        # the number is unchanged.  When the doorway is breached, of any
        # two co-occupants of A the one entering the CS second observes the
        # first's increment — every co-occupancy is detected, with no false
        # positives.  (cs_seq is only written inside the CS, so the
        # increment is race-free.)
        seq_at_doorway = yield self.cs_seq.read()
        gate = self.inner
        yield gate.interested[pid].write(True)
        waited = False
        while True:
            t = yield gate.turn.read()
            if t == pid:
                break
            holder_interested = yield gate.interested[t].read()
            if not holder_interested:
                break
            yield gate.cont.write(True)
            waited = True
        yield from gate.inner.entry(pid)
        seq_at_entry = yield self.cs_seq.read()
        yield self.cs_seq.write(seq_at_entry + 1)
        breached = seq_at_entry != seq_at_doorway

        if waited or breached:
            # The doorway was breached: the estimate lost to real step
            # times.  Multiplicative increase (racy, harmless).
            if self.shrink_after:
                yield self.streaks[pid].write(0)
            current = yield self.estimate.read()
            yield self.estimate.write(min(current * self.growth, self.ceiling))
        elif self.shrink_after:
            streak = (yield self.streaks[pid].read()) + 1
            if streak >= self.shrink_after:
                yield self.streaks[pid].write(0)
                current = yield self.estimate.read()
                shrunk = max(current - self.shrink_step, 1e-9)
                yield self.estimate.write(shrunk)
            else:
                yield self.streaks[pid].write(streak)

    def exit(self, pid: int) -> Program:
        yield from self.inner.exit(pid)
        value = yield self.x.read()
        if value == pid:
            yield self.x.write(_FREE)

    def __repr__(self) -> str:
        return f"AdaptiveMutex(inner={self.inner!r})"


def default_adaptive_mutex(
    n: int,
    initial_estimate: float,
    namespace: Optional[RegisterNamespace] = None,
    **kwargs: float,
) -> AdaptiveMutex:
    """The standard instantiation: Bar-David(Lamport-fast) inside."""
    ns = namespace if namespace is not None else RegisterNamespace.unique("adm")
    inner = BarDavidLock(
        LamportFastLock(n, namespace=ns.child("lamport")),
        n,
        namespace=ns.child("gate"),
    )
    return AdaptiveMutex(
        inner=inner,
        initial_estimate=initial_estimate,
        namespace=ns.child("doorway"),
        **kwargs,  # type: ignore[arg-type]
    )
