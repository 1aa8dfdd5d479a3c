"""Deterministic execution counters for the engine (perf instrumentation).

Wall-clock time on shared CI runners is too noisy to gate on, so the
probe counts *simulator-native work* instead: events popped off the
engine's heap, heap pushes, operations linearized, shared steps, register
reads/writes, registers touched, messages and quorum round trips.  Given
the same programs, timing model (with its seed), tie break and crash
schedule, these counters are bit-for-bit reproducible on any machine — a
change in them means the simulation itself did different work.  The
golden tests (``tests/sim/test_engine_golden.py``) pin them next to a
trace digest, the ledger reports them as its ``sim.*`` layer, and
``repro.lint.flow.xcheck`` runs the algorithms under a probe.

Instrumentation is **off by default and costs nothing when off**: an
:class:`Engine` holds ``_probe = None`` unless a probe was passed
explicitly or a :func:`probe_scope` is active when the engine is built,
and the hot loop guards every increment behind a single cached
``probe is not None`` check.

Two ways to attach a probe::

    probe = EngineProbe()
    Engine(delta=1.0, timing=..., probe=probe)          # explicit

    with probe_scope(probe):                            # ambient
        run_e5()    # every Engine built inside the scope reports here

The ambient form instruments the experiment drivers without threading a
probe through their signatures.
The simulator is single-threaded; the ambient scope is process-global and
not thread-safe, like the rest of the simulator.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional

__all__ = ["EngineProbe", "active_probe", "probe_scope"]


class EngineProbe:
    """Accumulates deterministic work counters across one or more runs.

    All fields are plain integers; :meth:`snapshot` returns them as a
    dict in a fixed key order so serialized counter blocks are stable.
    """

    __slots__ = (
        "runs",
        "events",
        "heap_pushes",
        "ops_linearized",
        "shared_steps",
        "trace_events",
        "reads",
        "writes",
        "rmws",
        "registers_touched",
        "messages_sent",
        "messages_delivered",
        "messages_dropped",
        "quorum_rtts",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.runs = 0  # completed Engine.run() calls
        self.events = 0  # events popped off the heap
        self.heap_pushes = 0  # events scheduled (incl. pre-scheduled faults)
        self.ops_linearized = 0  # operation effects applied (completions)
        self.shared_steps = 0  # reads/writes/rmws among those
        self.trace_events = 0  # trace records emitted
        self.reads = 0  # register reads (from Memory)
        self.writes = 0  # register writes (from Memory)
        self.rmws = 0  # read-modify-writes (from Memory)
        self.registers_touched = 0  # distinct registers, summed over runs
        self.messages_sent = 0  # messages handed to a net transport
        self.messages_delivered = 0  # messages collected by a Recv
        self.messages_dropped = 0  # messages lost to faults (loss/partition)
        self.quorum_rtts = 0  # completed quorum phases (repro.net.quorum)

    def snapshot(self) -> Dict[str, int]:
        """The counters as a plain dict, in declaration order."""
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"EngineProbe(runs={self.runs}, events={self.events}, "
            f"shared_steps={self.shared_steps})"
        )


_ACTIVE: Optional[EngineProbe] = None


def active_probe() -> Optional[EngineProbe]:
    """The probe engines should attach to, or None (the default)."""
    return _ACTIVE


@contextmanager
def probe_scope(probe: EngineProbe) -> Iterator[EngineProbe]:
    """Make ``probe`` ambient: every Engine built inside attaches to it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = probe
    try:
        yield probe
    finally:
        _ACTIVE = previous
