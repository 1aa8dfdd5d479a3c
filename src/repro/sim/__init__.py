"""Discrete-event simulator of the paper's timing-based shared-memory model.

The public surface most users need:

* :class:`Engine` — run generator programs against a timing model;
* :class:`Register`, :class:`Array`, :class:`RegisterNamespace`,
  :class:`Memory` — atomic shared registers;
* the :mod:`~repro.sim.ops` vocabulary (``read``/``write``/``delay``/...);
* timing models (:class:`ConstantTiming`, :class:`FailureWindowTiming`,
  :class:`AsynchronousTiming`, ...), failure descriptions
  (:class:`TimingFailureWindow`, :class:`CrashSchedule`,
  :class:`RecoverSchedule`) and targeted
  adversaries (:mod:`~repro.sim.adversary`);
* :class:`Trace` — what happened, queryable by the spec checkers.
"""

from .adversary import (
    compose_hooks,
    slow_after,
    stall_read_of,
    stall_step_index,
    stall_write_to,
)
from .clock import VirtualClock
from .engine import Engine, RunResult, RunStatus, SimulationError
from .instrument import EngineProbe, active_probe, probe_scope
from .failures import (CrashSchedule, MemoryFault, RecoverSchedule,
                       TimingFailureWindow, failure_window, merge_windows)
from .ops import (
    CS_ENTER,
    CS_EXIT,
    DECIDED,
    ENTRY_START,
    EXIT_DONE,
    Broadcast,
    Delay,
    Label,
    LocalWork,
    Nap,
    Op,
    Read,
    ReadModifyWrite,
    Recv,
    Send,
    Write,
    broadcast,
    compare_and_swap,
    delay,
    fetch_and_add,
    get_and_set,
    label,
    local_work,
    nap,
    read,
    recv,
    send,
    write,
)
from .process import Process, ProcessState, Program, ProgramFactory
from .registers import Array, Memory, Register, RegisterNamespace
from .scheduler import FifoTieBreak, PidOrderTieBreak, RandomTieBreak, TieBreak
from .timing import (
    AsynchronousTiming,
    ConstantTiming,
    EmpiricalTiming,
    FailureWindowTiming,
    HookTiming,
    PerProcessTiming,
    StepContext,
    TimingModel,
    UniformTiming,
)
from .trace import CsInterval, EventKind, Trace, TraceEvent

__all__ = [
    # engine
    "Engine",
    "RunResult",
    "RunStatus",
    "SimulationError",
    "VirtualClock",
    # instrumentation
    "EngineProbe",
    "active_probe",
    "probe_scope",
    # processes
    "Process",
    "ProcessState",
    "Program",
    "ProgramFactory",
    # memory
    "Array",
    "Memory",
    "Register",
    "RegisterNamespace",
    # ops
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
    "read",
    "write",
    "delay",
    "nap",
    "local_work",
    "label",
    "send",
    "broadcast",
    "recv",
    "ENTRY_START",
    "CS_ENTER",
    "CS_EXIT",
    "EXIT_DONE",
    "DECIDED",
    # timing
    "TimingModel",
    "StepContext",
    "ConstantTiming",
    "EmpiricalTiming",
    "UniformTiming",
    "PerProcessTiming",
    "FailureWindowTiming",
    "AsynchronousTiming",
    "HookTiming",
    # failures
    "TimingFailureWindow",
    "CrashSchedule",
    "RecoverSchedule",
    "MemoryFault",
    "failure_window",
    "merge_windows",
    # adversaries
    "compose_hooks",
    "slow_after",
    "stall_read_of",
    "stall_step_index",
    "stall_write_to",
    # scheduling
    "TieBreak",
    "FifoTieBreak",
    "PidOrderTieBreak",
    "RandomTieBreak",
    # trace
    "Trace",
    "TraceEvent",
    "EventKind",
    "CsInterval",
]
