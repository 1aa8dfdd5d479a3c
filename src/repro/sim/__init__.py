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

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    # engine
    "engine": ("Engine", "RunResult", "RunStatus", "SimulationError"),
    "clock": ("VirtualClock",),
    # instrumentation
    "instrument": ("EngineProbe", "active_probe", "probe_scope"),
    # processes
    "process": ("Process", "ProcessState", "Program", "ProgramFactory"),
    # memory
    "registers": ("Array", "Memory", "Register", "RegisterNamespace"),
    # ops
    "ops": (
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
    ),
    # timing
    "timing": (
        "TimingModel",
        "StepContext",
        "ConstantTiming",
        "EmpiricalTiming",
        "UniformTiming",
        "PerProcessTiming",
        "FailureWindowTiming",
        "AsynchronousTiming",
        "HookTiming",
    ),
    # failures
    "failures": (
        "TimingFailureWindow",
        "CrashSchedule",
        "RecoverSchedule",
        "MemoryFault",
        "failure_window",
        "merge_windows",
    ),
    # adversaries
    "adversary": (
        "compose_hooks",
        "slow_after",
        "stall_read_of",
        "stall_step_index",
        "stall_write_to",
    ),
    # scheduling
    "scheduler": ("TieBreak", "FifoTieBreak", "PidOrderTieBreak", "RandomTieBreak"),
    # trace
    "trace": ("Trace", "TraceEvent", "EventKind", "CsInterval"),
})
