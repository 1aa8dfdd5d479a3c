"""Problem specifications as executable trace checkers.

* :mod:`~repro.spec.consensus_spec` — validity, agreement, termination;
* :mod:`~repro.spec.mutex_spec` — mutual exclusion, starvation, and the
  paper's time-complexity metric;
* :mod:`~repro.spec.histories` / :mod:`~repro.spec.linearizability` —
  object histories and a linearizability checker for the derived wait-free
  objects.
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "consensus_spec": ("ConsensusVerdict", "check_consensus"),
    "mutex_spec": (
        "MutexVerdict",
        "check_mutex",
        "check_mutual_exclusion",
        "check_starvation",
        "max_bypass",
        "time_complexity",
        "unserved_intervals",
    ),
    "histories": (
        "History",
        "Operation",
        "history_from_trace",
        "pending_from_trace",
        "INVOKE",
        "RESPOND",
    ),
    "linearizability": (
        "SequentialModel",
        "ConsensusModel",
        "TestAndSetModel",
        "QueueModel",
        "StackModel",
        "CounterModel",
        "RegisterModel",
        "LinearizabilityResult",
        "check_linearizability",
    ),
})
