"""The paper's contributions: Algorithm 1, Algorithm 3, the resilience
definition as a checker, optimistic(Δ) tuning, and the derived objects."""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "adaptive": ("AdaptiveMutex", "default_adaptive_mutex"),
    "bounded": ("BoundedConsensus", "RoundBudgetExceeded"),
    "consensus": (
        "UNDECIDED",
        "TimeResilientConsensus",
        "ConsensusResult",
        "run_consensus",
        "labeled_decision",
    ),
    "mutex": ("TimeResilientMutex", "default_time_resilient_mutex"),
    "resilience": (
        "ResilienceReport",
        "check_resilience",
        "check_consensus_resilience",
    ),
    "optimistic": (
        "DeltaEstimator",
        "FixedEstimate",
        "AimdEstimator",
        "SlowStartEstimator",
        "TuningStep",
        "tune",
    ),
})
