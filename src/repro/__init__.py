"""repro — reproduction of Taubenfeld, *Computing in the Presence of
Timing Failures* (ICDCS 2006).

The package implements the paper's time-resilient consensus (Algorithm 1)
and mutual exclusion (Algorithm 3) over atomic registers, every baseline
and building block the paper references (Fischer's lock, Lamport's fast
lock, the bakeries, the Bar-David starvation-freedom transformation, the
unknown-bound consensus of Alur–Attiya–Taubenfeld), the derived wait-free
objects (election, test-and-set, renaming, a universal construction), a
discrete-event simulator of the timing-based shared-memory model, a model
checker for safety under arbitrary asynchrony, a real-thread backend, and
the experiment harness reproducing the paper's quantitative claims.

Quickstart::

    from repro import run_consensus
    from repro.sim import ConstantTiming

    result = run_consensus(inputs=[0, 1, 1], delta=1.0,
                           timing=ConstantTiming(step=0.8))
    assert result.agreed

See ``examples/quickstart.py``, README.md and DESIGN.md.
"""

from ._exports import export_lazily

__version__ = "1.0.0"

__all__ = export_lazily(globals(), {
    "core.consensus": (
        "TimeResilientConsensus",
        "ConsensusResult",
        "run_consensus",
        "labeled_decision",
        "UNDECIDED",
    ),
    "core.mutex": ("TimeResilientMutex", "default_time_resilient_mutex"),
    "core.resilience": (
        "ResilienceReport",
        "check_resilience",
        "check_consensus_resilience",
    ),
}) + ["__version__"]
