"""Wait-free objects derived from time-resilient consensus (paper §1.4).

All of these inherit Algorithm 1's resilience: safety under arbitrary
timing failures, liveness as soon as the timing constraints hold, any
number of crash failures tolerated.
"""

from ..._exports import export_lazily

__all__ = export_lazily(globals(), {
    "multivalued": ("MultivaluedConsensus",),
    "election": ("LeaderElection",),
    "test_and_set": ("TestAndSet",),
    "renaming": ("Renaming",),
    "set_consensus": ("SetConsensus",),
    "universal": ("Universal", "UniversalClient"),
    "long_lived": ("ConsensusService",),
})
