"""Explicit-state model checking of the algorithms under full asynchrony.

Safety under arbitrary asynchrony *is* safety under timing failures —
this package machine-checks the paper's safety theorems on small
configurations and machine-finds Fischer's violation (experiments E6 and
E13).
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "sandbox": ("Sandbox", "ProgramFactory"),
    "explorer": ("explore", "replay_schedule", "ExplorationResult", "Violation"),
    # ``fuzz`` the function shadows ``fuzz`` the module: bound eagerly.
    "fuzz": ("FuzzFailure", "FuzzResult", "fuzz"),
    "properties": (
        "SafetyProperty",
        "MutualExclusionProperty",
        "AgreementProperty",
        "ValidityProperty",
        "InvariantProperty",
    ),
    "stabilization": (
        "SelfStabilizationProperty",
        "StabilizationReport",
        "dg_ring_property",
    ),
})
