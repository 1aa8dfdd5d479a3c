"""Crash-prone message passing and quorum-emulated atomic registers.

The paper's Discussion (§4) names message-passing systems as the key
extension of its shared-memory results.  This package supplies that
substrate in both directions of the classic equivalence:

* :class:`Transport` — a deterministic message layer for the
  discrete-event engine (``Engine(transport=...)``):
  ``send``/``broadcast``/``recv`` ops, per-link delivery bounds (the
  networked ``Δ``), and a :class:`NetFaultPlan` of crashes, losses,
  delay spikes and partitions mirroring :mod:`repro.sim.failures`;
* :class:`QuorumSystem` — ABD/Mostéfaoui-Raynal atomic registers
  emulated over that unreliable network (majority-ack writes,
  read-repair reads, crash-minority tolerance), behind a facade that
  runs the repo's register-only algorithms unchanged;
* :mod:`repro.net.omega` — a heartbeat failure detector with the
  adaptive (optimistic-timeout) rule and Ω-style leader election whose
  eventual-agreement behaviour mirrors the paper's convergence
  requirement;
* :mod:`repro.net.resilience` — the bridge mapping ``Δ`` to the
  delivery bound so the paper's experiments re-run networked;
* :mod:`repro.net.fuzz` — the ABD workload harness a net chaos run
  checks against the linearizability spec
  (``python -m repro.chaos run --substrate net``).
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    # message layer
    "transport": ("Transport", "NetStats"),
    # faults
    "faults": ("NetFaultPlan", "MessageLoss", "DelaySpike", "Partition"),
    # quorum emulation
    "quorum": ("QuorumSystem",),
    # failure detection
    "omega": ("HeartbeatMonitor", "OmegaElection", "LeaderSample", "eventual_agreement"),
    # resilience bridge
    "resilience": (
        "default_costs",
        "emulated_op_bound",
        "delta_net",
        "bound_for_delta",
        "convergence_start",
    ),
})
