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
* :mod:`repro.net.fuzz` — fuzzed net schedules checked against the
  linearizability spec (``python -m repro.verify.fuzz --substrate net``).
"""

from .faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from .fuzz import NetFuzzReport, fuzz_quorum_register
from .omega import HeartbeatMonitor, LeaderSample, OmegaElection, eventual_agreement
from .quorum import QuorumSystem
from .resilience import (
    bound_for_delta,
    convergence_start,
    default_costs,
    delta_net,
    emulated_op_bound,
)
from .transport import NetStats, Transport

__all__ = [
    # message layer
    "Transport",
    "NetStats",
    # faults
    "NetFaultPlan",
    "MessageLoss",
    "DelaySpike",
    "Partition",
    # quorum emulation
    "QuorumSystem",
    # failure detection
    "HeartbeatMonitor",
    "OmegaElection",
    "LeaderSample",
    "eventual_agreement",
    # resilience bridge
    "default_costs",
    "emulated_op_bound",
    "delta_net",
    "bound_for_delta",
    "convergence_start",
    # fuzzing
    "NetFuzzReport",
    "fuzz_quorum_register",
]
