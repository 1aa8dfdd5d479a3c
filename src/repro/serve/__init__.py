"""repro.serve — the paper's algorithms as a live asyncio lease service.

The subsystem that takes Algorithm 3 (timing-failure-resilient mutual
exclusion) and the ABD quorum register emulation out of the simulator
and runs them against real sockets, real time, and open-loop client
load — without changing a line of algorithm code:

* :mod:`~repro.serve.substrate` — the :class:`Substrate` protocol (the
  message-fabric surface `repro.net.Transport` already satisfies) and
  :class:`AsyncioSubstrate`, the loopback-TCP implementation, which
  applies a :class:`~repro.net.faults.NetFaultPlan` to its sends the way
  the sim transport does — the chaos seam for the live service;
* :mod:`~repro.serve.driver` — :class:`AsyncioDriver`, the interpreter
  that drives the repo's generator programs over a live substrate;
* :mod:`~repro.serve.lease` — the asyncio-free core both substrates
  share: :class:`LeaseCore` (TTL leases with fencing tokens), its audit
  and the Algorithm 3 keeper that mints tokens in blocks per shard;
* :mod:`~repro.serve.service` — :class:`LeaseService`, the asyncio front
  door over the live substrate;
* :mod:`~repro.serve.workload` — the same keeper workload under the
  deterministic sim engine;
* :mod:`~repro.serve.loadgen` — seeded open-loop Poisson load.

CLI: ``python -m repro.serve demo|load|sim`` (see ``--help``).
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "driver": ("AsyncioDriver",),
    "substrate": ("AsyncioSubstrate", "Substrate", "SubstrateClock"),
    "workload": ("ChurnFeed", "lease_churn_sim"),
    "lease": (
        "Lease",
        "LeaseCore",
        "TokensExhausted",
        "keeper_program",
        "shard_for",
        "verify_lease_events",
    ),
    "service": ("LeaseService",),
    "loadgen": ("LoadGenerator", "percentile"),
})
