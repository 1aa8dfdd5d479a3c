"""repro.serve — the paper's algorithms as a live asyncio lease service.

The subsystem that takes Algorithm 3 (timing-failure-resilient mutual
exclusion) and the ABD quorum register emulation out of the simulator
and runs them against real sockets, real time, and open-loop client
load — without changing a line of algorithm code:

* :mod:`~repro.serve.substrate` — the :class:`Substrate` protocol (the
  message-fabric surface `repro.net.Transport` already satisfies) and
  :class:`AsyncioSubstrate`, the loopback-TCP implementation;
* :mod:`~repro.serve.driver` — :class:`AsyncioDriver`, the interpreter
  that drives the repo's generator programs over a live substrate;
* :mod:`~repro.serve.service` — :class:`LeaseService`: TTL leases with
  fencing tokens, minted in blocks under Algorithm 3 per shard;
* :mod:`~repro.serve.workload` — the same keeper workload under the
  deterministic sim engine;
* :mod:`~repro.serve.loadgen` — seeded open-loop Poisson load;
* :mod:`~repro.serve.chaosproxy` — :class:`FaultProxySubstrate`, the
  chaos seam for the live service.

CLI: ``python -m repro.serve demo|load|sim`` (see ``--help``).
"""

from .chaosproxy import FaultProxySubstrate
from .driver import AsyncioDriver
from .loadgen import LoadGenerator, percentile
from .service import (
    Lease,
    LeaseCore,
    LeaseService,
    TokensExhausted,
    keeper_program,
    shard_for,
    verify_lease_events,
)
from .substrate import AsyncioSubstrate, Substrate, SubstrateClock
from .workload import ChurnFeed, lease_churn_sim

__all__ = [
    "AsyncioDriver",
    "AsyncioSubstrate",
    "ChurnFeed",
    "FaultProxySubstrate",
    "Lease",
    "LeaseCore",
    "LeaseService",
    "LoadGenerator",
    "Substrate",
    "SubstrateClock",
    "TokensExhausted",
    "keeper_program",
    "lease_churn_sim",
    "percentile",
    "shard_for",
    "verify_lease_events",
]
