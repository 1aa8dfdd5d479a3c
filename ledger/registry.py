"""The ledger's declarations: workloads, end-to-end and per-layer metrics.

Everything that names a workload or a metric lives here, once.
``BENCHMARK.json`` at the repo root is generated from this module
(:func:`benchmark_json`; ``python ledger/registry.py --write`` rewrites
it) and ``ledger/tests`` fails when the two drift apart.

Names use ``[A-Za-z0-9_.-]`` only.  Units: ``s``/``ms``/``us``/``ns``
are times, ``1/s`` a rate, ``MiB`` memory, ``ratio`` and ``%`` shares,
``count`` a plain count.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

# How long one run measures, and how many times a run sets the workload
# up (the reported ``setup_s`` is the median over that many subprocess
# starts: SETUP_SAMPLES - 1 set-up-only starts plus the measuring one).
RUN_SECONDS = 10
SETUP_SAMPLES = 4


@dataclass(frozen=True)
class Workload:
    """One named set of inputs.

    ``deterministic`` workloads run on a simulated clock under seeded
    schedulers, so their ``exact`` per-layer counts must repeat for equal
    seeds.  ``primary`` names the end-to-end metric the traced repetition
    compares against its untraced reference (``obs.trace_overhead_pct``).
    """

    name: str
    why: str
    deterministic: bool
    primary: str


@dataclass(frozen=True)
class EndToEnd:
    """A metric a user of the system would see.

    ``workloads`` lists where the metric is measured (``None`` = all).
    ``bound`` is the share of the parent's median by which it may worsen.
    ``driver`` is false for a metric the driver protocol cannot carry as
    a gated number (``failed_share`` is 0 on a healthy tree, and the
    contract forbids a metric that is 0); it travels as
    ``failed``/``attempted`` instead and stays gated by
    ``ledger/compare.py``.
    """

    name: str
    unit: str
    better: str
    bound: float
    workloads: Optional[Tuple[str, ...]]
    driver: bool = True

    def applies(self, workload: str) -> bool:
        return self.workloads is None or workload in self.workloads


@dataclass(frozen=True)
class PerLayer:
    """A metric of one layer, from the traced repetition.  No bound.

    ``exact`` counts repeat bit-for-bit on deterministic workloads.
    """

    name: str
    unit: str
    better: str
    exact: bool = False


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "live_open",
        "open-loop Poisson 4000 sessions/s on 1024 private-ish keys: the "
        "uncontended grant path and the load generator; keepers idle",
        False,
        "cpu_us_per_grant",
    ),
    Workload(
        "live_hot",
        "closed loop, 64 clients on 8 hot keys, 2 ms hold: contended "
        "acquire/release, waiters parked and woken by broadcast",
        False,
        "grants_per_s",
    ),
    Workload(
        "live_refill",
        "closed loop, 64 clients, 64-token blocks: token supply is the "
        "bottleneck, so Algorithm 3 + ABD quorum phases are the request path",
        False,
        "grants_per_s",
    ),
    Workload(
        "live_faulty",
        "live_refill under delay spikes (3x and 10x the bound) and 10% "
        "loss that then stop: the paper's timing-failure scenario, live",
        False,
        "grants_per_s",
    ),
    Workload(
        "sim_registers",
        "Engine + Memory: Algorithm 1 consensus n=8 and Algorithm 3 n=8 "
        "under jittered timing, spec checkers on; no messages",
        True,
        "events_per_s",
    ),
    Workload(
        "sim_net",
        "NetEngine/Transport/QuorumSystem: ABD read/write rounds and the "
        "keeper churn on the deterministic engine; Memory is bypassed",
        True,
        "events_per_s",
    ),
    Workload(
        "campaign",
        "whole fuzz and chaos campaigns on the untimed sandbox: monitors, "
        "shrinker, shard/merge fabric",
        True,
        "schedules_per_s",
    ),
    Workload(
        "explore",
        "exhaustive interleaving check of Algorithm 3 n=2 to max_ops=14: "
        "replays the schedule prefix at every node",
        True,
        "explore_s",
    ),
)

_LIVE_SUPPLY = ("live_refill", "live_faulty")

END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25, None),
    EndToEnd("grants_per_s", "1/s", "higher", 0.25,
             ("live_hot",) + _LIVE_SUPPLY),
    EndToEnd("grant_p50_us", "us", "lower", 0.25, ("live_open",)),
    EndToEnd("cpu_us_per_grant", "us", "lower", 0.25, ("live_open",)),
    EndToEnd("grant_p99_ms", "ms", "lower", 0.25, ("live_faulty",)),
    EndToEnd("converge_s", "s", "lower", 0.25, ("live_faulty",)),
    EndToEnd("outage_max_s", "s", "lower", 0.25, ("live_faulty",)),
    EndToEnd("events_per_s", "1/s", "higher", 0.25,
             ("sim_registers", "sim_net")),
    EndToEnd("schedules_per_s", "1/s", "higher", 0.25, ("campaign",)),
    EndToEnd("explore_s", "s", "lower", 0.25, ("explore",)),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.25, None),
    EndToEnd("failed_share", "ratio", "lower", 0.0, None, driver=False),
)


def _layer(prefix: str, rows: str) -> List[PerLayer]:
    """Parse ``name[=] unit better`` rows into :class:`PerLayer` entries."""
    out = []
    for row in rows.strip().splitlines():
        name, unit, better = row.split()
        exact = name.endswith("=")
        out.append(PerLayer(f"{prefix}.{name.rstrip('=')}", unit, better, exact))
    return out


PER_LAYER: Tuple[PerLayer, ...] = tuple(
    _layer("sim", """
        events=           count lower
        heap_pushes=      count lower
        ops_linearized=   count lower
        shared_steps=     count lower
        trace_events=     count lower
        reads=            count lower
        writes=           count lower
        rmws=             count lower
        ns_per_event      ns    lower
        engine_run_s      s     lower
        memory_s          s     lower
        memory_calls=     count lower
        timing_s          s     lower
        spawn_s           s     lower
    """)
    + _layer("spec", """
        check_s           s     lower
        checks=           count lower
    """)
    + _layer("core", """
        alg1_decide_deltas=   ratio lower
        alg3_entry_deltas=    ratio lower
        alg3_fastpath_share=  ratio higher
        delay_share           ratio lower
    """)
    + _layer("net", """
        messages_sent=        count lower
        messages_delivered=   count lower
        messages_dropped=     count lower
        quorum_rtts=          count lower
        msgs_per_register_op= ratio lower
        rtts_per_register_op= ratio lower
        register_op_deltas=   ratio lower
        transport_send_s      s     lower
        transport_collect_s   s     lower
        transport_calls=      count lower
        retransmits=          count lower
    """)
    + _layer("verify", """
        states=           count lower
        transitions=      count lower
        max_depth=        count lower
        states_per_s      1/s   higher
        sandbox_builds=   count lower
        replayed_steps=   count lower
        replay_ratio=     ratio lower
        sandbox_init_s    s     lower
        step_s            s     lower
        ns_per_step       ns    lower
        fingerprint_s     s     lower
        property_s        s     lower
        steps=            count lower
        steps_per_s       1/s   higher
    """)
    + _layer("chaos", """
        schedules_run=    count lower
        total_steps=      count lower
        run_sim_s         s     lower
        monitor_s         s     lower
        shrink_s          s     lower
        shrink_executions= count lower
        shrunk_steps=     count lower
    """)
    + _layer("parallel", """
        shards=           count lower
        dispatch_s        s     lower
        merge_s           s     lower
    """)
    + _layer("serve", """
        acquire_p50_us    us    lower
        acquire_p99_us    us    lower
        release_p50_us    us    lower
        core_grant_us     us    lower
        busy_per_grant    ratio lower
        wakeups_per_grant ratio lower
        waiter_parks      count lower
        expired           count lower
        fenced            count lower
        audit_s           s     lower
        start_s           s     lower
        close_s           s     lower
        refill_cycle_p50_ms ms  lower
        refill_cycle_p99_ms ms  lower
        refills           count lower
        stale_refills     count lower
        rtts_per_refill   ratio lower
        msgs_per_refill   ratio lower
        keeper_entry_ms   ms    lower
        keeper_cs_ms      ms    lower
        phase_rtt_p50_ms  ms    lower
        phase_rtt_p99_ms  ms    lower
        substrate_send_us us    lower
        substrate_collect_us us lower
        wire_delay_p50_ms ms    lower
        wire_delay_p99_ms ms    lower
        over_bound_msgs   count lower
        proxy_dropped     count lower
        proxy_delayed     count lower
    """)
    + _layer("loadgen", """
        late_p50_us       us    lower
        late_p99_us       us    lower
        grant_p99_ms      ms    lower
        grant_p999_ms     ms    lower
        inflight_max      count lower
        shed              count lower
        timeouts          count lower
    """)
    + _layer("obs", """
        trace_records     count lower
        trace_overhead_pct %    lower
    """)
    + _layer("host", """
        loop_lag_p99_ms   ms    lower
        gc_pause_total_ms ms    lower
        gc_gen2_runs      count lower
    """)
)

WORKLOAD_NAMES: Tuple[str, ...] = tuple(w.name for w in WORKLOADS)
WORKLOAD: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
E2E: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}
LAYER: Dict[str, PerLayer] = {m.name: m for m in PER_LAYER}
DRIVER_E2E: Tuple[EndToEnd, ...] = tuple(m for m in END_TO_END if m.driver)


def placeholder(metric: EndToEnd, window_s: float) -> float:
    """The value a workload reports for a metric that does not apply to it.

    The driver protocol wants every declared end-to-end metric from every
    workload, never 0 and never constant.  A metric that is not measured
    on a workload therefore reports the measured length of that run's
    timed window in the metric's unit (its reciprocal for a rate): a real
    reading that moves only if a workload stops honouring ``--seconds``.
    The ledger's own tables and ``compare.py`` skip these pairs.
    """
    if metric.unit == "1/s":
        return 1.0 / window_s
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[metric.unit]
    return window_s * scale


def benchmark_json() -> Dict[str, object]:
    """The document ``BENCHMARK.json`` must equal."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in DRIVER_E2E
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    text = json.dumps(benchmark_json(), indent=2) + "\n"
    if "--write" in sys.argv[1:]:
        BENCHMARK_PATH.write_text(text)
    else:
        sys.stdout.write(text)
