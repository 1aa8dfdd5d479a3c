"""``repro.chaos`` — cross-substrate fault campaigns, shrinking, artifacts.

The robustness layer: one :class:`~repro.chaos.plan.Campaign` algebra
composes sim-side faults (timing windows, crashes, crash-recovery
restarts, memory corruptions) and net-side faults (loss, delay spikes,
partitions); online monitors check stabilization and convergence
*during* runs — including the recover discipline, where transient
violations are tolerated inside a stabilization window and convergence
afterwards is the archived evidence; a delta-debugging shrinker
minimizes failing ``(campaign, payload, seed)`` triples; and JSON
artifacts replay violations (or convergence verdicts) bit-identically
anywhere (``python -m repro.chaos run|shrink|replay``).
"""

from .._exports import export_lazily

__all__ = export_lazily(globals(), {
    "plan": (
        "Campaign",
        "MemCorruption",
        "campaign_to_dict",
        "campaign_from_dict",
        "sample_sim_campaign",
        "sample_net_campaign",
        "sample_recover_campaign",
    ),
    "monitors": (
        "ChaosMonitor",
        "ChaosViolation",
        "SafetyMonitor",
        "ConvergenceMonitor",
        "StabilizationMonitor",
        "TraceResilienceMonitor",
        "default_monitors",
        "stabilization_monitors",
    ),
    "runner": (
        "SimTarget",
        "SIM_TARGETS",
        "sim_target",
        "SimOutcome",
        "NetOutcome",
        "NetParams",
        "CampaignReport",
        "run_sim",
        "run_sim_campaign",
        "run_net",
        "run_net_campaign",
        "sample_net_workload",
    ),
    "shrink": ("ddmin", "ShrinkResult", "shrink_sim", "shrink_net"),
    "artifact": (
        "Artifact",
        "ReplayReport",
        "artifact_from_sim",
        "artifact_from_sim_verdict",
        "artifact_from_net",
        "save_artifact",
        "load_artifact",
        "replay",
    ),
})
