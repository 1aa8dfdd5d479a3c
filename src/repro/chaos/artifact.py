"""Deterministic repro artifacts: a failing chaos run as a JSON file.

An artifact captures everything needed to reproduce a violation on any
machine: the campaign (pure data), the payload (pid schedule or client
workload), the run seed, and the violation that is *expected* back —
monitor, message, and firing step.  :func:`replay` re-executes the run
and verifies the violation reproduces **identically**; any drift (a
different message, a different step) is reported as a mismatch rather
than papered over, because an artifact whose replay drifts is a
determinism bug in the substrate and we want CI to catch exactly that.

The JSON is written with sorted keys and a fixed schema version so
artifacts diff cleanly in review and survive being archived by CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace as dataclass_replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .monitors import ChaosViolation
from .plan import Campaign, campaign_from_dict, campaign_to_dict
from .runner import (
    DEFAULT_MAX_STEPS,
    NetOutcome,
    NetParams,
    SimOutcome,
    run_net,
    run_sim,
    sim_target,
)
from .shrink import ShrinkResult

__all__ = [
    "SCHEMA_VERSION",
    "ARTIFACT_KINDS",
    "Artifact",
    "artifact_from_sim",
    "artifact_from_sim_verdict",
    "artifact_from_net",
    "attach_observability",
    "save_artifact",
    "load_artifact",
    "ReplayReport",
    "replay",
]

# The one schema this build writes and reads: campaign, payload,
# violation and provenance; "kind" — "violation" archives a failing run,
# "stabilization" archives a *converged* recover run whose "violation"
# slot holds the stabilization verdict (replay then demands zero
# violations plus the identical verdict, instead of an identical
# violation); and the optional observability sidecars "net_stats"
# (transport counters of the failing run) and "timeliness" (the mined
# timeliness graph of the replayed trace, repro.obs.timeliness).
SCHEMA_VERSION = 3
ARTIFACT_KINDS = ("violation", "stabilization")


@dataclass(frozen=True)
class Artifact:
    """One archived failing run.  ``payload`` is the schedule (sim) or
    workload (net); ``provenance`` records what shrinking achieved."""

    substrate: str
    campaign: Campaign
    payload: Any
    violation: ChaosViolation
    # "violation" or "stabilization"; for the latter ``violation`` holds
    # the convergence verdict (a ChaosViolation-shaped measurement).
    kind: str = "violation"
    target: Optional[str] = None  # sim: SIM_TARGETS name
    run_seed: Optional[str] = None
    max_steps: int = DEFAULT_MAX_STEPS  # sim replay budget
    net_params: Optional[NetParams] = None
    provenance: Dict[str, Any] = field(default_factory=dict, compare=False)
    # Observability sidecars; never part of identity.
    net_stats: Optional[Dict[str, int]] = field(default=None, compare=False)
    timeliness: Optional[Dict[str, Any]] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ARTIFACT_KINDS:
            raise ValueError(
                f"kind must be one of {ARTIFACT_KINDS}, got {self.kind!r}"
            )
        if self.kind == "stabilization" and self.substrate != "sim":
            raise ValueError("stabilization artifacts are sim-only")

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "substrate": self.substrate,
            "campaign": campaign_to_dict(self.campaign),
            "violation": {
                "monitor": self.violation.monitor,
                "message": self.violation.message,
                "step": self.violation.step,
            },
            "run_seed": self.run_seed,
            "provenance": dict(self.provenance),
        }
        if self.substrate == "sim":
            data["target"] = self.target
            data["schedule"] = list(self.payload)
            data["max_steps"] = self.max_steps
        else:
            data["workload"] = [
                [list(op) for op in client_ops] for client_ops in self.payload
            ]
            data["net_params"] = (self.net_params or NetParams()).to_dict()
        if self.net_stats is not None:
            data["net_stats"] = dict(self.net_stats)
        if self.timeliness is not None:
            data["timeliness"] = self.timeliness
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Artifact":
        schema = data.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported artifact schema {schema!r} "
                f"(this build reads schema {SCHEMA_VERSION})"
            )
        substrate = data["substrate"]
        violation = ChaosViolation(
            monitor=data["violation"]["monitor"],
            message=data["violation"]["message"],
            step=int(data["violation"]["step"]),
        )
        if substrate == "sim":
            payload: Any = tuple(int(pid) for pid in data["schedule"])
            net_params = None
            max_steps = int(data["max_steps"])
        else:
            payload = tuple(
                tuple((op[0], int(op[1]), op[2]) for op in client_ops)
                for client_ops in data["workload"]
            )
            net_params = NetParams.from_dict(data["net_params"])
            max_steps = DEFAULT_MAX_STEPS
        return cls(
            substrate=substrate,
            campaign=campaign_from_dict(data["campaign"]),
            payload=payload,
            violation=violation,
            kind=data["kind"],
            target=data.get("target"),
            run_seed=data.get("run_seed"),
            max_steps=max_steps,
            net_params=net_params,
            provenance=dict(data.get("provenance", {})),
            net_stats=data.get("net_stats"),
            timeliness=data.get("timeliness"),
        )


def _provenance(shrunk: Optional[ShrinkResult]) -> Dict[str, Any]:
    if shrunk is None:
        return {}
    from .shrink import _payload_size

    return {
        "original_fault_count": shrunk.original_campaign.fault_count,
        "original_payload_size": _payload_size(shrunk.original_payload),
        "shrunk_fault_count": shrunk.campaign.fault_count,
        "shrunk_payload_size": _payload_size(shrunk.payload),
        "shrink_executions": shrunk.executions,
        "shrink_rounds": shrunk.rounds,
    }


def artifact_from_sim(
    target_name: str,
    outcome: SimOutcome,
    violation: Optional[ChaosViolation] = None,
    shrunk: Optional[ShrinkResult] = None,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Artifact:
    """Package a failing sim run (optionally its shrunk form)."""
    campaign = outcome.campaign
    payload: Any = outcome.schedule
    if violation is None:
        violation = outcome.violations[0]
    if shrunk is not None:
        campaign, payload, violation = shrunk.campaign, shrunk.payload, shrunk.violation
    return Artifact(
        substrate="sim",
        campaign=campaign,
        payload=payload,
        violation=violation,
        target=target_name,
        run_seed=outcome.run_seed,
        max_steps=max_steps,
        provenance=_provenance(shrunk),
    )


def artifact_from_sim_verdict(
    target_name: str,
    outcome: SimOutcome,
    max_steps: int = DEFAULT_MAX_STEPS,
) -> Artifact:
    """Package a *converged* recover run as a stabilization artifact.

    The archived evidence is the stabilization verdict: replay re-runs
    the schedule and demands zero violations plus the byte-identical
    verdict — same tolerated count, same settle time.
    """
    if outcome.violations:
        raise ValueError("a stabilization artifact needs a violation-free run")
    if not outcome.verdicts:
        raise ValueError(
            "the run produced no stabilization verdict (did it converge, "
            "and was the target a recover target?)"
        )
    return Artifact(
        substrate="sim",
        campaign=outcome.campaign,
        payload=outcome.schedule,
        violation=outcome.verdicts[0],
        kind="stabilization",
        target=target_name,
        run_seed=outcome.run_seed,
        max_steps=max_steps,
    )


def artifact_from_net(
    outcome: NetOutcome,
    params: NetParams,
    violation: Optional[ChaosViolation] = None,
    shrunk: Optional[ShrinkResult] = None,
) -> Artifact:
    """Package a failing net run (optionally its shrunk form)."""
    campaign = outcome.campaign
    payload: Any = outcome.workload
    if violation is None:
        violation = outcome.violations[0]
    if shrunk is not None:
        campaign, payload, violation = shrunk.campaign, shrunk.payload, shrunk.violation
    return Artifact(
        substrate="net",
        campaign=campaign,
        payload=payload,
        violation=violation,
        run_seed=outcome.run_seed,
        net_params=params,
        provenance=_provenance(shrunk),
        # Stats describe the archived triple; a shrunk triple's stats
        # come from re-running it (attach_observability), not from the
        # original unshrunk outcome.
        net_stats=outcome.net_stats if shrunk is None else None,
    )


def attach_observability(artifact: Artifact) -> Artifact:
    """Re-run the artifact's triple under a local tracer and embed the
    mined timeliness graph (plus, for net, the transport counters).

    The re-run is the same deterministic replay :func:`replay` performs,
    so the embedded report is byte-identical to what
    ``repro.chaos replay --trace t.json`` + ``repro.obs timeliness``
    would produce for this artifact.
    """
    from repro.obs import Tracer, trace_scope
    from repro.obs.timeliness import mine_timeliness

    tracer = Tracer()
    net_stats = artifact.net_stats
    with trace_scope(tracer):
        if artifact.substrate == "sim":
            run_sim(
                sim_target(artifact.target),
                artifact.campaign,
                schedule=list(artifact.payload),
                max_steps=artifact.max_steps,
                # A stabilization artifact's replay runs to completion
                # (the verdict lives in finalize); a violation artifact
                # stops where the archived monitor fires.
                stop_monitor=(
                    None
                    if artifact.kind == "stabilization"
                    else artifact.violation.monitor
                ),
            )
        else:
            outcome = run_net(
                artifact.campaign,
                artifact.payload,
                params=artifact.net_params or NetParams(),
                run_seed=artifact.run_seed,
            )
            net_stats = outcome.net_stats
    report = mine_timeliness(tracer.take())
    return dataclass_replace(artifact, net_stats=net_stats, timeliness=report)


def save_artifact(artifact: Artifact, path: Union[str, Path]) -> Path:
    """Write the artifact as reviewable JSON (sorted keys, indented)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(artifact.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    return path


def load_artifact(path: Union[str, Path]) -> Artifact:
    return Artifact.from_dict(json.loads(Path(path).read_text()))


@dataclass
class ReplayReport:
    """Did the archived violation reproduce *identically*?"""

    ok: bool
    expected: ChaosViolation
    actual: Optional[ChaosViolation]
    detail: str

    def __repr__(self) -> str:
        status = "reproduced" if self.ok else "MISMATCH"
        return f"ReplayReport({status}: {self.detail})"


def _replay_stabilization(artifact: Artifact) -> ReplayReport:
    """Stabilization artifacts replay to *convergence*, not to a failure:
    the run must stay violation-free and re-derive the identical verdict."""
    expected = artifact.violation
    outcome = run_sim(
        sim_target(artifact.target),
        artifact.campaign,
        schedule=list(artifact.payload),
        max_steps=artifact.max_steps,
    )
    if outcome.violations:
        actual = outcome.violations[0]
        return ReplayReport(
            ok=False,
            expected=expected,
            actual=actual,
            detail=f"replay did not converge: {actual!r}",
        )
    actual = next(
        (v for v in outcome.verdicts if v.monitor == expected.monitor), None
    )
    if actual is None:
        return ReplayReport(
            ok=False,
            expected=expected,
            actual=None,
            detail=f"replay produced no {expected.monitor!r} verdict",
        )
    if actual != expected:
        return ReplayReport(
            ok=False,
            expected=expected,
            actual=actual,
            detail=f"verdict drifted: expected {expected!r}, got {actual!r}",
        )
    return ReplayReport(
        ok=True,
        expected=expected,
        actual=actual,
        detail=(
            f"{expected.monitor} verdict @step {expected.step} reproduced; "
            f"zero violations"
        ),
    )


def replay(artifact: Artifact) -> ReplayReport:
    """Re-execute the artifact's run and compare violations exactly."""
    if artifact.kind == "stabilization":
        return _replay_stabilization(artifact)
    expected = artifact.violation
    if artifact.substrate == "sim":
        outcome = run_sim(
            sim_target(artifact.target),
            artifact.campaign,
            schedule=list(artifact.payload),
            max_steps=artifact.max_steps,
            stop_monitor=expected.monitor,
        )
        actual = outcome.find(expected.monitor)
    else:
        net_outcome = run_net(
            artifact.campaign,
            artifact.payload,
            params=artifact.net_params or NetParams(),
            run_seed=artifact.run_seed,
        )
        actual = None
        for candidate in net_outcome.violations:
            if candidate.monitor == expected.monitor:
                actual = candidate
                break
    if actual is None:
        return ReplayReport(
            ok=False,
            expected=expected,
            actual=None,
            detail=f"monitor {expected.monitor!r} did not fire on replay",
        )
    if actual != expected:
        return ReplayReport(
            ok=False,
            expected=expected,
            actual=actual,
            detail=(
                f"violation drifted: expected {expected!r}, got {actual!r}"
            ),
        )
    return ReplayReport(
        ok=True,
        expected=expected,
        actual=actual,
        detail=f"{expected.monitor} @step {expected.step} reproduced",
    )
