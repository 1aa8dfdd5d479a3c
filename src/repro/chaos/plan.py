"""The unified fault-plan algebra: one ``Campaign`` for every substrate.

Before this module each substrate injected adversity through its own
ad-hoc structures — :class:`~repro.sim.failures.TimingFailureWindow` /
:class:`~repro.sim.failures.CrashSchedule` / memory corruptions on the
shared-memory side, :class:`~repro.net.faults.NetFaultPlan` windows on
the message-passing side.  A :class:`Campaign` composes all of them into
one seeded, serializable description:

* **sim-side** — timing-failure windows, a crash schedule, and named
  register corruptions (:class:`MemCorruption`, the serializable cousin
  of :class:`~repro.sim.failures.MemoryFault`);
* **net-side** — message loss, delay spikes and partitions, reusing the
  immutable window types from :mod:`repro.net.faults` verbatim.

A campaign is *pure data*: adapters (:meth:`Campaign.crash_schedule`,
:meth:`Campaign.net_plan`, :meth:`Campaign.timing_model`) translate it
into whatever a substrate consumes, and :func:`campaign_to_dict` /
:func:`campaign_from_dict` round-trip it through JSON so a failing
campaign can be archived and replayed bit-identically on any machine
(see :mod:`repro.chaos.artifact`).

Under the asynchronous sandbox semantics (:mod:`repro.verify.sandbox`)
there is no wall clock, so sim campaigns are interpreted over the
*logical clock* — the number of shared steps executed so far.  A timing
window ``[start, end)`` then reads "the affected processes' pending
steps take until logical time ``end`` to complete", which the chaos
runner realizes by stalling them (see :mod:`repro.chaos.runner`).

The generators (:func:`sample_sim_campaign`, :func:`sample_net_campaign`)
sample structured random campaigns of tunable ``severity``; every draw
derives from ``random.Random(f"chaos:{seed}")``, so a seed fully
determines the campaign.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..net.faults import DelaySpike, MessageLoss, NetFaultPlan, Partition
from ..sim.failures import CrashSchedule, TimingFailureWindow
from ..sim.timing import FailureWindowTiming, TimingModel

__all__ = [
    "MemCorruption",
    "Campaign",
    "campaign_to_dict",
    "campaign_from_dict",
    "sample_sim_campaign",
    "sample_net_campaign",
    "sample_recover_campaign",
]

SUBSTRATES = ("sim", "net")


@dataclass(frozen=True)
class MemCorruption:
    """A serializable transient memory fault: register *named* ``register``
    is overwritten with ``value`` at (logical) time ``at``.

    Unlike :class:`~repro.sim.failures.MemoryFault` this carries the
    register's *name*, not its handle, so it survives JSON round-trips;
    the runner resolves the name against the target's declared registers.
    """

    at: float
    register: str
    value: Any = None

    def __post_init__(self) -> None:
        if not (self.at >= 0):  # also rejects NaN
            raise ValueError(f"corruption time must be >= 0, got {self.at}")


@dataclass(frozen=True)
class Campaign:
    """One composed fault environment, targeting one substrate.

    ``seed`` names the campaign (generation provenance) and seeds any
    randomized interpretation (the net transport's loss draws, the sim
    runner's scheduling decisions); all fault content is explicit data.
    """

    substrate: str
    seed: str
    # sim-side faults (logical-clock times under the sandbox semantics)
    windows: Tuple[TimingFailureWindow, ...] = ()
    crash_at: Tuple[Tuple[int, float], ...] = ()
    crash_after: Tuple[Tuple[int, int], ...] = ()
    corruptions: Tuple[MemCorruption, ...] = ()
    # crash-recovery restarts (pid, logical time): the pid resumes with a
    # fresh program instance over persistent registers.  A recover entry
    # whose pid never crashed (or whose time precedes the crash) is a
    # no-op — the shrinker may orphan entries freely.
    recover_at: Tuple[Tuple[int, float], ...] = ()
    # net-side faults (virtual-time windows on the transport)
    losses: Tuple[MessageLoss, ...] = ()
    spikes: Tuple[DelaySpike, ...] = ()
    partitions: Tuple[Partition, ...] = ()

    def __post_init__(self) -> None:
        if self.substrate not in SUBSTRATES:
            raise ValueError(
                f"substrate must be one of {SUBSTRATES}, got {self.substrate!r}"
            )
        seen = set()
        for pairs in (self.crash_at, self.crash_after):
            for pid, when in pairs:
                if not (when >= 0):
                    raise ValueError(
                        f"crash point for pid {pid} must be >= 0, got {when}"
                    )
        for pid, _ in (*self.crash_at, *self.crash_after):
            if pid in seen:
                raise ValueError(f"pid {pid} appears twice in the crash plan")
            seen.add(pid)
        seen_recover = set()
        for pid, when in self.recover_at:
            if not (when >= 0):
                raise ValueError(
                    f"recover point for pid {pid} must be >= 0, got {when}"
                )
            if pid in seen_recover:
                raise ValueError(f"pid {pid} appears twice in the recover plan")
            seen_recover.add(pid)

    # -- size / bookkeeping --------------------------------------------------

    @property
    def fault_count(self) -> int:
        """How many individual fault elements the campaign carries."""
        return (
            len(self.windows)
            + len(self.crash_at)
            + len(self.crash_after)
            + len(self.corruptions)
            + len(self.recover_at)
            + len(self.losses)
            + len(self.spikes)
            + len(self.partitions)
        )

    @property
    def last_disruption_end(self) -> float:
        """When the last finite *transient* fault window closes (0 if none).

        A crash with no recovery is permanent (not a disruption that
        "stops"), so only timing windows, corruptions, restarts and the
        net fault windows count — a crash+restart pair is a transient
        fault whose disruption ends at the restart.  This is where the
        resilience definition's convergence clock starts: the campaign's
        declared failure-free suffix begins here.
        """
        ends = [w.end for w in self.windows]
        ends += [c.at for c in self.corruptions]
        ends += [t for _pid, t in self.recover_at]
        ends += [w.end for w in (*self.losses, *self.spikes, *self.partitions)]
        finite = [e for e in ends if math.isfinite(e)]
        return max(finite) if finite else 0.0

    def replace(self, **changes: Any) -> "Campaign":
        """A copy with some fields replaced (the shrinker's workhorse)."""
        return dataclasses.replace(self, **changes)

    def describe(self) -> str:
        parts = [f"{self.substrate} campaign seed={self.seed!r}"]
        for label, items in (
            ("windows", self.windows),
            ("crash_at", self.crash_at),
            ("crash_after", self.crash_after),
            ("corruptions", self.corruptions),
            ("recover_at", self.recover_at),
            ("losses", self.losses),
            ("spikes", self.spikes),
            ("partitions", self.partitions),
        ):
            if items:
                parts.append(f"{label}={len(items)}")
        return " ".join(parts)

    # -- substrate adapters --------------------------------------------------

    def crash_schedule(self) -> CrashSchedule:
        """The sim/net engines' crash description."""
        return CrashSchedule(
            at_time=dict(self.crash_at),
            after_steps=dict(self.crash_after),
        )

    def net_plan(self) -> NetFaultPlan:
        """The transport-facing fault plan (net-side windows only)."""
        return NetFaultPlan(
            losses=self.losses, spikes=self.spikes, partitions=self.partitions
        )

    def timing_model(self, base: TimingModel) -> TimingModel:
        """A timed-engine model realizing the sim-side timing windows.

        For runs through the *timed* :class:`~repro.sim.Engine` (where
        window times are virtual time, not logical steps) — the
        trace-level resilience monitors use this.
        """
        if not self.windows:
            return base
        return FailureWindowTiming(base, self.windows)


# ---------------------------------------------------------------------------
# Serialization.  JSON has no inf, so open-ended window ends are encoded
# as the string "inf"; everything else is plain JSON scalars/lists.
# ---------------------------------------------------------------------------


def _enc_time(value: float) -> Any:
    return "inf" if math.isinf(value) else value


def _dec_time(value: Any) -> float:
    return math.inf if value == "inf" else float(value)


def _window_to_dict(w: TimingFailureWindow) -> Dict[str, Any]:
    return {
        "start": w.start,
        "end": _enc_time(w.end),
        "pids": None if w.pids is None else sorted(w.pids),
        "stretch": w.stretch,
        "duration": w.duration,
    }


def _window_from_dict(d: Dict[str, Any]) -> TimingFailureWindow:
    pids = d.get("pids")
    return TimingFailureWindow(
        start=float(d["start"]),
        end=_dec_time(d["end"]),
        pids=None if pids is None else frozenset(pids),
        stretch=float(d.get("stretch", 1.0)),
        duration=d.get("duration"),
    )


def campaign_to_dict(campaign: Campaign) -> Dict[str, Any]:
    """A JSON-ready dict; inverse of :func:`campaign_from_dict`."""
    return {
        "substrate": campaign.substrate,
        "seed": campaign.seed,
        "windows": [_window_to_dict(w) for w in campaign.windows],
        "crash_at": [[pid, t] for pid, t in campaign.crash_at],
        "crash_after": [[pid, k] for pid, k in campaign.crash_after],
        "recover_at": [[pid, t] for pid, t in campaign.recover_at],
        "corruptions": [
            {"at": c.at, "register": c.register, "value": c.value}
            for c in campaign.corruptions
        ],
        "losses": [
            {
                "rate": f.rate,
                "start": f.start,
                "end": _enc_time(f.end),
                "pids": None if f.pids is None else list(f.pids),
            }
            for f in campaign.losses
        ],
        "spikes": [
            {
                "start": f.start,
                "end": _enc_time(f.end),
                "stretch": f.stretch,
                "extra": f.extra,
                "pids": None if f.pids is None else list(f.pids),
            }
            for f in campaign.spikes
        ],
        "partitions": [
            {
                "start": f.start,
                "end": _enc_time(f.end),
                "groups": [list(g) for g in f.groups],
            }
            for f in campaign.partitions
        ],
    }


def campaign_from_dict(data: Dict[str, Any]) -> Campaign:
    """Rebuild a :class:`Campaign` from :func:`campaign_to_dict` output."""
    return Campaign(
        substrate=data["substrate"],
        seed=data["seed"],
        windows=tuple(_window_from_dict(w) for w in data.get("windows", ())),
        crash_at=tuple((int(p), float(t)) for p, t in data.get("crash_at", ())),
        crash_after=tuple(
            (int(p), int(k)) for p, k in data.get("crash_after", ())
        ),
        recover_at=tuple(
            (int(p), float(t)) for p, t in data.get("recover_at", ())
        ),
        corruptions=tuple(
            MemCorruption(at=float(c["at"]), register=c["register"],
                          value=c.get("value"))
            for c in data.get("corruptions", ())
        ),
        losses=tuple(
            MessageLoss(
                rate=float(f["rate"]),
                start=float(f["start"]),
                end=_dec_time(f["end"]),
                pids=None if f.get("pids") is None else tuple(f["pids"]),
            )
            for f in data.get("losses", ())
        ),
        spikes=tuple(
            DelaySpike(
                start=float(f["start"]),
                end=_dec_time(f["end"]),
                stretch=float(f.get("stretch", 1.0)),
                extra=float(f.get("extra", 0.0)),
                pids=None if f.get("pids") is None else tuple(f["pids"]),
            )
            for f in data.get("spikes", ())
        ),
        partitions=tuple(
            Partition(
                start=float(f["start"]),
                end=_dec_time(f["end"]),
                groups=tuple(tuple(g) for g in f["groups"]),
            )
            for f in data.get("partitions", ())
        ),
    )


# ---------------------------------------------------------------------------
# Generators: structured random campaigns of tunable severity.
# ---------------------------------------------------------------------------


def _campaign_rng(seed: Any) -> random.Random:
    return random.Random(f"chaos:{seed}")


def sample_sim_campaign(
    seed: Any,
    pids: Sequence[int],
    horizon: float = 120.0,
    windows: int = 6,
    severity: float = 1.0,
    crash_prob: float = 0.0,
    corruption_registers: Sequence[str] = (),
) -> Campaign:
    """A random shared-memory campaign over the logical-clock horizon.

    ``severity`` scales window width and stretch; ``crash_prob`` is the
    per-process probability of a scheduled crash; ``corruption_registers``
    (names) each get one corruption draw at the same probability.
    """
    if not (0.0 <= crash_prob <= 1.0):
        raise ValueError(f"crash_prob must be in [0, 1], got {crash_prob}")
    if not (0 < severity < math.inf):  # also rejects NaN
        raise ValueError(f"severity must be positive and finite, got {severity}")
    rng = _campaign_rng(seed)
    pid_list = list(pids)
    drawn: List[TimingFailureWindow] = []
    for _ in range(windows):
        start = rng.uniform(0.0, horizon)
        width = rng.uniform(0.05, 0.25) * horizon * severity
        affected: Optional[frozenset] = None
        if rng.random() >= 0.3:  # 70%: a random nonempty subset
            k = rng.randint(1, max(1, len(pid_list) - 1))
            affected = frozenset(rng.sample(pid_list, k))
        drawn.append(
            TimingFailureWindow(
                start=start,
                end=start + max(width, 1.0),
                pids=affected,
                stretch=1.0 + rng.uniform(1.0, 5.0) * severity,
            )
        )
    crash_at: List[Tuple[int, float]] = []
    crash_after: List[Tuple[int, int]] = []
    for pid in pid_list:
        if rng.random() < crash_prob:
            if rng.random() < 0.5:
                crash_at.append((pid, rng.uniform(0.0, horizon)))
            else:
                crash_after.append((pid, rng.randint(0, int(horizon) // 4)))
    corruptions = tuple(
        MemCorruption(at=rng.uniform(0.0, horizon), register=name,
                      value=rng.randint(0, len(pid_list)))
        for name in corruption_registers
        if rng.random() < crash_prob
    )
    return Campaign(
        substrate="sim",
        seed=str(seed),
        windows=tuple(sorted(drawn, key=lambda w: (w.start, w.end))),
        crash_at=tuple(crash_at),
        crash_after=tuple(crash_after),
        corruptions=corruptions,
    )


def sample_net_campaign(
    seed: Any,
    clients: int = 2,
    replicas: int = 3,
    bound: float = 1.0,
    horizon: float = 20.0,
    faults: int = 4,
    severity: float = 1.0,
    crash_minority: bool = True,
) -> Campaign:
    """A random networked campaign: loss, spikes, partitions, crashes.

    Fault kinds rotate through the draw so every campaign mixes them;
    ``crash_minority`` additionally crashes a random minority of the
    replicas (the ABD emulation must not notice).  Half the campaigns
    also crash one client mid-workload, leaving its invocation pending:
    a crashed write may or may not have taken effect, and the
    linearizability check must explain either.  That draw comes last, so
    it changes none of the faults drawn before it.
    """
    if not (0 < severity < math.inf):  # also rejects NaN
        raise ValueError(f"severity must be positive and finite, got {severity}")
    rng = _campaign_rng(seed)
    replica_pids = list(range(clients, clients + replicas))
    all_pids = list(range(clients + replicas))
    losses: List[MessageLoss] = []
    spikes: List[DelaySpike] = []
    partitions: List[Partition] = []
    for i in range(faults):
        kind = ("loss", "spike", "partition")[i % 3]
        start = rng.uniform(0.0, horizon)
        width = rng.uniform(1.0, 4.0) * bound * severity
        if kind == "loss":
            losses.append(
                MessageLoss(
                    rate=min(0.9, rng.uniform(0.05, 0.3) * severity),
                    start=start,
                    end=start + width,
                )
            )
        elif kind == "spike":
            spikes.append(
                DelaySpike(
                    start=start,
                    end=start + width,
                    stretch=1.0 + rng.uniform(1.0, 4.0) * severity,
                    extra=rng.uniform(0.0, 2.0) * bound,
                )
            )
        else:
            isolated = tuple(rng.sample(replica_pids, max(1, replicas // 2)))
            rest = tuple(p for p in all_pids if p not in isolated)
            partitions.append(
                Partition(start=start, end=start + width, groups=(rest, isolated))
            )
    crash_at: List[Tuple[int, float]] = []
    if crash_minority and replicas // 2 > 0 and rng.random() < 0.5:
        victims = rng.sample(replica_pids, replicas // 2)
        crash_at = [(pid, rng.uniform(0.0, horizon)) for pid in sorted(victims)]
    if clients and rng.random() < 0.5:
        victim = rng.randrange(clients)
        crash_at.insert(0, (victim, rng.uniform(bound, 8.0 * bound)))
    return Campaign(
        substrate="net",
        seed=str(seed),
        crash_at=tuple(crash_at),
        losses=tuple(losses),
        spikes=tuple(spikes),
        partitions=tuple(partitions),
    )


def sample_recover_campaign(
    seed: Any,
    pids: Sequence[int],
    horizon: float = 120.0,
    corruption_registers: Sequence[str] = (),
    corruptions: int = 2,
    crash_prob: float = 0.5,
    recover_delay: Tuple[float, float] = (5.0, 20.0),
) -> Campaign:
    """A recover campaign: corruption bursts plus crash/restart pairs.

    Built for *stabilizing/recoverable* targets, so every fault is
    transient by construction — corruptions are instants, and each drawn
    crash comes with a restart ``recover_delay`` later.  All fault times
    land in the first half of the horizon, leaving a declared
    failure-free suffix for the
    :class:`~repro.chaos.monitors.StabilizationMonitor` to judge
    convergence in.  No timing windows: delay provides no guarantee under
    the sandbox semantics anyway, and these targets are asynchronous.
    """
    if not (0.0 <= crash_prob <= 1.0):
        raise ValueError(f"crash_prob must be in [0, 1], got {crash_prob}")
    if corruptions < 0:
        raise ValueError(f"corruptions must be >= 0, got {corruptions}")
    rng = _campaign_rng(seed)
    pid_list = list(pids)
    names = list(corruption_registers)
    drawn: List[MemCorruption] = []
    for _ in range(corruptions if names else 0):
        drawn.append(
            MemCorruption(
                at=rng.uniform(0.0, horizon * 0.5),
                register=rng.choice(names),
                value=rng.randint(0, len(pid_list)),
            )
        )
    crash_at: List[Tuple[int, float]] = []
    recover_at: List[Tuple[int, float]] = []
    for pid in pid_list:
        if rng.random() < crash_prob:
            crashed = rng.uniform(0.0, horizon * 0.3)
            crash_at.append((pid, crashed))
            recover_at.append((pid, crashed + rng.uniform(*recover_delay)))
    return Campaign(
        substrate="sim",
        seed=str(seed),
        corruptions=tuple(sorted(drawn, key=lambda c: (c.at, c.register))),
        crash_at=tuple(crash_at),
        recover_at=tuple(recover_at),
    )
