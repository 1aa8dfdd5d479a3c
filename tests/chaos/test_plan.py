"""Tests for the unified campaign algebra and its serialization."""

import math

import pytest

from repro.chaos.plan import (
    Campaign,
    MemCorruption,
    campaign_from_dict,
    campaign_to_dict,
    sample_net_campaign,
    sample_sim_campaign,
)
from repro.net.faults import DelaySpike, MessageLoss, Partition
from repro.sim.failures import failure_window
from repro.sim.timing import ConstantTiming


class TestCampaignValidation:
    def test_unknown_substrate_rejected(self):
        with pytest.raises(ValueError):
            Campaign(substrate="quantum", seed="s")

    def test_negative_crash_point_rejected(self):
        with pytest.raises(ValueError):
            Campaign(substrate="sim", seed="s", crash_at=((0, -1.0),))

    def test_nan_crash_point_rejected(self):
        with pytest.raises(ValueError):
            Campaign(substrate="sim", seed="s", crash_at=((0, float("nan")),))

    def test_duplicate_crash_pid_rejected(self):
        with pytest.raises(ValueError):
            Campaign(
                substrate="sim", seed="s",
                crash_at=((0, 1.0),), crash_after=((0, 5),),
            )

    def test_corruption_validation(self):
        with pytest.raises(ValueError):
            MemCorruption(at=-1.0, register="x")
        with pytest.raises(ValueError):
            MemCorruption(at=float("nan"), register="x")


class TestCampaignAccessors:
    def test_fault_count_sums_every_component(self):
        c = Campaign(
            substrate="net",
            seed="s",
            crash_at=((3, 1.0),),
            losses=(MessageLoss(rate=0.5, start=0.0, end=1.0),),
            spikes=(DelaySpike(start=0.0, end=1.0, stretch=2.0),),
            partitions=(Partition(start=0.0, end=1.0, groups=((0,), (1,))),),
        )
        assert c.fault_count == 4

    def test_last_disruption_end_ignores_crashes_and_inf(self):
        c = Campaign(
            substrate="sim",
            seed="s",
            windows=(failure_window(0.0, 7.0), failure_window(1.0, math.inf)),
            crash_at=((0, 99.0),),
            corruptions=(MemCorruption(at=3.0, register="x"),),
        )
        assert c.last_disruption_end == 7.0

    def test_last_disruption_end_empty(self):
        assert Campaign(substrate="sim", seed="s").last_disruption_end == 0.0

    def test_replace_returns_modified_copy(self):
        c = Campaign(substrate="sim", seed="s",
                     windows=(failure_window(0.0, 1.0),))
        c2 = c.replace(windows=())
        assert c.fault_count == 1 and c2.fault_count == 0

    def test_crash_schedule_adapter(self):
        c = Campaign(substrate="sim", seed="s",
                     crash_at=((0, 5.0),), crash_after=((1, 3),))
        cs = c.crash_schedule()
        assert cs.crash_time(0) == 5.0 and cs.crash_step(1) == 3

    def test_net_plan_adapter(self):
        loss = MessageLoss(rate=1.0, start=0.0, end=10.0)
        c = Campaign(substrate="net", seed="s", losses=(loss,))
        assert c.net_plan().losses == (loss,)

    def test_timing_model_adapter_passthrough_without_windows(self):
        base = ConstantTiming(0.5)
        c = Campaign(substrate="sim", seed="s")
        assert c.timing_model(base) is base
        windowed = c.replace(windows=(failure_window(0.0, 1.0, stretch=4.0),))
        assert windowed.timing_model(base) is not base


class TestSerialization:
    def test_sim_round_trip(self):
        c = Campaign(
            substrate="sim",
            seed="rt",
            windows=(
                failure_window(0.0, 5.0, pids=[0, 2], stretch=3.0),
                failure_window(1.0, math.inf),
            ),
            crash_at=((0, 2.5),),
            crash_after=((1, 7),),
            corruptions=(MemCorruption(at=1.5, register="x", value=3),),
        )
        assert campaign_from_dict(campaign_to_dict(c)) == c

    def test_net_round_trip(self):
        c = sample_net_campaign("rt-net", faults=6)
        assert campaign_from_dict(campaign_to_dict(c)) == c

    def test_dict_is_json_safe(self):
        import json

        c = Campaign(substrate="sim", seed="s",
                     windows=(failure_window(0.0, math.inf),))
        data = json.loads(json.dumps(campaign_to_dict(c)))
        assert campaign_from_dict(data) == c


class TestGenerators:
    def test_sim_campaign_deterministic_per_seed(self):
        a = sample_sim_campaign("g1", pids=(0, 1, 2))
        b = sample_sim_campaign("g1", pids=(0, 1, 2))
        c = sample_sim_campaign("g2", pids=(0, 1, 2))
        assert a == b
        assert a != c

    def test_sim_campaign_window_count(self):
        c = sample_sim_campaign("g1", pids=(0, 1), windows=4)
        assert len(c.windows) == 4
        assert c.substrate == "sim"

    def test_crash_prob_one_crashes_everyone(self):
        c = sample_sim_campaign("g1", pids=(0, 1, 2), crash_prob=1.0)
        crashed = {pid for pid, _ in (*c.crash_at, *c.crash_after)}
        assert crashed == {0, 1, 2}

    def test_invalid_severity_rejected(self):
        with pytest.raises(ValueError):
            sample_sim_campaign("g", pids=(0,), severity=0.0)
        with pytest.raises(ValueError):
            sample_net_campaign("g", severity=-1.0)

    @pytest.mark.parametrize("severity", [math.nan, math.inf])
    def test_non_finite_severity_rejected(self, severity):
        with pytest.raises(ValueError, match="positive and finite"):
            sample_sim_campaign("g", pids=(0,), severity=severity)
        with pytest.raises(ValueError, match="positive and finite"):
            sample_net_campaign("g", severity=severity)

    def test_invalid_crash_prob_rejected(self):
        with pytest.raises(ValueError):
            sample_sim_campaign("g", pids=(0,), crash_prob=1.5)

    def test_net_campaign_mixes_fault_kinds(self):
        c = sample_net_campaign("mix", faults=6)
        assert c.substrate == "net"
        assert len(c.losses) == 2 and len(c.spikes) == 2
        assert len(c.partitions) == 2

    def test_sampled_net_campaigns_draw_every_fault_kind(self):
        # Clients are pids 0-1, replicas 2-4 (NetParams' shape).
        kinds = set()
        for index in range(16):
            c = sample_net_campaign(f"kinds-{index}", clients=2, replicas=3)
            kinds |= {"loss"} if c.losses else set()
            kinds |= {"spike"} if c.spikes else set()
            kinds |= {"partition"} if c.partitions else set()
            crashed = [pid for pid, _ in c.crash_at]
            replicas = [pid for pid in crashed if pid >= 2]
            clients = [pid for pid in crashed if pid < 2]
            assert len(replicas) in (0, 1) and len(clients) in (0, 1)
            kinds |= {"replica-minority crash"} if replicas else set()
            kinds |= {"client crash"} if clients else set()
            assert crashed == sorted(crashed)
        assert kinds == {"loss", "spike", "partition",
                         "replica-minority crash", "client crash"}

    def test_net_campaign_deterministic(self):
        assert sample_net_campaign("n") == sample_net_campaign("n")
