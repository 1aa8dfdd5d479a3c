"""Smoke tests for the networked experiment drivers (E1N, E8N)."""

from repro.analysis.experiments import (
    ALL_EXPERIMENTS,
    _experiment_order,
    run_e1_net,
    run_e8_net,
)


class TestE1N:
    def test_networked_consensus_decides_within_the_bound(self):
        table = run_e1_net(ns=(2,), seeds=(0,))
        assert len(table.rows) == 1
        row = table.rows[0]
        # Columns: n, Δ_net, worst, mean, messages, rtts, within 15Δ_net.
        assert row[0] == 2
        assert row[2] <= 15.0
        assert row[-1] is True
        assert row[4] > 0 and row[5] > 0


class TestE8N:
    def test_lock_service_survives_every_fault_plan(self):
        table = run_e8_net(n=2, sessions=1)
        assert len(table.rows) == 3  # none / delay-spike / partition
        for row in table.rows:
            # Columns: plan, exclusion held, CS entries, after window, converged.
            assert row[1] is True
            assert row[2] == 2  # n * sessions
            assert row[-1] is True


class TestRegistry:
    def test_networked_drivers_are_registered(self):
        assert "E1N" in ALL_EXPERIMENTS
        assert "E8N" in ALL_EXPERIMENTS

    def test_experiment_order_interleaves_suffixed_ids(self):
        ids = ["X1", "E10", "A2", "E1N", "E2", "A1", "E1", "E8N", "E8"]
        assert sorted(ids, key=_experiment_order) == [
            "E1", "E1N", "E2", "E8", "E8N", "E10", "A1", "A2", "X1",
        ]
