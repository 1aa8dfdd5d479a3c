"""E1 — Theorem 2.1(1): decision within 15·Δ without timing failures."""

from repro.analysis.experiments import run_e1


def test_e1_decision_within_15_delta():
    table = run_e1(ns=(1, 2, 4, 8, 16), seeds=(0, 1))
    # Shape: every configuration decides within the paper's 15·Δ bound.
    assert all(table.column("within 15Δ"))
    # Shape: worst time is flat in n (no growth beyond the 2-round bound).
    worst = table.column("worst time (Δ)")
    assert max(worst) <= 15.0
    assert max(worst[1:]) <= worst[1] + 3.0  # contended cases level out
    # Shape: never more than the two rounds of Theorem 2.1(1).
    assert max(table.column("worst rounds")) <= 2
