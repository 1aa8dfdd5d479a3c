"""E3 — Theorem 2.1(3)/2.4: wait-freedom under crash failures."""

from repro.analysis.experiments import run_e3


def test_e3_survivors_always_decide():
    table = run_e3(ns=(2, 4, 8))
    # Shape: in every configuration all survivors decided and agreed.
    for decided, agreed in zip(table.column("survivors decided"),
                               table.column("agreed")):
        done, expected = decided.split("/")
        assert done == expected, table.render()
        assert agreed
    # Shape: decision time stays within the 15·Δ budget despite crashes.
    assert max(table.column("worst time (Δ)")) <= 15.0
