"""E9 — Theorem 3.1: the n-register lower bound, from the upper side."""

from repro.analysis.experiments import run_e9


def test_e9_register_counts():
    n = 8
    table = run_e9(n=n)
    by_name = {row[0]: row for row in table.rows}
    # Shape: Fischer sits below the bound — and indeed is not resilient.
    assert by_name["fischer"][1] == 1
    assert not by_name["fischer"][4]
    # Shape: the time-resilient Algorithm 3 respects Theorem 3.1's bound.
    alg3 = by_name["alg3 (time-resilient)"]
    assert alg3[1] >= n and alg3[3] and alg3[4]
    # Shape: claimed counts upper-bound the registers actually touched.
    for name, row in by_name.items():
        if row[1] is not None:
            assert row[2] <= row[1], (name, table.render())
