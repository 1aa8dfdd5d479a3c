"""E2 — Theorem 2.1(2): recovery within ~2 rounds after failures stop."""

from repro.analysis.experiments import run_e2


def test_e2_recovery_bound():
    table = run_e2(window_lengths=(2.0, 5.0, 10.0, 20.0))
    # Shape: every run decides, regardless of how long the window was.
    assert all(table.column("decided"))
    # Shape: at most 2 post-failure rounds (decide by round r+1).
    assert all(table.column("within bound"))
    # Shape: post-failure time is flat in the window length — the window
    # only shifts when recovery starts, not how long it takes.
    times = table.column("post-failure time (Δ)")
    assert max(times) - min(times) <= 3.0
