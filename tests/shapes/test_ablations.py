"""Ablations A1-A4: each removed design choice must visibly break its
property (see repro/analysis/ablations.py for the full rationale)."""

from repro.analysis.ablations import run_a1, run_a2, run_a3, run_a4


def test_a1_delay_buys_liveness():
    table = run_a1(cap=120.0)
    paper, ablated = table.rows
    # Both safe; both fine under benign timing.
    assert paper[3] and ablated[3]
    assert "decided" in paper[1] and "decided" in ablated[1]
    # Against the worst legal schedule only the paper variant decides.
    assert "decided" in paper[2]
    assert "undecided" in ablated[2]


def test_a2_conditional_reset_drains_the_flood():
    table = run_a2(max_time=300.0)
    by_name = {row[0]: row for row in table.rows}
    paper = by_name["paper (conditional)"]
    ablated = by_name["ablated (unconditional)"]
    assert paper[1] and ablated[1]  # exclusion held in both
    assert paper[3]  # the paper variant drains A back to solo
    assert not ablated[3]  # the ablated one keeps A contended
    assert ablated[2] > paper[2]


def test_a3_doorway_delay_serializes():
    table = run_a3(seeds=(0, 1))
    by_name = {row[0]: row for row in table.rows}
    paper = by_name["paper (with delay)"]
    ablated = by_name["ablated (no delay)"]
    # Zero timing failures in either run.
    assert paper[3] == 0 and ablated[3] == 0
    # With the delay, the doorway admits one process at a time.
    assert paper[1] == 1
    # Without it, plain jitter floods the embedded lock.
    assert ablated[1] >= 3
    # Exclusion survives in both (A is an asynchronous lock).
    assert paper[2] and ablated[2]


def test_a4_contention_hint_keeps_exit_constant():
    table = run_a4(ns_sweep=(4, 16, 64))
    paper, ablated = table.rows
    # The hinted exit is flat in n...
    assert paper[1] == paper[3]
    # ...the scanning exit grows roughly linearly.
    assert ablated[3] > ablated[1] + 32
