"""E4 — Theorem 2.1(4): the 7-step contention-free fast path."""

from repro.analysis.experiments import run_e4


def test_e4_seven_step_fast_path():
    table = run_e4()
    rows = {row[0]: row for row in table.rows}
    # Shape: the solo paths take exactly the paper's 7 steps, even while
    # the system is drowning in timing failures, and never delay.
    assert rows["solo, clean"][1] == 7
    assert rows["solo, during timing failures"][1] == 7
    assert rows["solo, clean"][2] == 0
    assert rows["solo, during timing failures"][2] == 0
    # Shape: a late arrival adopts the standing decision in (far) fewer
    # steps than a fresh solo run.
    assert rows["late arrival (decision standing)"][1] <= 7
    # Shape: unanimity decides in round one with zero delays system-wide.
    assert rows["unanimous x4"][2] == 0
